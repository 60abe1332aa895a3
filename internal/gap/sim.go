package gap

import (
	"fmt"
	"math"

	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/graph"
	"argan/internal/obs"
	"argan/internal/vtime"
)

// Result carries the answer of a run plus its metrics.
type Result[V any] struct {
	// Values holds the per-vertex outputs indexed by global vertex id.
	Values []V
	// Psi holds the raw converged status variables Ψ per global vertex —
	// distinct from Values for programs whose Output transforms Ψ (Δ-PR
	// leaves residual parked deltas there). Incremental warm starts need Ψ,
	// not the output view. Filled by RunLive; nil under RunSim.
	Psi []V
	// Metrics is the accounting used by the experiments.
	Metrics Metrics
}

// RunSim executes the program over the fragments under the deterministic
// virtual-time driver and returns the global result.
func RunSim[V any](frags []*graph.Fragment, factory ace.Factory[V], q ace.Query, cfg Config) (*Result[V], error) {
	return RunSimTruth(frags, factory, q, cfg, nil)
}

// RunSimTruth is RunSim with an optional ground-truth output vector (indexed
// by global id) enabling real-staleness sampling (Fig. 4b).
func RunSimTruth[V any](frags []*graph.Fragment, factory ace.Factory[V], q ace.Query, cfg Config, truth []V) (*Result[V], error) {
	if len(frags) == 0 {
		return nil, fmt.Errorf("gap: no fragments")
	}
	cfg = cfg.withDefaults()
	s := &sim[V]{
		cfg:         cfg,
		mode:        cfg.Mode,
		sched:       &vtime.Scheduler{},
		pool:        &batchPool[V]{},
		vc:          1,
		idleV:       make([]bool, len(frags)),
		maxUpd:      int64(cfg.MaxUpdatesPerVertex) * int64(frags[0].GlobalVertices()),
		lastArrival: map[[2]int]float64{},
	}
	switch s.mode {
	case ModeBSPVC, ModePowerSwitch:
		s.barrier, s.vc = true, 1.5
	case ModeAPVC:
		s.vc = 1.5
	case ModeBSP:
		s.barrier = true
	}
	if cfg.Faults.HasCrashes() && (s.barrier || s.mode == ModePowerSwitch) {
		return nil, fmt.Errorf("gap: crash injection requires an asynchronous mode, not %v", s.mode)
	}
	seqOn, recovers := exactlyOnce(cfg.Faults, false)
	alg := ace.AlgebraOf(factory())
	if recovers && !alg.Recoverable() {
		return nil, ErrNoRecoveryAlgebra
	}
	s.coord = &coordinator[V]{s: s, expected: len(frags)}

	states := make([]*workerState[V], len(frags))
	for i, f := range frags {
		w := newSimWorker(s, i, f, factory(), q, truth)
		s.workers = append(s.workers, w)
		states[i] = &w.workerState
	}
	if !cfg.Faults.Empty() {
		var rec *localRecovery[V]
		if seqOn {
			rec = attachRecovery(states, alg, recovers)
		}
		s.ft = newSimFT(s, cfg.Faults, rec)
	}
	// Initial activation: workers with non-empty H start computing at t=0;
	// the rest begin idle (and, under a barrier, arrive immediately).
	for _, w := range s.workers {
		if w.active.Empty() && !w.hasPendingOut() {
			w.idle = true
			s.idleV[w.id] = true
			s.idleCount++
			if s.barrier {
				w.arrived = true
				s.coord.arrive(w, 0)
			}
		} else {
			if s.effMode() == ModeBSPVC {
				w.loop.freeze()
			}
			w.scheduleResumeAt(0)
		}
	}
	if s.ft != nil {
		s.ft.start()
	}
	s.sched.Run(func() bool { return s.aborted })
	if s.aborted && s.sched.Now() > s.end {
		s.end = s.sched.Now()
	}

	res := &Result[V]{Values: make([]V, frags[0].GlobalVertices())}
	m := &res.Metrics
	m.Mode = cfg.Mode
	m.Converged = !s.aborted && (s.ft == nil || s.ft.nDead == 0)
	m.Switched = s.switched
	m.Crashes, m.Recoveries, m.Checkpoints = s.crashes, s.recoveries, s.checkpoints
	m.RespTime = s.end
	m.Supersteps = s.coord.supersteps
	for _, w := range s.workers {
		w.finish()
		m.Workers = append(m.Workers, w.metrics)
		if w.tuner != nil {
			m.TwSamples = append(m.TwSamples, w.tuner.Samples()...)
			m.EtaHistory = append(m.EtaHistory, w.tuner.EtaHistory())
		}
		w.outputs(res.Values)
	}
	m.finalize()
	return res, nil
}

// sim is the shared state of one virtual-time run.
type sim[V any] struct {
	cfg     Config
	mode    Mode // current mode (PowerSwitch may flip it)
	barrier bool // superstep discipline active
	sched   *vtime.Scheduler
	workers []*simWorker[V]
	coord   *coordinator[V]
	pool    *batchPool[V]

	// Worker-status view (Σ): what rules R1/R2 read. Updated with α virtual
	// latency.
	idleV     []bool
	idleCount int
	statusVer int

	// vc multiplies update costs under the vertex-centric disciplines
	// (BSP-VC, AP-VC, PowerSwitch): the per-vertex program-invocation
	// overhead those systems pay against a graph-centric batch loop.
	vc float64

	totalUpd int64
	maxUpd   int64
	aborted  bool
	switched bool
	end      float64

	// Fault-tolerance layer (nil on fault-free runs) and its accounting.
	ft                               *simFT[V]
	crashes, recoveries, checkpoints int64

	// lastArrival enforces per-link FIFO delivery (messages on one link
	// never overtake each other), which replace-style aggregators such as
	// Color rely on.
	lastArrival map[[2]int]float64
}

// ship stamps a batch for the link from→to and schedules its delivery,
// respecting per-link FIFO ordering, and returns the arrival time. With a
// fault layer active the batch is subject to injected link faults.
func (s *sim[V]) ship(from, to int, batch []ace.Message[V], bytes int, sentAt float64) float64 {
	env := s.workers[from].stamp(to, batch)
	if s.ft != nil {
		return s.ft.ship(env, to, bytes, sentAt)
	}
	at := s.fifo(from, to, sentAt+s.cfg.Net.Latency(from, to, bytes))
	s.deliverAt(to, env, at)
	return at
}

// fifo clamps an arrival on link from→to to no earlier than the link's last
// one and records it.
func (s *sim[V]) fifo(from, to int, at float64) float64 {
	if prev, ok := s.lastArrival[[2]int{from, to}]; ok && at < prev {
		at = prev
	}
	s.lastArrival[[2]int{from, to}] = at
	return at
}

func (s *sim[V]) deliverAt(to int, env envelope[V], at float64) {
	target := s.workers[to]
	s.sched.At(at, prioDeliver, func() { target.deliver(env, at) })
}

// setStatus publishes a worker's status change after the network's
// per-batch latency α.
func (s *sim[V]) setStatus(id int, idle bool, at float64) {
	apply := func() {
		if s.idleV[id] == idle {
			return
		}
		s.idleV[id] = idle
		if idle {
			s.idleCount++
		} else {
			s.idleCount--
		}
		s.statusVer++
	}
	if d := s.cfg.Net.Model.Alpha; d > 0 {
		s.sched.At(at+d, 0, apply)
		return
	}
	apply()
}

// allOthersIdle implements the premise of rule R2 for worker i.
func (s *sim[V]) allOthersIdle(i int) bool {
	n := s.idleCount
	if s.idleV[i] {
		n--
	}
	return n == len(s.workers)-1
}

const (
	prioDeliver = 0
	prioResume  = 1
)

// simWorker is one worker of the virtual-time run: the shared ACE state and
// round loop, plus the sim's clock, B⁺ and granularity control.
type simWorker[V any] struct {
	workerState[V]
	loop aceLoop[V]
	s    *sim[V]

	// B⁺: accumulated incoming batches.
	inBuf   []envelope[V]
	inMsgs  int
	inFirst float64 // arrival time of the oldest pending message; -1 if none
	inLast  float64 // arrival time of the newest pending message

	// Wire bytes buffered in B⁻_j per peer, and the peers that received
	// messages during the current update (R1 rechecks only those).
	outBytes []int
	touched  []int
	touchfl  []bool

	eta   float64
	tuner *adapt.Tuner[V]
	truth []V // global truth outputs, optional
	slow  float64

	now      float64
	idle     bool
	resumeEv *vtime.Event // the pending resume, if any
	arrived  bool         // barrier: arrived this superstep
	penalty  float64      // pending fault-tolerance cost (checkpoint/restore)

	// AAP delay sketch.
	aapDelay      float64
	aapStallUntil float64
	roundBase     float64 // stale2 at round start
	roundBusy0    float64

	// R1 rate limit: earliest time another R1-triggered flush may go to
	// each peer (one batch-latency apart), so straggler wake-ups don't
	// degenerate into per-update message spray.
	r1Next []float64

	lastStatusVer int

	tr obs.Tracer // nil when disabled

	// Staleness bookkeeping beside the state's Category II streaks.
	sumC   []float64 // Category III accumulators
	cumD   []float64
	sumCxD []float64

	metrics WorkerMetrics
}

func newSimWorker[V any](s *sim[V], id int, f *graph.Fragment, prog ace.Program[V], q ace.Query, truth []V) *simWorker[V] {
	w := &simWorker[V]{
		s:        s,
		inFirst:  -1,
		outBytes: make([]int, f.NumWorkers()),
		touchfl:  make([]bool, f.NumWorkers()),
		r1Next:   make([]float64, f.NumWorkers()),
		eta:      s.cfg.Eta0,
		slow:     1,
		truth:    truth,
		tr:       s.cfg.Tracer,
	}
	w.loop = aceLoop[V]{st: &w.workerState, tr: w.tr, charge: w.update}
	if s.cfg.SlowFactor != nil && id < len(s.cfg.SlowFactor) && s.cfg.SlowFactor[id] > 0 {
		w.slow = s.cfg.SlowFactor[id]
	}
	switch prog.Category() {
	case ace.CategoryII:
		w.vcost = make([]float64, f.NumOwned())
	case ace.CategoryIII:
		w.sumC = make([]float64, f.NumOwned())
		w.cumD = make([]float64, f.NumOwned())
		w.sumCxD = make([]float64, f.NumOwned())
	}
	// AAP keeps streak accounting as its staleness proxy regardless of
	// category.
	if s.cfg.Mode == ModeAAP && w.vcost == nil {
		w.vcost = make([]float64, f.NumOwned())
	}
	if s.cfg.Mode == ModeAAP {
		w.aapDelay = 2 * s.cfg.Net.Model.Alpha
	}

	w.onEnqueue = w.countOut
	w.init(id, f, prog, q, s.pool)
	// InitialSync traffic is not an update's: R1 starts with no touched peer.
	for j := range w.touchfl {
		w.touchfl[j] = false
	}
	w.touched = w.touched[:0]

	if s.cfg.Mode == ModeGAP && s.cfg.Adapt != adapt.PolicyFixed {
		tcfg := adapt.DefaultConfig(w.cat, func(b int) float64 { return s.cfg.Net.Model.TB(b) })
		tcfg.Policy = s.cfg.Adapt
		tcfg.K = s.cfg.K
		w.tuner = adapt.NewTuner[V](tcfg, prog.Equal, prog.Delta, f.NumWorkers()-1)
		if w.tr != nil {
			// Surface every tuner decision as gauge samples on the worker's
			// track: the chosen η, the sweep's φ estimate and candidate
			// count, and estimated vs real staleness when truth is known.
			w.tuner.SetObserver(func(ai adapt.AdjustInfo) {
				w.tr.Sample(w.id, obs.GaugeCandidates, w.now, float64(ai.Candidates))
				if ai.Records == 0 {
					return
				}
				w.tr.Sample(w.id, obs.GaugePhi, w.now, ai.PhiHigh)
				w.tr.Sample(w.id, obs.GaugeTwEst, w.now, ai.TwEst)
				if ai.HasReal {
					w.tr.Sample(w.id, obs.GaugeTwReal, w.now, ai.TwReal)
				}
			})
		}
	}
	if w.tr != nil && !math.IsInf(w.eta, 1) {
		w.tr.Sample(w.id, obs.GaugeEta, 0, w.eta)
	}
	return w
}

// countOut is the sim's mark hook (onEnqueue): B⁻ byte accounting, the
// tuner's send-volume record and R1's touched-peer list.
func (w *simWorker[V]) countOut(peer, dBytes int) {
	w.outBytes[peer] += dBytes
	if dBytes > 0 && w.tuner != nil {
		w.tuner.RecordBytes(peer, w.now, dBytes)
	}
	if !w.touchfl[peer] {
		w.touchfl[peer] = true
		w.touched = append(w.touched, peer)
	}
}

// --- driver events -------------------------------------------------------

func (w *simWorker[V]) scheduleResumeAt(t float64) {
	if w.resumeEv != nil {
		return
	}
	w.resumeEv = w.s.sched.At(t, prioResume, func() {
		w.resumeEv = nil
		w.resume(w.s.sched.Now())
	})
}

// rouse resumes the worker at t, marking it busy if it was idle: recovery
// restored it, or re-activated vertices of an idle survivor.
func (w *simWorker[V]) rouse(t float64) {
	if w.idle {
		w.idle = false
		w.s.setStatus(w.id, false, t)
	}
	w.scheduleResumeAt(t)
}

// resume runs the round loop from virtual time start, first paying any
// pending checkpoint/restore cost.
func (w *simWorker[V]) resume(start float64) {
	if w.s.aborted {
		return
	}
	w.now = start
	if w.penalty > 0 {
		// The cost delays an AAP stall window too: resuming past the window
		// only because a checkpoint was paid must not open a new one.
		w.now += w.penalty
		w.aapStallUntil += w.penalty
		w.metrics.Tf += w.penalty
		w.penalty = 0
	}
	w.loop.run(w)
}

// deliver is the arrival of a batch M_{j,i} into B⁺_i. A dead worker loses
// it; the sender's log replays it on restart.
func (w *simWorker[V]) deliver(env envelope[V], at float64) {
	if w.s.dead(w.id) {
		w.s.pool.put(env.msgs)
		return
	}
	w.inBuf = append(w.inBuf, env)
	w.inMsgs += len(env.msgs)
	if w.inFirst < 0 {
		w.inFirst = at
	}
	w.inLast = at
	if w.tr != nil {
		w.tr.Sample(w.id, obs.GaugeMailbox, at, float64(w.inMsgs))
	}
	if w.idle {
		w.idle = false
		w.s.setStatus(w.id, false, at)
		if w.tr != nil {
			w.tr.Mark(w.id, obs.MarkBusy, at)
		}
		if w.s.barrier {
			// Superstep modes wait for the coordinator's start signal.
			return
		}
		w.scheduleResumeAt(at)
	}
}

// --- h_in / h_out --------------------------------------------------------

// recv ingests B⁺ (g_aggr into Ψ, dependents re-activated) charging the
// receiver-side handler cost. round marks the start of a LocalEval, which
// under BSP-VC freezes its superstep.
func (w *simWorker[V]) recv(round bool) {
	if w.tr != nil {
		w.tr.SpanBegin(w.id, obs.PhaseHin, w.now)
	}
	nmsgs := w.inMsgs
	c := w.s.cfg.Net.Model.RecvCost(len(w.inBuf), nmsgs) * w.slow
	w.now += c
	w.metrics.Tc += c
	for _, env := range w.inBuf {
		if w.rs != nil {
			w.seqIngest(env)
			continue
		}
		w.ingest(env.msgs)
		w.s.pool.put(env.msgs)
	}
	clear(w.inBuf)
	w.inBuf = w.inBuf[:0]
	w.inMsgs = 0
	w.inFirst = -1
	w.metrics.Rounds++
	if round {
		w.roundBase = w.stale2
		w.roundBusy0 = w.metrics.Busy
	}
	if w.tr != nil {
		w.tr.Count(w.id, obs.CounterMsgsRecv, w.now, int64(nmsgs))
		w.tr.Sample(w.id, obs.GaugeMailbox, w.now, 0)
		w.tr.SpanEnd(w.id, obs.PhaseHin, w.now)
	}
	if round && w.s.effMode() == ModeBSPVC {
		w.loop.freeze()
	}
}

// flush sends B⁻_{i,j} as one batch M_{i,j} (h_out), charging the
// sender-side cost and scheduling the delivery.
func (w *simWorker[V]) flush(peer int) {
	batch := w.takeOut(peer)
	if batch == nil {
		return
	}
	bytes := w.outBytes[peer]
	w.outBytes[peer] = 0
	if w.tr != nil {
		w.tr.SpanBegin(w.id, obs.PhaseHout, w.now)
	}
	c := w.s.cfg.Net.Model.SendCost(len(batch)) * w.slow
	w.now += c
	w.metrics.Tc += c
	w.metrics.Flushes++
	w.metrics.MsgsSent += int64(len(batch))
	w.metrics.BytesSent += int64(bytes)
	if w.tr != nil {
		traceSent(w.tr, w.id, w.now, int64(len(batch)), int64(bytes))
		w.tr.SpanEnd(w.id, obs.PhaseHout, w.now)
	}

	if w.s.barrier {
		w.s.coord.hold(w.id, peer, batch, bytes)
		return
	}
	w.s.ship(w.id, peer, batch, bytes, w.now)
}

func (w *simWorker[V]) hasPendingOut() bool {
	for j := range w.out {
		if len(w.out[j].ids) > 0 {
			return true
		}
	}
	return false
}

// --- the seam: Algorithm 1 under the selected mode ------------------------

func (w *simWorker[V]) clock() float64 { return w.now }

// gate yields to any event scheduled before the worker's cursor, so
// causality holds, then runs a due η adjustment.
func (w *simWorker[V]) gate() bool {
	if t, ok := w.s.sched.PeekTime(); ok && t < w.now {
		w.scheduleResumeAt(w.now)
		return false
	}
	if w.s.aborted {
		return false
	}
	if w.tuner != nil && w.tuner.Due(w.now) {
		w.adjustEta()
	}
	return true
}

// xi applies rules R1–R3, before every update.
func (w *simWorker[V]) xi() xi {
	mode := w.s.effMode()
	// Rule R3: mid-round forward + ingest.
	if w.r3Due(mode) {
		return xiForward
	}
	// Rule R2: last busy worker ingests pending messages immediately.
	if mode == ModeGAP && !w.s.cfg.DisableR2 && w.inMsgs > 0 && w.s.allOthersIdle(w.id) {
		if w.tr != nil {
			w.tr.Mark(w.id, obs.MarkR2, w.now)
		}
		w.recv(false)
		return xiAgain
	}
	// Rule R1: forward to idle peers (GAP only).
	if mode == ModeGAP && !w.s.cfg.DisableR1 {
		w.applyR1()
	}
	return xiKeep
}

func (w *simWorker[V]) hin() { w.recv(true) }

func (w *simWorker[V]) hout(final bool) {
	for j := range w.out {
		if j != w.id {
			w.flush(j)
		}
	}
	if !final && w.inMsgs > 0 {
		w.recv(false)
	}
}

// next starts the next round at once when B⁺ holds messages — except
// under a barrier, where only the coordinator's signal restarts a worker,
// and under AAP's delay sketch: when recent rounds were stale, stall before
// ingesting so in-transit corrections land first (bounded staleness). No
// stall when every peer is already idle: no further messages can arrive.
func (w *simWorker[V]) next() bool {
	mode := w.s.effMode()
	if mode == ModeAAP {
		w.adjustAAPDelay()
	}
	if w.inMsgs > 0 && !w.s.barrier {
		if mode == ModeAAP && w.aapDelay > 0.5 && !w.s.allOthersIdle(w.id) {
			if w.aapStallUntil < w.now {
				// Start (or extend) one stall window per round gap.
				w.aapStallUntil = math.Max(w.now, w.inLast) + w.aapDelay
			}
			if w.now < w.aapStallUntil {
				w.scheduleResumeAt(w.aapStallUntil)
				return false
			}
		}
		return true
	}
	w.loop.mark(w, obs.MarkIdle)
	w.idle = true
	w.s.setStatus(w.id, true, w.now)
	w.s.end = math.Max(w.s.end, w.now)
	if w.s.barrier && !w.arrived {
		w.arrived = true
		w.s.coord.arrive(w, w.now)
	}
	return false
}

// update runs f_xv on v under the virtual clock: its cost, the staleness
// and tuner records, the crash poll, and AP-VC's (and FG⁻'s) exchange after
// every update.
func (w *simWorker[V]) update(v uint32) bool {
	c := ace.UpdateCost(w.prog, w.frag, v) * w.slow * w.s.vc * w.jitter() * w.s.slowAt(w.id, w.now)
	// Start a tuner cycle lazily with the first update after the previous
	// cycle closed.
	if w.tuner != nil && !w.tuner.CycleOpen() {
		w.tuner.Begin(w.now, w.eta)
	}
	before := w.prog.Output(w.ctx, v)
	w.prog.Update(w.ctx, v)
	after := w.prog.Output(w.ctx, v)
	d := w.prog.Delta(before, after)

	if w.vcost != nil {
		if !w.prog.Equal(before, after) {
			w.stale2 += w.vcost[v]
			w.vcost[v] = c
		} else {
			w.vcost[v] += c
		}
	}
	if w.sumC != nil {
		w.sumC[v] += c
		w.cumD[v] += d
		w.sumCxD[v] += c * w.cumD[v]
	}
	if w.tuner != nil {
		oh := w.tuner.Record(v, w.now, c, after, d)
		if oh > 0 {
			w.now += oh
			w.metrics.Ta += oh
		}
	}
	w.metrics.Busy += c
	w.now += c
	w.s.totalUpd++
	if w.s.totalUpd > w.s.maxUpd {
		w.s.aborted = true
	}
	if w.s.ft != nil && w.s.ft.checkDue(w) {
		return false // the injected crash killed this worker mid-round
	}
	if mode := w.s.effMode(); mode == ModeAPVC || (mode == ModeGAP && w.eta == 0) {
		// ξ⁺ and ξ⁻ constantly true (AP-VC, and FG⁻'s η = 0): flush and
		// ingest between every pair of update functions.
		w.hout(false)
	}
	return true
}

// effMode resolves ModePowerSwitch to the discipline it is currently
// executing (synchronous vertex-centric before the switch, asynchronous
// vertex-centric after).
func (s *sim[V]) effMode() Mode {
	if s.mode != ModePowerSwitch {
		return s.mode
	}
	if s.barrier {
		return ModeBSPVC
	}
	return ModeAPVC
}

// jitter returns the current execution-noise factor for this worker: a
// deterministic pseudo-random slowdown in [1, 1+Hetero] per time window.
func (w *simWorker[V]) jitter() float64 {
	a := w.s.cfg.Hetero
	if a <= 0 {
		return 1
	}
	win := uint64(w.now / w.s.cfg.HeteroWindow)
	x := win*0x9E3779B97F4A7C15 + uint64(w.id)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	return 1 + a*u
}

// r3Due evaluates rule R3 (or its fixed-granularity analogues).
func (w *simWorker[V]) r3Due(mode Mode) bool {
	if mode != ModeGAP || w.s.cfg.DisableR3 {
		return false
	}
	if w.inFirst < 0 || math.IsInf(w.eta, 1) {
		return false
	}
	return w.now-w.inFirst >= w.eta
}

func (w *simWorker[V]) applyR1() {
	r1Flush := func(j int) {
		// Wake an idle peer only with a batch worth shipping, at most one
		// per latency window, so straggler mitigation does not degenerate
		// into message spray.
		if len(w.out[j].ids) < 4 || !w.s.idleV[j] || w.now < w.r1Next[j] {
			return
		}
		w.r1Next[j] = w.now + w.s.cfg.Net.Model.Alpha
		if w.tr != nil {
			w.tr.Mark(w.id, obs.MarkR1, w.now)
		}
		w.flush(j)
	}
	if w.s.statusVer != w.lastStatusVer {
		w.lastStatusVer = w.s.statusVer
		for j := range w.out {
			if j != w.id {
				r1Flush(j)
			}
		}
		return
	}
	// Only peers touched by the last update need rechecking.
	for _, j := range w.touched {
		w.touchfl[j] = false
		r1Flush(j)
	}
	w.touched = w.touched[:0]
}

func (w *simWorker[V]) adjustAAPDelay() {
	roundBusy := w.metrics.Busy - w.roundBusy0
	if roundBusy <= 0 {
		return
	}
	frac := (w.stale2 - w.roundBase) / roundBusy
	maxDelay := 50 * w.s.cfg.Net.Model.Alpha
	switch {
	case frac > 0.15:
		w.aapDelay = math.Min(w.aapDelay*2+1, maxDelay)
	case frac < 0.05:
		w.aapDelay *= 0.6
	}
}

func (w *simWorker[V]) adjustEta() {
	if w.tr != nil {
		w.tr.SpanBegin(w.id, obs.PhaseAdjust, w.now)
	}
	cur := func(l uint32) V { return w.prog.Output(w.ctx, l) }
	var truthFn func(uint32) V
	if w.truth != nil {
		truthFn = func(l uint32) V { return w.truth[w.frag.Global(l)] }
	}
	newEta, oh := w.tuner.Adjust(cur, truthFn)
	w.eta = newEta
	w.now += oh
	w.metrics.Ta += oh
	if w.tr != nil {
		w.tr.SpanEnd(w.id, obs.PhaseAdjust, w.now)
		w.tr.Sample(w.id, obs.GaugeEta, w.now, w.eta)
	}
	w.tuner.Begin(w.now, w.eta)
}

// finish closes the books after the run.
func (w *simWorker[V]) finish() {
	w.loop.close(w) // close the span an aborted run left open
	w.metrics.Updates = w.updates
	w.metrics.FinalEta = w.eta
	switch w.cat {
	case ace.CategoryII:
		w.metrics.Tw = w.stale2
	case ace.CategoryIII:
		var tw float64
		for l := range w.sumC {
			if w.cumD[l] > 0 {
				tw += w.sumC[l] - w.sumCxD[l]/w.cumD[l]
			}
		}
		w.metrics.Tw = tw
	}
}

// coordinator is P₀ for the superstep disciplines: it holds flushed batches
// until every worker arrives, then releases them, counts supersteps, and
// implements the PowerSwitch heuristic.
type coordinator[V any] struct {
	s        *sim[V]
	expected int

	arrivals   int
	stepStart  float64
	sumArrive  float64
	held       []ace.Batch[V]
	supersteps int64
	waitHits   int
	firstVol   int // message volume of the first superstep
}

func (c *coordinator[V]) hold(from, to int, msgs []ace.Message[V], bytes int) {
	c.held = append(c.held, ace.Batch[V]{From: from, To: to, Msgs: msgs, Bytes: bytes})
}

func (c *coordinator[V]) arrive(w *simWorker[V], t float64) {
	c.arrivals++
	c.sumArrive += t
	if c.arrivals < c.expected {
		return
	}
	// Barrier reached at time t (the latest arrival). A global barrier on n
	// workers costs a logarithmic round of small control messages.
	t += c.s.cfg.Net.Model.Alpha * math.Log2(float64(c.expected)+1)
	c.supersteps++
	c.maybeSwitch(t)
	batches := c.held
	c.held = nil
	c.arrivals = 0
	c.sumArrive = 0

	// A worker participates in the next superstep when it receives messages
	// or still holds local active work (BSP-VC carries next-superstep
	// activations in H).
	localWork := false
	for _, w := range c.s.workers {
		if !w.active.Empty() {
			localWork = true
			break
		}
	}
	if len(batches) == 0 && !localWork {
		return // global fixpoint: nothing to release, the run drains
	}
	if !c.s.barrier {
		// Just switched to async: release batches as ordinary traffic and
		// restart workers with leftover local work.
		c.release(batches, t)
		for _, wkr := range c.s.workers {
			if !wkr.active.Empty() && wkr.idle {
				wkr.idle = false
				c.s.setStatus(wkr.id, false, t)
				wkr.scheduleResumeAt(t)
			}
		}
		return
	}
	// Release per target: deliveries, then one start signal per receiving
	// worker at its last arrival.
	lastAt := map[int]float64{}
	for _, b := range batches {
		at := c.s.ship(b.From, b.To, b.Msgs, b.Bytes, t)
		if at > lastAt[b.To] {
			lastAt[b.To] = at
		}
	}
	for to := range c.s.workers {
		wkr := c.s.workers[to]
		at, ok := lastAt[to]
		if !ok {
			if wkr.active.Empty() {
				// Nothing to do this superstep: arrive immediately.
				wkr.arrived = true
				c.arrivals++
				c.sumArrive += t
				continue
			}
			at = t
		}
		c.s.sched.At(at, prioResume, func() {
			if wkr.idle {
				wkr.idle = false
				c.s.setStatus(wkr.id, false, c.s.sched.Now())
			}
			wkr.arrived = false
			wkr.loop.start(wkr)
			wkr.resume(c.s.sched.Now())
		})
	}
	c.stepStart = t
}

func (c *coordinator[V]) release(batches []ace.Batch[V], t float64) {
	for _, b := range batches {
		c.s.ship(b.From, b.To, b.Msgs, b.Bytes, t)
	}
}

// maybeSwitch implements the PowerSwitch sync→async trigger (Xie et al.,
// simplified): switch when workers spend a large fraction of the superstep
// waiting at the barrier (skewed load) AND the superstep has gone sparse
// (message volume well below the initial supersteps'). Dense supersteps —
// including the constant-volume oscillation of synchronous Color — keep the
// predicted synchronous throughput high, so PowerSwitch stays synchronous
// and inherits the non-convergence, as the paper reports in Fig. 5.
func (c *coordinator[V]) maybeSwitch(t float64) {
	if c.s.mode != ModePowerSwitch || !c.s.barrier {
		return
	}
	vol := 0
	for _, b := range c.held {
		vol += len(b.Msgs)
	}
	if c.supersteps == 1 || vol > c.firstVol {
		c.firstVol = vol
	}
	if c.supersteps < 2 {
		return
	}
	stepLen := t - c.stepStart
	if stepLen <= 0 {
		return
	}
	avgArrive := c.sumArrive / float64(c.expected)
	waitFrac := (t - avgArrive) / stepLen
	sparse := vol < c.firstVol/3
	if waitFrac > c.s.cfg.SwitchThreshold && sparse {
		c.waitHits++
	} else {
		c.waitHits = 0
	}
	if c.waitHits >= 2 {
		c.s.barrier = false
		c.s.switched = true
	}
}
