package gap

import (
	"argan/internal/ace"
	"argan/internal/fault"
	"argan/internal/obs"
)

// prioCtrl orders fault-control events (crashes, detection, rollback,
// checkpoints) after ordinary deliveries and resumes at the same instant,
// so a checkpoint taken at time t sees every delivery stamped t.
const prioCtrl = 2

// simFT is the sim driver's fault-tolerance layer: it interprets the fault
// plan (crashes, slowdowns, link faults), takes periodic consistent cluster
// snapshots, and performs global rollback recovery. Because the simulator
// is single-threaded, a snapshot at a scheduler instant is trivially
// consistent; in-flight batches are captured through a registry of
// scheduled-but-undelivered deliveries and re-shipped on rollback with
// their remaining latency.
//
// Recovery is a *global* rollback: every worker — not just the crashed one
// — is restored to the last checkpoint. This is what makes recovery correct
// for non-idempotent accumulative programs (PageRank): replaying a single
// worker would re-send deltas the others already folded in.
type simFT[V any] struct {
	s   *sim[V]
	inj *fault.Injector

	// recovery is set when some crash has a restart: checkpoints are taken
	// and rollback is scheduled after detection.
	recovery bool
	every    float64 // checkpoint interval
	detect   float64 // crash → detection delay

	// epoch invalidates every scheduled closure on rollback; inc[i]
	// invalidates closures targeting worker i on its crash.
	epoch int
	inc   []int

	crashed  []bool
	nCrashed int

	// In-flight registry: one entry per shipped batch, marked on delivery.
	// Snapshots reference the undelivered entries.
	flights []*flight[V]

	snap *clusterSnap[V]
}

// flight is one shipped batch in the registry.
type flight[V any] struct {
	from, to  int
	batch     []ace.Message[V]
	bytes     int
	arrival   float64
	delivered bool
}

// workerSnap is one worker's share of a consistent snapshot. Only
// functional state is captured: metrics, staleness accounting and tuner
// state stay monotone across a rollback (work done in a doomed epoch was
// really done — it is exactly the cost a fault adds).
type workerSnap[V any] struct {
	stateSnap[V]
	outBytes        []int
	inBuf           []ace.Message[V]
	inFirst, inLast float64
	inBatches       int
	eta             float64
	idle            bool
}

// clusterSnap is a globally consistent snapshot at virtual time t.
type clusterSnap[V any] struct {
	t         float64
	workers   []workerSnap[V]
	inflight  []*flight[V]
	idleV     []bool
	idleCount int
}

func newSimFT[V any](s *sim[V], plan *fault.Plan) *simFT[V] {
	ft := &simFT[V]{
		s:       s,
		inj:     fault.NewInjector(plan),
		every:   s.cfg.FT.CheckpointEvery,
		detect:  s.cfg.FT.DetectDelay,
		inc:     make([]int, len(s.workers)),
		crashed: make([]bool, len(s.workers)),
	}
	for _, c := range plan.Crashes {
		if c.Restart >= 0 {
			ft.recovery = true
		}
	}
	return ft
}

// start takes the initial snapshot, schedules the time-triggered crashes
// and opens the checkpoint chain. Called before the event loop runs.
func (ft *simFT[V]) start() {
	if ft.recovery {
		ft.takeSnapshot(0, false)
		ft.scheduleCkpt(ft.every)
	}
	ft.scheduleTimeCrashes(0)
}

// --- nil-safe accessors used from sim.go hot paths -----------------------

func (s *sim[V]) epochNow() int {
	if s.ft == nil {
		return 0
	}
	return s.ft.epoch
}

func (s *sim[V]) dead(id int) bool {
	return s.ft != nil && s.ft.crashed[id]
}

func (s *sim[V]) incOf(id int) int {
	if s.ft == nil {
		return 0
	}
	return s.ft.inc[id]
}

// slowAt returns the transient-slowdown factor for worker id at time t.
func (s *sim[V]) slowAt(id int, t float64) float64 {
	if s.ft == nil {
		return 1
	}
	return s.ft.inj.SlowFactor(id, t)
}

// --- crash / detect / rollback -------------------------------------------

// scheduleTimeCrashes schedules every not-yet-fired time-triggered crash as
// a control event in the current epoch; re-invoked after each rollback
// because the epoch bump invalidated the previous events.
func (ft *simFT[V]) scheduleTimeCrashes(from float64) {
	plan := ft.inj.Plan()
	e := ft.epoch
	for i, c := range plan.Crashes {
		if c.AfterUpdates > 0 {
			continue // polled in runUpdate
		}
		i, c := i, c
		at := c.At
		if at < from {
			at = from
		}
		ft.s.sched.At(at, prioCtrl, func() {
			if ft.epoch != e {
				return
			}
			if cc, ok := ft.inj.Take(i); ok {
				ft.crash(cc, ft.s.sched.Now())
			}
		})
	}
}

// crash kills worker c.Worker at time t: its volatile state is lost, every
// pending delivery/resume targeting it becomes a no-op, and — when the plan
// restarts it and recovery is on — detection and rollback are scheduled.
func (ft *simFT[V]) crash(c fault.Crash, t float64) {
	if ft.crashed[c.Worker] {
		return
	}
	w := ft.s.workers[c.Worker]
	ft.crashed[c.Worker] = true
	ft.nCrashed++
	ft.inc[c.Worker]++
	ft.s.crashes++
	w.traceRoundEnd()
	if w.tr != nil {
		w.tr.Mark(w.id, obs.MarkCrash, t)
	}
	if t > ft.s.end {
		ft.s.end = t
	}
	if !ft.recovery || c.Restart < 0 {
		return
	}
	e := ft.epoch
	td := t + ft.detect
	ft.s.sched.At(td, prioCtrl, func() {
		if ft.epoch != e {
			return
		}
		if w.tr != nil {
			w.tr.Mark(w.id, obs.MarkDetect, td)
			w.tr.SpanBegin(w.id, obs.PhaseRecovery, td)
		}
		tr := td + c.Restart
		ft.s.sched.At(tr, prioCtrl, func() {
			if ft.epoch != e {
				return
			}
			ft.rollback(tr)
			if w.tr != nil {
				w.tr.SpanEnd(w.id, obs.PhaseRecovery, tr)
			}
		})
	})
}

// checkDue polls the injector for an update-count (or overdue time) crash
// on worker w; called from runUpdate. Reports whether the worker died.
func (ft *simFT[V]) checkDue(w *simWorker[V]) bool {
	if ft.crashed[w.id] {
		return true
	}
	c, ok := ft.inj.TakeDue(w.id, w.metrics.Updates, w.now)
	if !ok {
		return false
	}
	ft.crash(c, w.now)
	return true
}

// --- checkpoints ---------------------------------------------------------

// scheduleCkpt arms the next periodic checkpoint. The chain stops when the
// event queue has drained (the run is over) and is restarted by rollback
// (whose epoch bump invalidated any pending link of the old chain). The
// interval self-clocks to at least twice the measured snapshot cost:
// checkpoints bill every worker a persistence penalty, and an interval
// smaller than that penalty would freeze the cluster — each worker's clock
// pushed past the next checkpoint before it can run a single update.
func (ft *simFT[V]) scheduleCkpt(at float64) {
	e := ft.epoch
	ft.s.sched.At(at, prioCtrl, func() {
		if ft.epoch != e {
			return
		}
		if ft.s.sched.Pending() == 0 {
			return // queue drained: the run ends after this event
		}
		next := ft.every
		if ft.nCrashed == 0 {
			cost := ft.takeSnapshot(ft.s.sched.Now(), true)
			if floor := 2 * cost; floor > next {
				next = floor
			}
		}
		ft.scheduleCkpt(ft.s.sched.Now() + next)
	})
}

// takeSnapshot freezes the world at time t and returns the largest
// per-worker cost billed. charge bills each worker the checkpoint cost
// (initial snapshot at t=0 is free: nothing to persist yet beyond loading
// state).
func (ft *simFT[V]) takeSnapshot(t float64, charge bool) float64 {
	s := ft.s
	snap := &clusterSnap[V]{
		t:         t,
		workers:   make([]workerSnap[V], len(s.workers)),
		idleV:     append([]bool(nil), s.idleV...),
		idleCount: s.idleCount,
	}
	for _, fl := range ft.flights {
		if !fl.delivered {
			snap.inflight = append(snap.inflight, fl)
		}
	}
	maxCost := 0.0
	for i, w := range s.workers {
		ws := &snap.workers[i]
		ws.stateSnap = w.capture()
		ws.outBytes = append([]int(nil), w.outBytes...)
		ws.inBuf = append([]ace.Message[V](nil), w.inBuf...)
		ws.inFirst, ws.inLast, ws.inBatches = w.inFirst, w.inLast, w.inBatches
		bytes := 0
		for _, b := range w.outBytes {
			bytes += b
		}
		ws.eta = w.eta
		ws.idle = w.idle
		if charge {
			// Persisting the fragment state costs one batch write plus the
			// serialized volume of Ψ and the pending buffers.
			for l := range w.psi {
				bytes += w.prog.Size(w.psi[l])
			}
			bytes += 4 * len(ws.active)
			c := s.cfg.Net.Model.BatchCPU + s.cfg.Net.Model.Beta*float64(bytes)
			w.penalty += c
			if c > maxCost {
				maxCost = c
			}
		}
		if w.tr != nil {
			w.tr.Mark(w.id, obs.MarkCkpt, t)
		}
	}
	ft.snap = snap
	if charge {
		s.checkpoints++
	}
	// Entries older than this snapshot can never be re-shipped again.
	ft.compactFlights()
	return maxCost
}

// compactFlights drops delivered registry entries.
func (ft *simFT[V]) compactFlights() {
	live := ft.flights[:0]
	for _, fl := range ft.flights {
		if !fl.delivered {
			live = append(live, fl)
		}
	}
	ft.flights = live
}

// --- rollback ------------------------------------------------------------

// rollback restores the whole cluster from the last snapshot at time t:
// every worker's functional state is rewound, in-flight batches captured by
// the snapshot are re-shipped with their remaining latency, dead workers
// are revived, and the checkpoint chain restarts. The virtual clock is not
// rewound — the gap between snapshot time and t is precisely the response
// time the fault costs.
func (ft *simFT[V]) rollback(t float64) {
	s := ft.s
	snap := ft.snap
	ft.epoch++
	for i := range ft.inc {
		ft.inc[i]++
	}
	// Restore workers.
	for i, w := range s.workers {
		ws := &snap.workers[i]
		w.restore(&ws.stateSnap)
		copy(w.outBytes, ws.outBytes)
		w.inBuf = append(w.inBuf[:0], ws.inBuf...)
		w.inFirst, w.inLast, w.inBatches = ws.inFirst, ws.inLast, ws.inBatches
		w.touched = w.touched[:0]
		for j := range w.touchfl {
			w.touchfl[j] = false
			if j != w.id && len(w.out[j].msgs) > 0 {
				w.touchfl[j] = true
				w.touched = append(w.touched, j)
			}
		}
		w.eta = ws.eta
		w.idle = ws.idle
		w.resumeScheduled = false
		w.roundOpen = false
		// Restore cost: reloading the persisted state.
		bytes := 0
		for l := range w.psi {
			bytes += w.prog.Size(w.psi[l])
		}
		w.penalty += s.cfg.Net.Model.BatchCPU + s.cfg.Net.Model.Beta*float64(bytes)
		if ft.crashed[i] {
			ft.crashed[i] = false
			if w.tr != nil {
				w.tr.Mark(w.id, obs.MarkRestart, t)
			}
		}
	}
	ft.nCrashed = 0
	copy(s.idleV, snap.idleV)
	s.idleCount = snap.idleCount
	s.statusVer++ // force a full R1 status rescan everywhere
	s.recoveries++

	// Re-ship the in-flight batches with their remaining latency; FIFO
	// relative order within a link is preserved because snapshot order is
	// ship order and the per-link clamp re-applies.
	ft.flights = ft.flights[:0]
	for k := range s.lastArrival {
		delete(s.lastArrival, k)
	}
	for _, fl := range snap.inflight {
		at := t + (fl.arrival - snap.t)
		ft.reship(fl.from, fl.to, fl.batch, fl.bytes, at)
	}
	// Resume. Idle workers wake on delivery as usual.
	for _, w := range s.workers {
		if !w.idle {
			w.scheduleResumeAt(t)
		}
	}
	ft.scheduleTimeCrashes(t)
	ft.scheduleCkpt(t + ft.every)
}

// reship schedules a recovered in-flight batch, registering it again so a
// later snapshot can capture it.
func (ft *simFT[V]) reship(from, to int, batch []ace.Message[V], bytes int, at float64) {
	s := ft.s
	if prev, ok := s.lastArrival[[2]int{from, to}]; ok && at < prev {
		at = prev
	}
	s.lastArrival[[2]int{from, to}] = at
	fl := &flight[V]{from: from, to: to, batch: batch, bytes: bytes, arrival: at}
	ft.flights = append(ft.flights, fl)
	e, inc := ft.epoch, ft.inc[to]
	target := s.workers[to]
	s.sched.At(at, prioDeliver, func() {
		if ft.epoch != e || ft.inc[to] != inc {
			return
		}
		fl.delivered = true
		target.deliver(batch, at)
	})
}

// --- link faults ---------------------------------------------------------

// shipFaulty wraps sim.ship with per-batch link faults and the in-flight
// registry. Drop is lossless: the batch is retransmitted after the retry
// delay (reliable-transport recovery). Dup delivers the batch twice.
// Reorder adds delay without the per-link FIFO clamp, letting the batch
// overtake or be overtaken.
func (ft *simFT[V]) shipFaulty(from, to int, batch []ace.Message[V], bytes int, sentAt float64) float64 {
	s := ft.s
	fate := ft.inj.BatchFate(from, to)
	lat := s.cfg.Net.Latency(from, to, bytes)
	at := sentAt + lat
	switch {
	case fate.Drop:
		at += ft.inj.RetryDelay(2 * s.cfg.Net.Model.Alpha)
	case fate.Reorder:
		// Extra delay, FIFO clamp skipped below.
		at += 2 * s.cfg.Net.Model.Alpha
	}
	if !fate.Reorder {
		if prev, ok := s.lastArrival[[2]int{from, to}]; ok && at < prev {
			at = prev
		}
		s.lastArrival[[2]int{from, to}] = at
	}
	deliverAt := func(at float64) {
		fl := &flight[V]{from: from, to: to, batch: batch, bytes: bytes, arrival: at}
		if ft.recovery {
			ft.flights = append(ft.flights, fl)
		}
		e, inc := ft.epoch, ft.inc[to]
		target := s.workers[to]
		s.sched.At(at, prioDeliver, func() {
			if ft.epoch != e || ft.inc[to] != inc {
				return
			}
			fl.delivered = true
			target.deliver(batch, at)
		})
	}
	deliverAt(at)
	if fate.Dup {
		deliverAt(at + s.cfg.Net.Model.Alpha)
	}
	return at
}
