package gap

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"argan/internal/ace"
	"argan/internal/fault"
	"argan/internal/graph"
	"argan/internal/mem"
	"argan/internal/obs"
)

// LiveConfig parameterizes the goroutine-based driver. The live driver
// executes the same ACE programs as the simulator under real concurrency:
// one goroutine per worker, channels as the interconnect, and a coordinator
// performing distributed termination detection from idle states and
// sent/received message counts.
type LiveConfig struct {
	// Mode must be an asynchronous discipline (ModeGAP, ModeAPGC or
	// ModeAPVC); the barrier disciplines are only meaningful under the
	// virtual-time driver.
	Mode Mode
	// CheckEvery is the number of update functions between indicator
	// checks (ξ⁺/ξ⁻ evaluation); it is the live analogue of the
	// granularity bound η. Default 256; ModeAPVC forces 1.
	CheckEvery int
	// Tracer receives the run's event stream stamped with wall-clock
	// microseconds since the run start. nil disables tracing (one nil
	// check per event site). When set, worker goroutines also carry
	// per-phase runtime/pprof labels so CPU profiles attribute samples to
	// GAP phases; the worker label alone is applied unconditionally.
	Tracer obs.Tracer
	// Faults injects worker crashes, transient slowdowns and per-link
	// batch faults into the run; nil is fault-free. Plan times (Crash.At,
	// Slowdown fields, Retry) are wall-clock milliseconds under the live
	// driver. Crashed workers are real goroutine exits; when the plan
	// schedules a restart the monitor detects the death by heartbeat
	// timeout, restores that worker from its own last checkpoint and
	// replays the messages it lost while the survivors keep computing
	// (liverecover.go). That needs a program whose declared ace.Algebra is
	// Recoverable; RunLive rejects the combination of a restartable crash
	// and a program without one up front, with ErrNoRecoveryAlgebra.
	Faults *fault.Plan
	// NoRecover disables checkpointing and recovery even when the plan's
	// crashes carry restart delays: a crashed worker then stays dead and
	// the watchdog eventually fails the run with a descriptive error.
	NoRecover bool
	// Recovery selects nothing: localized recovery is the only strategy, and
	// the field accepts only "" and RecoveryLocal. It is kept solely because
	// benchmark/replay.go sets it and benchmark/ is closed to the change that
	// removed the choice; delete it when benchmark/ next opens.
	Recovery string
	// CheckpointEvery is the interval at which each worker takes its own
	// uncoordinated checkpoint when recovery is enabled (the monitor asks
	// one worker per CheckpointEvery/n slice). Default 50ms.
	CheckpointEvery time.Duration
	// HeartbeatTimeout declares a worker dead when its heartbeat is older
	// than this. Default 250ms. Workers beat at every indicator check,
	// idle-wait tick and send retry, so only an exited goroutine (or a
	// pathologically long single Update call) goes stale.
	HeartbeatTimeout time.Duration
	// Watchdog fails the run with a descriptive error when no worker
	// reports, updates or sends for this long, so termination detection
	// can never hang silently (e.g. a permanently dead worker holding
	// unacknowledged messages). Default 30s; < 0 disables.
	Watchdog time.Duration
	// Mem attaches a memory governor to the run: the recovery logs, local
	// checkpoints, batch pool and reorder buffers register with it, and the
	// driver degrades through the governor's ladder (spill, forced
	// checkpoints, sender backpressure) instead of growing without bound.
	// Fragments are never governed: they are immutable and may be shared
	// with concurrent runs. nil (the default) leaves the run ungoverned; a
	// governor with budget <= 0 measures only. One governor serves one run —
	// do not reuse across runs.
	Mem *mem.Governor
	// LogBytesSoftCap bounds the bytes of sender-side log entries retained
	// toward any single receiver: past it the monitor forces the slowest
	// receiver to checkpoint out of turn so its peers can prune. 0 resolves
	// to a quarter of the governor's budget (when one is attached and
	// bounded); < 0 disables the cap.
	LogBytesSoftCap int64
	// Health, when non-nil, receives per-tick control-plane health
	// snapshots (worker liveness, watchdog progress age, governor stage)
	// for the telemetry plane's /healthz and /readyz endpoints. One tracker
	// may span many runs — arganrun reuses it across soak iterations.
	Health *HealthTracker
	// Cancel, when non-nil, aborts the run as soon as it is closed: the
	// monitor fails the run with ErrCanceled, every worker goroutine exits
	// at its next safe point, and RunLive returns. This is how a job
	// service propagates client cancellations and deadlines into the
	// driver's control plane.
	Cancel <-chan struct{}
	// NoEdgeSpill selects nothing: fragments are immutable and never paged,
	// so there is nothing left to keep out of the governed set. It is kept
	// solely because benchmark/replay.go sets it and benchmark/ is closed to
	// the change that removed edge spilling; delete it when benchmark/ next
	// opens.
	NoEdgeSpill bool
}

// ErrCanceled is the failure RunLive returns when LiveConfig.Cancel closes
// before the run converges. Test with errors.Is: deadline and cancellation
// wrappers preserve it.
var ErrCanceled = errors.New("gap: run canceled")

// ErrNoRecoveryAlgebra is the failure RunLive and RunSim return, before the
// run starts, when the fault plan schedules a crash with a restart over a
// program whose declared ace.Algebra is not Recoverable: a survivor that
// folded in a rolled-back sender's messages could neither un-apply them nor
// tolerate their replay. Fault-free runs, link-fault-only runs and NoRecover
// runs of such a program are unaffected.
var ErrNoRecoveryAlgebra = errors.New("gap: crash recovery needs a program whose aggregate is a semilattice join or has an inverse (ace.Algebra)")

// ErrWorkerPanic is the failure RunLive returns when an Update function (or
// other worker-goroutine code) panics. The panic is contained to the run —
// the process survives — so one tenant's broken program cannot take down its
// neighbors. errors.Is-able; the message carries the worker and panic value.
var ErrWorkerPanic = errors.New("gap: worker panicked")

func (c LiveConfig) withDefaults() (LiveConfig, error) {
	switch c.Mode {
	case ModeGAP, ModeAPGC, ModeAPVC:
	default:
		return c, fmt.Errorf("gap: live driver supports GAP/AP modes, not %v", c.Mode)
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 256
	}
	if c.Mode == ModeAPVC {
		c.CheckEvery = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 250 * time.Millisecond
	}
	if c.Watchdog == 0 {
		c.Watchdog = 30 * time.Second
	}
	if c.Recovery != "" && c.Recovery != RecoveryLocal {
		return c, fmt.Errorf("gap: unknown recovery strategy %q (localized recovery, %q, is the only one)",
			c.Recovery, RecoveryLocal)
	}
	if c.LogBytesSoftCap == 0 && c.Mem.Budget() > 0 {
		c.LogBytesSoftCap = c.Mem.Budget() / 4
	}
	if c.LogBytesSoftCap < 0 {
		c.LogBytesSoftCap = 0
	}
	return c, nil
}

// LiveMetrics summarizes a live run.
type LiveMetrics struct {
	WallTime time.Duration
	// Updates is exact: every worker publishes its local count at each
	// indicator check and at the end of each LocalEval round.
	Updates  int64
	MsgsSent int64
	Batches  int64
	Rounds   int64

	// Retransmits counts dropped batches redelivered by the async
	// retransmit path (zero when the plan injects no drops).
	Retransmits int64

	// Fault-tolerance accounting (zero on fault-free runs).
	Crashes     int64
	Recoveries  int64
	Checkpoints int64

	// Replayed counts messages re-delivered from the sender-side logs to
	// restored workers.
	Replayed int64
	// RecoveryMS is the total wall-clock spent between acting on a detected
	// failure and the worker respawn, summed over recoveries: each victim is
	// timed from the tick the monitor stages its death, while the survivors
	// keep computing. It includes the plan's restart delay.
	RecoveryMS float64

	// Memory-governance accounting (zero when no governor is attached).
	MemPeakBytes     int64 // governor high-water mark of accounted + injected bytes
	SpilledBytes     int64 // cumulative bytes written to the spill tier
	ReplayedFromDisk int64 // replayed messages read back from spilled log entries
	ForcedCkpts      int64 // checkpoints forced by the retention cap / pressure ladder
	Throttles        int64 // sender flushes delayed by backpressure
	EtaReseeds       int64 // per-worker granularity reseeds after recovery
	LogPeakBytes     int64 // high-water retained bytes across the message log
}

// liveCoord detects global quiescence: every worker idle and every sent
// message received. It also carries the run's failure slot (watchdog or
// internal errors) and a progress counter the watchdog samples.
type liveCoord struct {
	mu       sync.Mutex
	idle     []bool
	nIdle    int
	sent     int64
	recv     int64
	done     chan struct{}
	closed   bool
	err      error
	progress int64 // bumped on every report; a watchdog progress signal

	// Runs that can recover a crash count transport events in crash-safe
	// atomics bumped at ship/drain time instead of worker-local deltas: a
	// crashed goroutine's unreported deltas would unbalance the ledger
	// forever. Ships are counted before the envelope becomes
	// visible, so asent >= arecv whenever a message is in transit and
	// quiescence cannot close early.
	atomicCnt    bool
	asent, arecv atomic.Int64
}

func newLiveCoord(n int) *liveCoord {
	c := &liveCoord{idle: make([]bool, n), done: make(chan struct{})}
	if n == 0 {
		// Zero workers are vacuously quiescent.
		c.closed = true
		close(c.done)
	}
	return c
}

func (c *liveCoord) report(id int, idle bool, sentDelta, recvDelta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.progress++
	if c.idle[id] != idle {
		c.idle[id] = idle
		if idle {
			c.nIdle++
		} else {
			c.nIdle--
		}
	}
	c.sent += sentDelta
	c.recv += recvDelta
	sent, recv := c.sent, c.recv
	if c.atomicCnt {
		sent, recv = c.asent.Load(), c.arecv.Load()
	}
	if !c.closed && c.nIdle == len(c.idle) && sent == recv {
		c.closed = true
		close(c.done)
	}
}

// claimBusy marks a worker busy from outside its goroutine (the monitor
// claims a dead worker before restoring it, so quiescence cannot close over
// half-restored state). Returns false when the run already ended — the
// pre-crash converged state is then final and recovery must not touch it.
func (c *liveCoord) claimBusy(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if c.idle[id] {
		c.idle[id] = false
		c.nIdle--
	}
	c.progress++
	return true
}

// fail aborts the run with err; the first failure wins and termination
// detection is bypassed.
func (c *liveCoord) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.err = err
	c.closed = true
	close(c.done)
}

func (c *liveCoord) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *liveCoord) status() (idle, total int, sent, recv, progress int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sent, recv = c.sent, c.recv
	if c.atomicCnt {
		sent, recv = c.asent.Load(), c.arecv.Load()
	}
	return c.nIdle, len(c.idle), sent, recv, c.progress
}

// liveDriver holds one RunLive invocation's shared state.
type liveDriver[V any] struct {
	cfg    LiveConfig
	n      int
	chans  []chan envelope[V]
	coord  *liveCoord
	ctrl   *liveCtrl
	states []*workerState[V]
	start  time.Time
	wg     sync.WaitGroup

	inj        *fault.Injector
	hasCrashes bool
	hasLink    bool
	hasSlow    bool
	recover    bool
	beatEvery  time.Duration
	retrySleep time.Duration

	pool *batchPool[V]

	// Localized-recovery plumbing (recover.go, liverecover.go): when
	// recover (above) is set, rec logs sends, takes uncoordinated
	// checkpoints and restores crashed workers. diag maintains the
	// per-worker transport counters the watchdog prints.
	diag       bool
	rec        *localRecovery[V]
	noticeMu   sync.Mutex
	noticeQ    [][]rollNotice
	noticeFlag []atomic.Bool
	acksOut    atomic.Int64
	ckptReq    []atomic.Bool
	ckptNext   int             // monitor-only round-robin pointer
	recState   []uint8         // monitor-only: 0 none, 1 staged
	detectAt   []time.Duration // monitor-only: failure detection time
	wsent      []atomic.Int64
	wrecv      []atomic.Int64
	wacked     []atomic.Int64
	replayed   atomic.Int64
	recoveryNS atomic.Int64

	// Memory governance (LiveConfig.Mem; memTick climbs the ladder). gov is
	// nil on ungoverned runs; every accounting site is nil-safe.
	gov          *mem.Governor
	logCap       int64
	logPressure  atomic.Bool  // some receiver's retained log exceeds logCap
	vSize        int64        // encoded bytes of one V (estimate when non-fixed)
	wireEst      int64        // accounted bytes per logged/buffered message
	snapSp       *mem.Spiller // checkpoint pages (nil = ckpt spilling off)
	ckptAcct     *mem.Account
	ckptBytes    []int64        // resident cost of each worker's current snapshot
	ckEvery      []atomic.Int32 // per-worker effective CheckEvery (η reseed)
	forcedCkpts  atomic.Int64
	throttles    atomic.Int64
	etaReseeds   atomic.Int64
	replayedDisk atomic.Int64

	updates, msgsSent, batches, rounds atomic.Int64
	crashes, recoveries, checkpoints   atomic.Int64
	retransmits                        atomic.Int64
}

const (
	// liveMailboxCap is the per-worker mailbox capacity, in batches: deep
	// enough that a sender rarely meets a full mailbox, which makes it drain
	// its own and back off (see send).
	liveMailboxCap  = 1024
	liveSendBackoff = 50 * time.Microsecond
	liveSendBackMax = 2 * time.Millisecond
	// liveThrottleSleep is the per-flush backpressure pause applied to
	// senders at StageThrottle and beyond.
	liveThrottleSleep = 200 * time.Microsecond
)

// RunLive executes the program over the fragments with one goroutine per
// worker, returning the global result. Results are identical to the
// sequential fixpoint for programs with order-insensitive (monotone)
// aggregation. When cfg.Faults schedules crashes with restarts, the run
// survives them by restoring each crashed worker from its own checkpoint and
// replaying its lost messages (liverecover.go).
func RunLive[V any](frags []*graph.Fragment, factory ace.Factory[V], q ace.Query, cfg LiveConfig) (*Result[V], *LiveMetrics, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if len(frags) == 0 {
		return nil, nil, errNoFragments
	}
	n := len(frags)
	d := &liveDriver[V]{cfg: cfg, n: n}
	d.hasCrashes = cfg.Faults.HasCrashes()
	d.hasLink = cfg.Faults.HasLinkFaults()
	d.hasSlow = cfg.Faults != nil && len(cfg.Faults.Slowdowns) > 0
	if !cfg.Faults.Empty() {
		d.inj = fault.NewInjector(cfg.Faults)
		d.retrySleep = time.Duration(d.inj.RetryDelay(1) * float64(time.Millisecond))
	}
	seqOn, recovers := exactlyOnce(cfg.Faults, cfg.NoRecover)
	d.recover = recovers
	// Recovery needs a program whose survivors the protocol can repair.
	alg := ace.AlgebraOf(factory())
	if d.recover && !alg.Recoverable() {
		return nil, nil, ErrNoRecoveryAlgebra
	}
	d.diag = d.hasCrashes || seqOn

	d.beatEvery = 10 * time.Millisecond
	if d.hasCrashes && cfg.HeartbeatTimeout/5 < d.beatEvery {
		d.beatEvery = cfg.HeartbeatTimeout / 5
	}
	if d.beatEvery < 200*time.Microsecond {
		d.beatEvery = 200 * time.Microsecond
	}

	d.chans = make([]chan envelope[V], n)
	for i := range d.chans {
		d.chans[i] = make(chan envelope[V], liveMailboxCap)
	}
	d.coord = newLiveCoord(n)
	d.ctrl = newLiveCtrl(n)
	d.pool = &batchPool[V]{}
	d.states = make([]*workerState[V], n)
	for i := range d.states {
		d.states[i] = newWorkerState(i, frags[i], factory(), q, d.pool)
	}

	if seqOn {
		d.rec = attachRecovery(d.states, alg, d.recover)
	}
	if d.diag {
		d.wsent = make([]atomic.Int64, n)
		d.wrecv = make([]atomic.Int64, n)
		d.wacked = make([]atomic.Int64, n)
	}
	if d.recover {
		d.coord.atomicCnt = true
		d.noticeQ = make([][]rollNotice, n)
		d.noticeFlag = make([]atomic.Bool, n)
		d.ckptReq = make([]atomic.Bool, n)
		d.recState = make([]uint8, n)
		d.detectAt = make([]time.Duration, n)
	}

	// Memory governance: size the wire estimates and register the governed
	// components. Accounting sites are nil-safe, so the ungoverned default
	// path pays one nil check per site.
	d.gov = cfg.Mem
	d.logCap = cfg.LogBytesSoftCap
	wire := msgWireSize[V]()
	d.wireEst = msgWireEstimate
	if wire > 0 {
		d.wireEst = int64(wire)
	}
	d.vSize = 16
	if v := binary.Size(*new(V)); v > 0 {
		d.vSize = int64(v)
	}
	if d.gov != nil {
		d.pool.acct = d.gov.Account("pool")
		d.pool.wire = d.wireEst
		if seqOn {
			for i := range d.states {
				d.states[i].rs.acct = d.gov.Account("robuf")
				d.states[i].rs.wire = d.wireEst
			}
		}
	}
	if d.recover {
		d.ckEvery = make([]atomic.Int32, n)
		for i := range d.ckEvery {
			d.ckEvery[i].Store(int32(cfg.CheckEvery))
		}
		if d.gov != nil || d.logCap > 0 {
			d.rec.log.configure(d.gov, wire, d.logCap)
		}
		if d.gov != nil {
			d.ckptAcct = d.gov.Account("ckpt")
			d.ckptBytes = make([]int64, n)
			for i := range d.rec.snaps {
				c := snapResidentBytes(&d.rec.snaps[i].base, d.vSize)
				d.ckptAcct.Add(c)
				d.ckptBytes[i] = c
			}
			if d.gov.Budget() > 0 && wire > 0 {
				if sp, err := d.gov.NewSpiller("ckpt"); err == nil {
					d.snapSp = sp
				}
			}
		}
	}

	cfg.Health.runStarted(n, cfg.Watchdog)
	d.start = nowFn()
	d.wg.Add(1)
	go d.monitor()
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.worker(d.states[i])
	}
	d.wg.Wait()
	wall := sinceFn(d.start)
	if err := d.coord.failure(); err != nil {
		cfg.Health.runEnded(err)
		return nil, nil, err
	}
	cfg.Health.runEnded(nil)

	res := &Result[V]{
		Values: make([]V, frags[0].GlobalVertices()),
		Psi:    make([]V, frags[0].GlobalVertices()),
	}
	for _, st := range d.states {
		st.outputs(res.Values)
		st.finalPsi(res.Psi)
	}
	res.Metrics.Converged = true
	res.Metrics.Mode = cfg.Mode
	res.Metrics.Crashes = d.crashes.Load()
	res.Metrics.Recoveries = d.recoveries.Load()
	res.Metrics.Checkpoints = d.checkpoints.Load()
	m := &LiveMetrics{
		WallTime:    wall,
		Updates:     d.updates.Load(),
		MsgsSent:    d.msgsSent.Load(),
		Batches:     d.batches.Load(),
		Rounds:      d.rounds.Load(),
		Retransmits: d.retransmits.Load(),
		Crashes:     d.crashes.Load(),
		Recoveries:  d.recoveries.Load(),
		Checkpoints: d.checkpoints.Load(),
		Replayed:    d.replayed.Load(),
		RecoveryMS:  float64(d.recoveryNS.Load()) / 1e6,

		MemPeakBytes:     d.gov.Peak(),
		SpilledBytes:     d.gov.SpillWritten(),
		ReplayedFromDisk: d.replayedDisk.Load(),
		ForcedCkpts:      d.forcedCkpts.Load(),
		Throttles:        d.throttles.Load(),
		EtaReseeds:       d.etaReseeds.Load(),
	}
	if d.rec != nil {
		_, _, peak := d.rec.log.bytes()
		m.LogPeakBytes = peak
	}
	return res, m, nil
}

// worker runs one incarnation of worker st.id. A restarted worker is a fresh
// call over the restored state.
func (d *liveDriver[V]) worker(st *workerState[V]) {
	defer d.wg.Done()
	// Panic containment: an Update function that panics fails the run (first
	// failure wins) instead of killing the process, so a service can
	// quarantine the one job whose program is broken while its neighbors
	// keep running. Registered after wg.Done, so the waitgroup still drains.
	defer func() {
		if r := recover(); r != nil {
			d.coord.fail(fmt.Errorf("%w: worker %d: %v\n%s", ErrWorkerPanic, st.id, r, debug.Stack()))
		}
	}()
	w := &liveWorker[V]{
		d: d, st: st, id: st.id, tr: d.cfg.Tracer, wid: strconv.Itoa(st.id),
		throttle: (d.gov != nil && d.gov.Budget() > 0) || d.logCap > 0,
		pub:      st.updates,
	}
	w.loop = aceLoop[V]{st: st, tr: w.tr, traced: st.updates}
	if d.hasLink {
		w.hold = make([][]ace.Message[V], d.n)
	}
	// CPU-profile attribution: the goroutine always carries its worker id;
	// phase labels are refreshed only when tracing is on (SetGoroutineLabels
	// allocates, and phase flips are hot).
	w.label("local_eval")
	defer pprof.SetGoroutineLabels(context.Background())
	w.beat()
	if w.gate() {
		w.loop.start(w)
		w.loop.run(w)
	}
}

// liveWorker is one incarnation of a live worker goroutine: the driver, the
// worker's ACE state and round loop, and the transport bookkeeping that
// lives as long as the goroutine does.
type liveWorker[V any] struct {
	d    *liveDriver[V]
	st   *workerState[V]
	loop aceLoop[V]
	id   int
	tr   obs.Tracer
	wid  string // runtime/pprof worker label

	// throttle: the run is governed or log-capped, so every flush first
	// checks for memory or log-retention pressure.
	throttle bool

	// pub is the part of st.updates already added to the run's count.
	pub int64
	// localSent/localRecv reset at every report; they feed the termination
	// detector.
	localSent, localRecv int64
	// hold keeps the batches a reorder fault holds past FIFO order (nil
	// without link faults).
	hold [][]ace.Message[V]
}

// publish adds the updates since the last publish to the run's count. It
// runs once per check and once per round, not per update: every worker
// writes d.updates' cache line, and the watchdog and health plane read it
// mid-run.
func (w *liveWorker[V]) publish() {
	if n := w.st.updates - w.pub; n > 0 {
		w.d.updates.Add(n)
		w.pub = w.st.updates
	}
}

func (w *liveWorker[V]) clock() float64 { return float64(sinceFn(w.d.start)) / 1e3 }

// gate is the safe point before each round and each indicator check:
// heartbeat, end-of-run and crash checks, recovery.
func (w *liveWorker[V]) gate() bool {
	w.beat()
	w.publish()
	if w.ended() || w.crashed() {
		return false
	}
	w.serviceLocal()
	return true
}

// xi is the fixed CheckEvery rule, after any injected slowdown: pick up
// fresh messages, or, when none waited, push the accumulated ones (never
// under AP-GC, which forwards only at round end).
func (w *liveWorker[V]) xi() xi {
	d := w.d
	if d.hasSlow {
		if f := d.inj.SlowFactor(w.id, w.nowMS()); f > 1 {
			time.Sleep(time.Duration((f - 1) * float64(100*time.Microsecond)))
		}
	}
	if w.drain() == 0 && d.cfg.Mode != ModeAPGC {
		return xiForward
	}
	return xiKeep
}

// hin starts a round: its check granularity (recovery may have reseeded
// this worker's η toward finer checks, see runLocalRecovery), then h_in.
func (w *liveWorker[V]) hin() {
	d := w.d
	w.loop.grain = d.cfg.CheckEvery
	if d.ckEvery != nil {
		if v := int(d.ckEvery[w.id].Load()); v > 0 {
			w.loop.grain = v
		}
	}
	if w.tr != nil {
		w.tr.Sample(w.id, obs.GaugeMailbox, w.clock(), float64(len(d.chans[w.id])))
	}
	w.drain()
	d.rounds.Add(1)
}

// next parks the worker: a live round ends idle, and input that arrives
// starts the next one. The recovery-reseeded check granularity snaps back
// to the configured bound here — the replayed backlog it was finer for has
// drained.
func (w *liveWorker[V]) next() bool {
	d := w.d
	w.loop.mark(w, obs.MarkIdle)
	if d.ckEvery != nil {
		d.ckEvery[w.id].Store(int32(d.cfg.CheckEvery))
	}
	w.publish()
	d.coord.report(w.id, true, w.localSent, w.localRecv)
	w.localSent, w.localRecv = 0, 0
	return !w.idleWait() && w.gate()
}

func (w *liveWorker[V]) nowMS() float64 { return float64(sinceFn(w.d.start)) / 1e6 }
func (w *liveWorker[V]) beat()          { w.d.ctrl.beats[w.id].Store(int64(sinceFn(w.d.start))) }

// label sets the goroutine's runtime/pprof worker and phase labels.
func (w *liveWorker[V]) label(phase string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("worker", w.wid, "phase", phase)))
}

// ended reports whether the run is over: a closed run (failure,
// cancellation, or quiescence declared while we computed) ends the
// incarnation at the next check, so cancellation latency is one CheckEvery
// interval, not the rest of the active set.
func (w *liveWorker[V]) ended() bool {
	select {
	case <-w.d.coord.done:
		return true
	default:
		return false
	}
}

// crashed fires any due crash from the plan: the goroutine stops beating and
// exits, exactly like a lost process. It reports nothing to the coordinator
// — detection is genuinely heartbeat-based.
func (w *liveWorker[V]) crashed() bool {
	d := w.d
	if !d.hasCrashes {
		return false
	}
	c, ok := w.st.crashDue(d.inj, w.nowMS())
	if !ok {
		return false
	}
	d.crashes.Add(1)
	if w.tr != nil {
		w.tr.Mark(w.id, obs.MarkCrash, w.clock())
	}
	if c.Panic {
		// Rogue-program fault: blow up on the worker goroutine instead of
		// exiting cleanly. The containment guard converts it into a run
		// failure (ErrWorkerPanic) — the fault plan's witness that a
		// panicking tenant is quarantined, not fatal to the process.
		panic(fmt.Sprintf("fault: injected panic on worker %d", w.id))
	}
	d.ctrl.noteCrash(w.id, c.Restart)
	return true
}

// ingest is h_in for one envelope from the transport. Its batch is owned by
// this worker once received: after h_in it is recycled into the driver's
// pool (the senders' takeOut draws replacements from it), closing the
// zero-allocation loop. Every drained envelope is counted as received —
// even ones the exactly-once layer then drops or buffers — because the
// termination ledger balances transport deliveries, not applications.
func (w *liveWorker[V]) ingest(env envelope[V]) {
	d := w.d
	k := int64(len(env.msgs))
	if d.coord.atomicCnt {
		d.coord.arecv.Add(k)
	} else {
		w.localRecv += k
	}
	if w.tr != nil {
		w.tr.Count(w.id, obs.CounterMsgsRecv, w.clock(), k)
	}
	if d.diag {
		d.wrecv[w.id].Add(k)
	}
	if w.st.rs != nil {
		w.st.seqIngest(env)
		return
	}
	w.st.ingest(env.msgs)
	d.pool.put(env.msgs)
}

// drain ingests every envelope already in the mailbox and returns how many.
func (w *liveWorker[V]) drain() int {
	got := 0
	for {
		select {
		case env := <-w.d.chans[w.id]:
			w.ingest(env)
			got++
		default:
			return got
		}
	}
}

// countSent books a shipped envelope. On a recovering run the count lands in
// the coordinator's crash-safe atomics before the envelope is inserted, so
// quiescence can never close over an uncounted in-transit message.
func (w *liveWorker[V]) countSent(k int64) {
	d := w.d
	if d.coord.atomicCnt {
		d.coord.asent.Add(k)
	} else {
		w.localSent += k
	}
	if w.tr != nil {
		traceSent(w.tr, w.id, w.clock(), k, 0)
	}
	d.msgsSent.Add(k)
	d.batches.Add(1)
	if d.diag {
		d.wsent[w.id].Add(k)
	}
}

// send ships one stamped envelope to peer j. A full peer mailbox (the peer
// may be dead) is retried with exponential backoff while draining our own
// mailbox so mutual sends cannot deadlock. While blocked, the worker keeps
// servicing rollback notices — a survivor wedged on a dead peer's full
// mailbox must still ack, or recovery would deadlock.
func (w *liveWorker[V]) send(j int, env envelope[V]) {
	if len(env.msgs) == 0 {
		return
	}
	d := w.d
	w.countSent(int64(len(env.msgs)))
	backoff := liveSendBackoff
	for {
		select {
		case d.chans[j] <- env:
			return
		case <-d.coord.done:
			return
		default:
		}
		if d.recover {
			d.drainNotices(w.st)
		}
		if w.drain() == 0 {
			w.beat()
			time.Sleep(backoff)
			if backoff < liveSendBackMax {
				backoff *= 2
			}
		}
	}
}

// sendHeld ships the batch the reorder fault held back for peer j, if any.
func (w *liveWorker[V]) sendHeld(j int) {
	if hb := w.hold[j]; len(hb) > 0 {
		w.hold[j] = nil
		w.send(j, w.st.stamp(j, hb))
	}
}

// hout is h_out: it ships every non-empty out-accumulator, routing each
// batch through its drawn link fate when link faults are on. "Drop" is
// lossless: the transport retransmits after the retry delay, so the batch
// arrives late rather than never (the programs are not assumed idempotent
// against true loss). "Reorder" holds the batch back until a later batch to
// the same peer has passed it, or the round ends (final).
func (w *liveWorker[V]) hout(final bool) {
	d, id, tr := w.d, w.id, w.tr
	if tr != nil {
		w.label("h_out")
		tr.SpanBegin(id, obs.PhaseHout, w.clock())
	}
	// Rung 2: backpressure. A pressured run pauses its senders before each
	// flush so receivers and the checkpoint ladder can catch up; draining
	// first keeps the pause from growing our own mailbox. Log-retention
	// pressure (rung 1 overshooting its byte cap) applies the same brake.
	if w.throttle && (d.gov.Stage() >= mem.StageThrottle || d.logPressure.Load()) {
		w.drain()
		w.beat()
		if tr != nil {
			tr.SpanBegin(id, obs.PhaseThrottle, w.clock())
		}
		time.Sleep(liveThrottleSleep)
		if tr != nil {
			tr.SpanEnd(id, obs.PhaseThrottle, w.clock())
		}
		d.throttles.Add(1)
	}
	for j := 0; j < d.n; j++ {
		if j == id {
			continue
		}
		msgs := w.st.takeOut(j)
		sentFresh := false
		if len(msgs) > 0 {
			if d.hasLink {
				switch f := d.inj.BatchFate(id, j); {
				case f.Drop:
					// Count the batch as sent now — termination cannot be
					// declared while it is in transit — and hand it to an
					// asynchronous retransmitter. Sleeping inline here would
					// stall heartbeats and every other peer's flush for the
					// whole retry delay.
					env := w.st.stamp(j, msgs)
					w.countSent(int64(len(msgs)))
					d.retransmit(j, env)
					sentFresh = true
				case f.Dup:
					// Copy before the first send: the receiver may recycle
					// the original while we still read it. Both copies carry
					// the same sequence number, so the dedup layer (when on)
					// drops the second.
					env := w.st.stamp(j, msgs)
					cp := env
					cp.msgs = append(d.pool.get(), msgs...)
					w.send(j, env)
					w.send(j, cp)
					sentFresh = true
				case f.Reorder:
					// Held batches stay unstamped and uncounted: the sequence
					// number is drawn at actual ship time, so a crash loses
					// nothing the checkpoint replay would miss (held mass is
					// re-derived from Ψ).
					w.hold[j] = append(w.hold[j], msgs...)
					d.pool.put(msgs)
				default:
					w.send(j, w.st.stamp(j, msgs))
					sentFresh = true
				}
			} else {
				w.send(j, w.st.stamp(j, msgs))
				sentFresh = true
			}
		}
		if w.hold != nil && (sentFresh || final) {
			w.sendHeld(j)
		}
	}
	if tr != nil {
		tr.SpanEnd(id, obs.PhaseHout, w.clock())
		w.label("local_eval")
	}
}

// serviceLocal is the localized-recovery safe point: process any rollback
// notices from the monitor, then honor a pending checkpoint request.
// Checkpoints are taken inline — no barrier, no park — after flushing held
// batches so the snapshot can never strand an unstamped message. No-op on
// runs that cannot recover a crash.
func (w *liveWorker[V]) serviceLocal() {
	d, id := w.d, w.id
	if !d.recover {
		return
	}
	d.drainNotices(w.st)
	if !d.ckptReq[id].Load() {
		return
	}
	d.ckptReq[id].Store(false)
	for j := range w.hold {
		w.sendHeld(j)
	}
	d.takeLocalCkpt(w.st)
	if tr := w.tr; tr != nil {
		t := w.clock()
		tr.Mark(id, obs.MarkCkpt, t)
		tr.Sample(id, obs.GaugeLogSize, t, float64(d.rec.log.retainedFrom(id)))
	}
}

// idleWait blocks an idle worker for more input. The timeout keeps the
// heartbeat alive and lets the worker service rollback notices, checkpoint
// requests and due time-triggered crashes while idle. Returns true when the
// worker must exit.
func (w *liveWorker[V]) idleWait() bool {
	d, id := w.d, w.id
	for {
		select {
		case env := <-d.chans[id]:
			d.coord.report(id, false, 0, 0)
			if w.tr != nil {
				w.tr.Mark(id, obs.MarkBusy, w.clock())
			}
			w.ingest(env)
			return false
		case <-d.coord.done:
			return true
		case <-time.After(d.beatEvery):
			w.beat()
			if w.ended() || w.crashed() {
				return true
			}
			w.serviceLocal()
			if !w.st.active.Empty() {
				// A rollback notice un-applied contributions and
				// re-activated their vertices: go process them.
				d.coord.report(id, false, 0, 0)
				return false
			}
		}
	}
}

// retransmit delivers a "dropped" batch after the plan's retry delay
// without blocking the worker that flushed it. The caller already counted
// the batch as sent, so termination cannot be declared while it is in
// transit. Delivery always completes; if the receiver crashed and its restore
// already replayed the batch from the sender's log, the dedup layer discards
// the late copy.
func (d *liveDriver[V]) retransmit(to int, env envelope[V]) {
	d.retransmits.Add(1)
	if tr := d.cfg.Tracer; tr != nil {
		tr.Count(int(env.from), obs.CounterRetransmits, float64(sinceFn(d.start))/1e3, 1)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTimer(d.retrySleep)
		defer t.Stop()
		select {
		case <-t.C:
		case <-d.coord.done:
			return
		}
		backoff := liveSendBackoff
		for {
			select {
			case d.chans[to] <- env:
				return
			case <-d.coord.done:
				return
			default:
			}
			time.Sleep(backoff)
			if backoff < liveSendBackMax {
				backoff *= 2
			}
		}
	}()
}
