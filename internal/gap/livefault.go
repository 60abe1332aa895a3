package gap

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"argan/internal/ace"
	"argan/internal/obs"
)

// The live driver's control phases. ctrlRun is normal execution. ctrlCkpt
// asks every worker to park at its next check so the monitor can take a
// consistent snapshot (workers keep draining while parked so the global
// sent==recv barrier can be reached). ctrlRecover parks the survivors
// hands-off while the monitor rolls every fragment back.
const (
	ctrlRun int32 = iota
	ctrlCkpt
	ctrlRecover
)

// liveCtrl is the shared control plane between the worker goroutines and
// the monitor: the current phase, the cluster epoch (bumped by every
// rollback), per-worker heartbeats, and the monitor's view of who is dead.
type liveCtrl struct {
	phase atomic.Int32
	epoch atomic.Int32
	beats []atomic.Int64 // ns since run start of each worker's last beat

	mu            sync.Mutex
	parked        int
	dead          []bool
	nDead         int
	restart       []float64 // ms from detection to restart; <0 permanent, liveRestartUnknown unset
	unrecoverable bool      // a permanently dead worker was found: stop trying
}

// liveRestartUnknown marks a worker that died without announcing a restart
// delay (a heartbeat false positive, or a plan bug). The monitor never
// respawns such a worker — its goroutine might still be alive, and two
// goroutines over one liveState would race — so the watchdog handles it.
const liveRestartUnknown = -2

func newLiveCtrl(n int) *liveCtrl {
	c := &liveCtrl{
		beats:   make([]atomic.Int64, n),
		dead:    make([]bool, n),
		restart: make([]float64, n),
	}
	for i := range c.restart {
		c.restart[i] = liveRestartUnknown
	}
	return c
}

func (c *liveCtrl) enterPark() { c.mu.Lock(); c.parked++; c.mu.Unlock() }
func (c *liveCtrl) exitPark()  { c.mu.Lock(); c.parked--; c.mu.Unlock() }

// noteCrash records the injected crash's restart delay just before the
// worker goroutine exits. Death detection itself stays heartbeat-based.
func (c *liveCtrl) noteCrash(id int, restartMS float64) {
	c.mu.Lock()
	c.restart[id] = restartMS
	c.mu.Unlock()
}

func (c *liveCtrl) numDead() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nDead
}

func (c *liveCtrl) isUnrecoverable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.unrecoverable
}

// liveSnap is one worker's part of a consistent cluster snapshot: status
// variables, program-private aux state, the active set and the un-flushed
// out-accumulators. Taken only at global barriers (all workers parked,
// sent==recv), so no in-flight messages need to be captured.
type liveSnap[V any] struct {
	psi    []V
	aux    any
	active []uint32
	out    [][]ace.Message[V]

	// Sequence state of the exactly-once layer, captured only when it is
	// on. Global snapshots are taken at a quiescent barrier (sent == recv),
	// where the reorder buffers are provably empty and cursors match send
	// sequences; local snapshots are taken at a worker-local safe point and
	// buffered gaps are simply dropped — the retained log replays them.
	sendSeq []uint64
	cursor  []uint64
}

func captureLive[V any](st *liveState[V]) liveSnap[V] {
	s := liveSnap[V]{
		psi:    append([]V(nil), st.psi...),
		active: st.active.Snapshot(),
		out:    make([][]ace.Message[V], len(st.out)),
	}
	if cp, ok := any(st.prog).(ace.Checkpointer); ok {
		s.aux = cp.SnapshotAux()
	}
	for j := range st.out {
		s.out[j] = append([]ace.Message[V](nil), st.out[j].msgs...)
	}
	if rs := st.rs; rs != nil {
		s.sendSeq = append([]uint64(nil), rs.sendSeq...)
		s.cursor = append([]uint64(nil), rs.cursor...)
	}
	return s
}

// restoreLive rolls st back to the snapshot in place: the ACE context
// closes over the psi slice, so values are copied into it rather than the
// slice being replaced. Safe to call repeatedly with the same snapshot.
func restoreLive[V any](st *liveState[V], s *liveSnap[V]) {
	copy(st.psi, s.psi)
	if cp, ok := any(st.prog).(ace.Checkpointer); ok {
		cp.RestoreAux(s.aux)
	}
	st.active.Reset(s.active)
	for j := range st.out {
		st.restoreOut(j, s.out[j])
	}
	if rs := st.rs; rs != nil && s.sendSeq != nil {
		copy(rs.sendSeq, s.sendSeq)
		copy(rs.cursor, s.cursor)
		for i := range rs.robuf {
			rs.robuf[i] = nil
		}
		rs.resetBuf()
	}
}

// monitor is the coordinator-side control loop: heartbeat failure
// detection, periodic consistent checkpoints, crash recovery, and the
// progress watchdog. It holds a WaitGroup slot so RunLive cannot return
// while a recovery is mid-flight.
func (d *liveDriver[V]) monitor() {
	defer d.wg.Done()
	// The monitor rewrites worker state during recovery; a panic here (a
	// driver bug, or a Checkpointer hook blowing up mid-restore) must fail
	// the run, not the process hosting it.
	defer func() {
		if r := recover(); r != nil {
			d.coord.fail(fmt.Errorf("%w: monitor: %v\n%s", ErrWorkerPanic, r, debug.Stack()))
		}
	}()
	tick := 5 * time.Millisecond
	if d.hasCrashes && d.cfg.HeartbeatTimeout/4 < tick {
		tick = d.cfg.HeartbeatTimeout / 4
	}
	if d.recover && d.cfg.CheckpointEvery/4 < tick {
		tick = d.cfg.CheckpointEvery / 4
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()

	// Local recovery sequences uncoordinated checkpoints instead of
	// parking the cluster: one worker is asked per slice so every worker
	// snapshots about once per CheckpointEvery.
	ckptEvery := d.cfg.CheckpointEvery
	if d.localRec && d.n > 0 {
		ckptEvery = d.cfg.CheckpointEvery / time.Duration(d.n)
		if ckptEvery < time.Millisecond {
			ckptEvery = time.Millisecond
		}
	}

	lastCkpt := sinceFn(d.start)
	var lastProg [3]int64
	progSince := sinceFn(d.start)
	for {
		select {
		case <-d.coord.done:
			return
		case <-d.cfg.Cancel:
			// Client cancellation / deadline: first failure wins, workers
			// exit at their next safe point, RunLive returns ErrCanceled.
			d.coord.fail(ErrCanceled)
			return
		case <-tk.C:
		}
		now := sinceFn(d.start)

		if d.gov != nil || (d.localRec && d.logCap > 0) {
			d.memTick(now)
		}
		if d.hasCrashes {
			// Deaths can also be detected mid-checkpoint, so recovery keys
			// off the dead count, not just freshly detected deaths.
			d.detectDead(now)
			d.resurrectStalled(now)
			if d.recover && d.ctrl.numDead() > 0 && !d.ctrl.isUnrecoverable() {
				recovered := false
				if d.localRec {
					recovered = d.runLocalRecovery()
				} else {
					recovered = d.runRecovery()
				}
				if recovered {
					lastCkpt = sinceFn(d.start)
					progSince = lastCkpt
				}
			}
		}
		if d.recover && d.ctrl.numDead() == 0 && now-lastCkpt >= ckptEvery {
			if d.localRec {
				d.requestLocalCkpt()
				lastCkpt = now
			} else if d.runCheckpoint() {
				lastCkpt = sinceFn(d.start)
			}
		}
		_, _, _, _, progress := d.coord.status()
		cur := [3]int64{progress, d.updates.Load(), d.msgsSent.Load()}
		if cur != lastProg {
			lastProg = cur
			progSince = now
		}
		d.publishHealth(now - progSince)
		if d.cfg.Watchdog > 0 {
			if now-progSince > d.cfg.Watchdog {
				idle, total, sent, recv, _ := d.coord.status()
				d.coord.fail(fmt.Errorf(
					"gap: live run stuck for %v: %d/%d workers idle, %d dead, %d messages unaccounted (sent=%d recv=%d)%s",
					d.cfg.Watchdog, idle, total, d.ctrl.numDead(), sent-recv, sent, recv,
					d.stuckDetail()))
				return
			}
		}
	}
}

// detectDead declares workers with stale heartbeats dead and returns how
// many were newly declared. Workers beat at every indicator check, park
// poll, idle tick and send retry, so a stale beat means the goroutine
// exited (or is wedged in a single Update call far beyond the timeout).
func (d *liveDriver[V]) detectDead(now time.Duration) int {
	newDead := 0
	d.ctrl.mu.Lock()
	for i := range d.ctrl.dead {
		if d.ctrl.dead[i] {
			continue
		}
		if now-time.Duration(d.ctrl.beats[i].Load()) > d.cfg.HeartbeatTimeout {
			d.ctrl.dead[i] = true
			d.ctrl.nDead++
			newDead++
			if tr := d.cfg.Tracer; tr != nil {
				tr.Mark(i, obs.MarkDetect, float64(now)/1e3)
			}
		}
	}
	d.ctrl.mu.Unlock()
	return newDead
}

// resurrectStalled clears death marks that turn out to be heartbeat false
// positives: a worker that was detected dead without ever announcing a
// crash, but whose beat has since resumed, was merely stalled (a GC pause
// or CPU starvation under machine load), not dead. Un-marking it keeps a
// transient scheduler stall from escalating into an unrecoverable run.
// Staged workers are never resurrected — once rollback staging starts the
// goroutine is assumed gone and a second writer would race.
func (d *liveDriver[V]) resurrectStalled(now time.Duration) {
	d.ctrl.mu.Lock()
	for i := range d.ctrl.dead {
		if !d.ctrl.dead[i] || d.ctrl.restart[i] != liveRestartUnknown {
			continue
		}
		if d.recState != nil && d.recState[i] != 0 {
			continue
		}
		if now-time.Duration(d.ctrl.beats[i].Load()) <= d.cfg.HeartbeatTimeout {
			d.ctrl.dead[i] = false
			d.ctrl.nDead--
		}
	}
	d.ctrl.mu.Unlock()
}

// deathGrace is how long an unannounced death may stay undecided before the
// run is declared unrecoverable: several heartbeat windows, so a stalled
// goroutine has time to resume beating and be resurrected, yet a truly
// wedged worker still hands the run to the watchdog promptly. Governed runs
// get a wider window — spill I/O under a tight budget makes benign
// hundreds-of-milliseconds stalls far more likely than in RAM-only runs.
func (d *liveDriver[V]) deathGrace() time.Duration {
	g := 4 * d.cfg.HeartbeatTimeout
	min := 200 * time.Millisecond
	if d.gov != nil && d.gov.Budget() > 0 {
		min = 500 * time.Millisecond
	}
	if g < min {
		g = min
	}
	return g
}

// runCheckpoint takes a consistent cluster snapshot: ask every worker to
// park, wait until all are parked with every counted message received,
// then capture each fragment's state. Aborts (and retries at a later tick)
// if a worker dies, the run finishes, or the barrier can't be reached
// within the deadline.
func (d *liveDriver[V]) runCheckpoint() bool {
	d.ctrl.phase.Store(ctrlCkpt)
	deadline := timeNow().Add(2 * time.Second)
	ok := false
	for {
		select {
		case <-d.coord.done:
			d.ctrl.phase.Store(ctrlRun)
			return false
		default:
		}
		if d.hasCrashes && d.detectDead(sinceFn(d.start)) > 0 {
			break
		}
		d.ctrl.mu.Lock()
		parked, nDead := d.ctrl.parked, d.ctrl.nDead
		d.ctrl.mu.Unlock()
		if nDead > 0 {
			break
		}
		sent, recv := d.coord.counts()
		if parked == d.n && sent == recv {
			ok = true
			break
		}
		if timeNow().After(deadline) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if ok {
		tsv := float64(sinceFn(d.start)) / 1e3
		for i := range d.states {
			d.snaps[i] = captureLive(d.states[i])
			if tr := d.cfg.Tracer; tr != nil {
				tr.Mark(i, obs.MarkCkpt, tsv)
			}
		}
		d.checkpoints.Add(1)
	}
	d.ctrl.phase.Store(ctrlRun)
	return ok
}

// runRecovery rolls the whole cluster back to its last consistent snapshot
// and respawns the dead workers: park the survivors, restore every
// fragment (PageRank-style delta accumulation is not idempotent, so a
// single-worker replay would double-count — the rollback must be global),
// reset the termination detector, bump the epoch so pre-rollback envelopes
// are discarded, wait out the restart delay, then release everyone.
func (d *liveDriver[V]) runRecovery() bool {
	tr := d.cfg.Tracer
	ts := func() float64 { return float64(sinceFn(d.start)) / 1e3 }
	if tr != nil {
		tr.SpanBegin(d.n, obs.PhaseRecovery, ts())
		defer func() { tr.SpanEnd(d.n, obs.PhaseRecovery, ts()) }()
	}
	began := sinceFn(d.start)
	d.ctrl.phase.Store(ctrlRecover)
	defer d.ctrl.phase.Store(ctrlRun)

	// Barrier: every surviving worker parked. Workers can die while we
	// wait (a second injected crash), so keep detection running.
	deadline := timeNow().Add(5 * time.Second)
	for {
		select {
		case <-d.coord.done:
			return false
		default:
		}
		d.detectDead(sinceFn(d.start))
		d.ctrl.mu.Lock()
		parked, nDead := d.ctrl.parked, d.ctrl.nDead
		d.ctrl.mu.Unlock()
		if parked >= d.n-nDead {
			break
		}
		if timeNow().After(deadline) {
			return false // leave it to the watchdog
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Every dead worker must have announced a restart before the rollback
	// may proceed. An announced permanent death (restart < 0) makes the run
	// unrecoverable. An unannounced one is undecided: it is either a
	// heartbeat false positive — the goroutine is alive, so restoring under
	// it would race — or a wedged worker; defer the rollback until the
	// grace window resolves it (resurrection or unrecoverable).
	now := sinceFn(d.start)
	d.ctrl.mu.Lock()
	var deads []int
	restartMS := 0.0
	recoverable, pending := true, false
	for i, dd := range d.ctrl.dead {
		if !dd {
			continue
		}
		deads = append(deads, i)
		if r := d.ctrl.restart[i]; r == liveRestartUnknown {
			if now-time.Duration(d.ctrl.beats[i].Load()) <= d.deathGrace() {
				pending = true
			} else {
				recoverable = false
			}
		} else if r < 0 {
			recoverable = false
		} else if r > restartMS {
			restartMS = r
		}
	}
	d.ctrl.mu.Unlock()
	if !recoverable {
		// Permanently dead (or silent beyond grace) worker: the run cannot
		// recover; stop re-parking the cluster and let the watchdog fail
		// it with a descriptive error.
		d.ctrl.mu.Lock()
		d.ctrl.unrecoverable = true
		d.ctrl.mu.Unlock()
		return false
	}
	if pending {
		return false // retry next tick, after resurrection had its chance
	}
	if len(deads) == 0 {
		return false
	}

	// Survivors are parked hands-off and the dead goroutines have exited:
	// the monitor owns all fragment state here.
	for i := range d.states {
		restoreLive(d.states[i], &d.snaps[i])
	}
	if !d.coord.reset() {
		return false // run ended under us
	}
	epoch := d.ctrl.epoch.Add(1)
	if tr != nil {
		// The epoch mark is the soak harness's witness that a global
		// rollback happened; localized recoveries never emit it.
		tr.Mark(d.n, obs.MarkEpoch, ts())
	}
	d.recoveries.Add(1)
	if restartMS > 0 {
		time.Sleep(time.Duration(restartMS * float64(time.Millisecond)))
	}
	nowNS := int64(sinceFn(d.start))
	d.recoveryNS.Add(nowNS - int64(began))
	d.ctrl.mu.Lock()
	for _, i := range deads {
		d.ctrl.dead[i] = false
		d.ctrl.nDead--
		d.ctrl.restart[i] = liveRestartUnknown
		d.ctrl.beats[i].Store(nowNS)
	}
	d.ctrl.mu.Unlock()
	for _, i := range deads {
		if tr != nil {
			tr.Mark(i, obs.MarkRestart, ts())
		}
		d.wg.Add(1)
		go d.worker(d.states[i], epoch)
	}
	return true
}
