package gap

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"argan/internal/obs"
)

// liveCtrl is the shared control plane between the worker goroutines and
// the monitor: per-worker heartbeats and the monitor's view of who is dead.
type liveCtrl struct {
	beats []atomic.Int64 // ns since run start of each worker's last beat

	mu            sync.Mutex
	dead          []bool
	nDead         int
	restart       []float64 // ms from detection to restart; <0 permanent, liveRestartUnknown unset
	unrecoverable bool      // a permanently dead worker was found: stop trying
}

// liveRestartUnknown marks a worker that died without announcing a restart
// delay (a heartbeat false positive, or a plan bug). The monitor never
// respawns such a worker — its goroutine might still be alive, and two
// goroutines over one workerState would race — so the watchdog handles it.
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

// monitor is the coordinator-side control loop: heartbeat failure
// detection, round-robin checkpoint requests, crash recovery, and the
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

	// Checkpoints are uncoordinated: one worker is asked per slice, so every
	// worker snapshots about once per CheckpointEvery.
	ckptEvery := d.cfg.CheckpointEvery
	if d.recover && d.n > 0 {
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

		if d.gov != nil || (d.recover && d.logCap > 0) {
			d.memTick(now)
		}
		if d.hasCrashes {
			// Recovery spans several ticks (stage, acks, restart delay), so
			// it keys off the dead count, not just freshly detected deaths.
			d.detectDead(now)
			d.resurrectStalled(now)
			if d.recover && d.ctrl.numDead() > 0 && !d.ctrl.isUnrecoverable() {
				if d.runLocalRecovery() {
					lastCkpt = sinceFn(d.start)
					progSince = lastCkpt
				}
			}
		}
		if d.recover && d.ctrl.numDead() == 0 && now-lastCkpt >= ckptEvery {
			d.requestLocalCkpt()
			lastCkpt = now
		}
		// updates lags by at most one CheckEvery per worker (published at
		// indicator checks), far inside any watchdog budget.
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

// detectDead declares workers with stale heartbeats dead. Workers beat at
// every indicator check, idle tick and send retry, so a stale beat means the
// goroutine exited (or is wedged in a single Update call far beyond the
// timeout).
func (d *liveDriver[V]) detectDead(now time.Duration) {
	d.ctrl.mu.Lock()
	for i := range d.ctrl.dead {
		if d.ctrl.dead[i] {
			continue
		}
		if now-time.Duration(d.ctrl.beats[i].Load()) > d.cfg.HeartbeatTimeout {
			d.ctrl.dead[i] = true
			d.ctrl.nDead++
			if tr := d.cfg.Tracer; tr != nil {
				tr.Mark(i, obs.MarkDetect, float64(now)/1e3)
			}
		}
	}
	d.ctrl.mu.Unlock()
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
