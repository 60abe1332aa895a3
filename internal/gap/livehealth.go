package gap

import (
	"sync"
	"time"
)

// Health is a point-in-time view of the live driver's control plane: worker
// liveness from the heartbeat detector, progress from the watchdog's
// counters, and the memory governor's degradation stage. It is what the
// telemetry plane's /healthz and /readyz endpoints are wired to.
type Health struct {
	// Running reports whether a live run is currently executing under the
	// tracker. Between soak iterations (and after the last one) it is
	// false; the tracker then reports the last run's outcome.
	Running bool
	// Completed and Failed count runs finished under this tracker.
	Completed int64
	Failed    int64
	// Err is the most recent run failure ("" when every run succeeded).
	Err string
	// Draining reports that the process hosting the tracker is shutting
	// down gracefully: no new runs will be admitted, running ones are
	// finishing. Set by SetDraining; never reset by runStarted, so a
	// readiness probe stays red for the rest of the process's life.
	Draining bool

	// Workers is the cluster size; Idle of them are at f_term with empty
	// mailboxes; Dead have stale heartbeats and are not yet restored.
	Workers int
	Idle    int
	Dead    int
	// Unrecoverable reports that the control plane has given up on a
	// permanently dead worker and is waiting for the watchdog to fail the
	// run.
	Unrecoverable bool

	// Sent/Recv are the termination ledger's transport counts; Updates is
	// the cumulative f_xv invocation count. Workers count updates locally
	// and publish at each indicator check and round end, so mid-run it
	// lags by at most one CheckEvery per worker.
	Sent, Recv int64
	Updates    int64
	// ProgressAge is how long the watchdog has seen no progress (reports,
	// updates or sends). Compare against the configured watchdog budget to
	// decide liveness.
	ProgressAge time.Duration
	// Watchdog is the configured stuck-run budget (0 = disabled), exported
	// so a health endpoint can scale ProgressAge without knowing the config.
	Watchdog time.Duration

	// MemStage is the governor's degradation rung ("" when ungoverned);
	// SpilledBytes is governed state currently resident on disk.
	MemStage     string
	SpilledBytes int64

	// UpdatedAt stamps the publication (wall clock).
	UpdatedAt time.Time
}

// HealthTracker is a concurrency-safe mailbox for Health snapshots. One
// tracker outlives individual runs: arganrun attaches the same tracker to
// every soak iteration's LiveConfig, so an HTTP poller sees a continuous
// health stream across iterations. The zero value is ready to use.
type HealthTracker struct {
	mu sync.Mutex
	h  Health
}

// Health returns the latest published snapshot.
func (t *HealthTracker) Health() Health {
	if t == nil {
		return Health{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h
}

// publish applies mutate under the lock and stamps the snapshot.
func (t *HealthTracker) publish(mutate func(*Health)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	mutate(&t.h)
	t.h.UpdatedAt = time.Now()
	t.mu.Unlock()
}

// runStarted resets the per-run fields at the top of RunLive.
func (t *HealthTracker) runStarted(workers int, watchdog time.Duration) {
	t.publish(func(h *Health) {
		h.Running = true
		h.Workers = workers
		h.Idle, h.Dead = 0, 0
		h.Unrecoverable = false
		h.Sent, h.Recv, h.Updates = 0, 0, 0
		h.ProgressAge = 0
		h.Watchdog = watchdog
		h.MemStage, h.SpilledBytes = "", 0
	})
}

// SetDraining flips the tracker's drain flag (graceful-shutdown signal for
// readiness probes). Unlike the per-run fields it survives runStarted:
// draining is a property of the process, not of any one run.
func (t *HealthTracker) SetDraining(v bool) {
	t.publish(func(h *Health) { h.Draining = v })
}

// runEnded records the run's outcome.
func (t *HealthTracker) runEnded(err error) {
	t.publish(func(h *Health) {
		h.Running = false
		if err != nil {
			h.Failed++
			h.Err = err.Error()
		} else {
			h.Completed++
		}
	})
}

// publishHealth is the monitor's per-tick publication: liveness from the
// control plane, progress from the watchdog counters, memory stage from the
// governor.
func (d *liveDriver[V]) publishHealth(progressAge time.Duration) {
	t := d.cfg.Health
	if t == nil {
		return
	}
	idle, _, sent, recv, _ := d.coord.status()
	d.ctrl.mu.Lock()
	dead, unrec := d.ctrl.nDead, d.ctrl.unrecoverable
	d.ctrl.mu.Unlock()
	t.publish(func(h *Health) {
		h.Idle = idle
		h.Dead = dead
		h.Unrecoverable = unrec
		h.Sent, h.Recv = sent, recv
		h.Updates = d.updates.Load()
		h.ProgressAge = progressAge
		if d.gov != nil {
			h.MemStage = d.gov.Stage().String()
			h.SpilledBytes = d.gov.SpilledBytes()
		}
	})
}
