package gap

import (
	"sync"
	"time"

	"argan/internal/obs"
)

// HealthTracker is a concurrency-safe mailbox for obs.Health snapshots. One
// tracker outlives individual runs: arganrun attaches the same tracker to
// every soak iteration's LiveConfig, so an HTTP poller sees a continuous
// health stream across iterations. The zero value is ready to use.
type HealthTracker struct {
	mu sync.Mutex
	h  obs.Health
}

// Health returns the latest published snapshot.
func (t *HealthTracker) Health() obs.Health {
	if t == nil {
		return obs.Health{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h
}

// publish applies mutate under the lock and stamps the snapshot.
func (t *HealthTracker) publish(mutate func(*obs.Health)) {
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
	t.publish(func(h *obs.Health) {
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
	t.publish(func(h *obs.Health) { h.Draining = v })
}

// runEnded records the run's outcome.
func (t *HealthTracker) runEnded(err error) {
	t.publish(func(h *obs.Health) {
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
	t.publish(func(h *obs.Health) {
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
