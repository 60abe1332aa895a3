package obs

import "time"

// Health is a point-in-time view of a live control plane: worker liveness
// from the heartbeat detector, progress from the watchdog's counters, and the
// memory governor's degradation stage. The live driver publishes it per run
// (gap.HealthTracker), a resident service aggregates it over its jobs, and
// the telemetry plane's /healthz, /readyz, /status and argan_run_* families
// are wired to it.
type Health struct {
	// Running reports whether a live run is currently executing under the
	// tracker. Between soak iterations (and after the last one) it is
	// false; the tracker then reports the last run's outcome.
	Running bool `json:"running"`
	// Resident marks a long-lived service's health rather than one run's:
	// there is no run to wait for, so it is ready from the moment it is
	// attached (the service attaches after its state and preloads are in
	// place).
	Resident bool `json:"resident,omitempty"`
	// Completed and Failed count runs finished under this tracker.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Err is the most recent run failure ("" when every run succeeded).
	Err string `json:"err,omitempty"`
	// Draining reports that the process hosting the tracker is shutting
	// down gracefully: no new runs will be admitted, running ones are
	// finishing. A readiness probe stays red for the rest of the process's
	// life.
	Draining bool `json:"draining,omitempty"`

	// Workers is the cluster size; Idle of them are at f_term with empty
	// mailboxes; Dead have stale heartbeats and are not yet restored.
	Workers int `json:"workers"`
	Idle    int `json:"idle"`
	Dead    int `json:"dead"`
	// Unrecoverable reports that the control plane has given up on a
	// permanently dead worker and is waiting for the watchdog to fail the
	// run.
	Unrecoverable bool `json:"unrecoverable"`

	// Sent/Recv are the termination ledger's transport counts; Updates is
	// the cumulative f_xv invocation count. Workers count updates locally
	// and publish at each indicator check and round end, so mid-run it
	// lags by at most one CheckEvery per worker.
	Sent    int64 `json:"sent"`
	Recv    int64 `json:"recv"`
	Updates int64 `json:"updates"`
	// ProgressAge is how long the watchdog has seen no progress (reports,
	// updates or sends). Compare against the configured watchdog budget to
	// decide liveness.
	ProgressAge time.Duration `json:"progress_age_ns"`
	// Watchdog is the configured stuck-run budget (0 = disabled), exported
	// so a health endpoint can scale ProgressAge without knowing the config.
	Watchdog time.Duration `json:"watchdog_ns"`

	// MemStage is the governor's degradation rung ("" when ungoverned);
	// SpilledBytes is governed state currently resident on disk.
	MemStage     string `json:"mem_stage,omitempty"`
	SpilledBytes int64  `json:"spilled_bytes"`

	// UpdatedAt stamps the publication (wall clock).
	UpdatedAt time.Time `json:"updated_at"`
}
