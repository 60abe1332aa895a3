// Package serve is the resident multi-tenant job service of the GAP
// runtime: a long-lived Service that loads frozen, fingerprinted datasets
// once and admits many concurrent GAP jobs over shared immutable fragments,
// each job with its own worker pool, tuner state, recovery domain and memory
// budget slice.
//
// Robustness is the design center:
//
//   - Admission control: jobs cost core tokens; a bounded FIFO queue holds
//     what the cores cannot run yet, and past the queue the service sheds
//     load (ErrSaturated → HTTP 429) instead of queueing forever or OOMing.
//   - Fault isolation: every job runs its own live driver with localized
//     recovery and a private mem.Governor slice carved from one shared
//     mem.Pool; the governor pages only the job's own state, never the
//     shared (immutable) fragments. A job that crashes, panics or blows its
//     deadline is quarantined —
//     marked failed/canceled with the error — while its neighbors keep
//     running.
//   - Deadlines and cancellation: per-job deadlines (ticking from
//     submission, so queue time counts) and client cancellations propagate
//     into the driver's control plane via LiveConfig.Cancel.
//   - Graceful drain: Drain stops admissions (readyz goes red) but finishes
//     every admitted job — queued ones included — before returning, so a
//     SIGTERM rollout never loses accepted work.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"argan/internal/algorithms"
	"argan/internal/durable"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/mem"
)

// Job states.
const (
	StatePending  = "pending"  // admitted, waiting for core tokens
	StateRunning  = "running"  // executing under its own live driver
	StateDone     = "done"     // finished; result available
	StateFailed   = "failed"   // quarantined: crashed, panicked or diverged
	StateCanceled = "canceled" // client cancellation or deadline
)

// Admission errors. Submit wraps them with detail; test with errors.Is.
var (
	// ErrSaturated means cores and queue are both full: the service sheds
	// the job (HTTP 429) rather than queueing it forever.
	ErrSaturated = errors.New("serve: saturated")
	// ErrDraining means the service is shutting down and admits nothing
	// new (HTTP 503).
	ErrDraining = errors.New("serve: draining")
	// ErrNoSuchJob means the job ID is unknown — never assigned, or a
	// terminal job already evicted from the bounded history (HTTP 404).
	ErrNoSuchJob = errors.New("serve: no such job")
)

// Config parameterizes a Service. Zero values select sensible defaults.
type Config struct {
	// Cores is the admission controller's token budget: the sum of worker
	// counts across running jobs never exceeds it. Default 4.
	Cores int
	// QueueDepth bounds the admitted-but-not-running FIFO queue; a full
	// queue sheds (429). Default 2×Cores.
	QueueDepth int
	// MemBudget is the total governed bytes shared by all concurrent jobs;
	// each running job gets a slice proportional to its core share. 0
	// leaves jobs ungoverned.
	MemBudget int64
	// SpillDir is where governed jobs spill ("" = OS temp dir).
	SpillDir string
	// MaxWorkersPerJob clamps a job's requested worker count. Default 4,
	// and never above Cores.
	MaxWorkersPerJob int
	// DefaultDeadline applies to jobs that do not set their own (0 = no
	// deadline). Deadlines tick from submission, so queue time counts.
	DefaultDeadline time.Duration
	// Watchdog is each job's stuck-run budget (gap.LiveConfig.Watchdog).
	// 0 keeps the driver default (30s); it bounds how long a wedged job
	// can hold its core tokens.
	Watchdog time.Duration
	// StateDir, when set, makes the service crash-durable: every applied
	// mutation batch is appended+fsynced to a per-dataset WAL before it is
	// acknowledged, warm fixpoints are snapshotted periodically, and Open
	// replays the directory back to the last durable version on restart.
	// Empty = ephemeral (all state dies with the process).
	StateDir string
	// SnapshotEvery is the warm-fixpoint flush period (<= 0 disables the
	// periodic flusher; a final snapshot is still taken at drain). Only
	// meaningful with StateDir.
	SnapshotEvery time.Duration
	// MaxHistory bounds how many terminal jobs the service retains for
	// Status/Result/List and the per-job metric families. Past the bound
	// the oldest terminal jobs are evicted (their JobResults freed, their
	// metric series dropped); running and queued jobs are never evicted,
	// so a resident service stays memory- and scrape-bounded under
	// sustained load. Default 512; negative retains everything.
	MaxHistory int
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Cores
	}
	if c.MaxWorkersPerJob <= 0 {
		c.MaxWorkersPerJob = 4
	}
	if c.MaxWorkersPerJob > c.Cores {
		c.MaxWorkersPerJob = c.Cores
	}
	if c.MaxHistory == 0 {
		c.MaxHistory = 512
	}
	return c
}

// JobSpec is a submitted job: which application over which frozen dataset,
// with optional fault injection, verification and deadline.
type JobSpec struct {
	App     string  `json:"app"`     // sssp, bfs, wcc or pr
	Dataset string  `json:"dataset"` // built-in dataset name (HW, DP, LJ, ...)
	Scale   float64 `json:"scale"`   // dataset scale (default 0.25)
	Workers int     `json:"workers"` // worker pool size (clamped; default 2)
	Source  int     `json:"source"`  // source vertex for sssp/bfs
	Eps     float64 `json:"eps"`     // delta threshold for pr (default 1e-3)
	// CheckEvery seeds the job's granularity bound η (0 = driver default).
	// Tenants with latency-sensitive jobs can trade throughput for faster
	// cancellation/fault detection by lowering it.
	CheckEvery int `json:"check_every,omitempty"`
	// Faults is an in-run fault plan spec (internal/fault grammar), e.g.
	// "crash=1@u200+10" or "panic=0@u300". Empty = clean run.
	Faults string `json:"faults,omitempty"`
	// Deadline bounds the job's total lifetime from submission (a
	// time.ParseDuration string, e.g. "5s"). Empty uses the service
	// default; "0" means no deadline even if the service has a default.
	Deadline string `json:"deadline,omitempty"`
	// Verify re-checks the result against the cached sequential reference;
	// the job is quarantined (failed) if any vertex diverges.
	Verify bool `json:"verify,omitempty"`
}

func (sp *JobSpec) normalize(cfg Config) (time.Duration, error) {
	if err := algorithms.CheckLiveApp(sp.App); err != nil {
		return 0, err
	}
	if sp.Dataset == "" {
		return 0, fmt.Errorf("dataset is required")
	}
	if sp.Scale <= 0 {
		sp.Scale = 0.25
	}
	if sp.Workers <= 0 {
		sp.Workers = 2
	}
	if sp.Workers > cfg.MaxWorkersPerJob {
		sp.Workers = cfg.MaxWorkersPerJob
	}
	if sp.Eps <= 0 {
		sp.Eps = 1e-3
	}
	if sp.CheckEvery < 0 {
		sp.CheckEvery = 0
	}
	if sp.Faults != "" {
		if _, err := fault.Parse(sp.Faults); err != nil {
			return 0, err
		}
	}
	deadline := cfg.DefaultDeadline
	if sp.Deadline != "" {
		d, err := time.ParseDuration(sp.Deadline)
		if err != nil {
			return 0, fmt.Errorf("deadline: %w", err)
		}
		if d < 0 {
			return 0, fmt.Errorf("deadline must be >= 0")
		}
		deadline = d
	}
	return deadline, nil
}

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	ID       string  `json:"id"`
	State    string  `json:"state"`
	App      string  `json:"app"`
	Dataset  string  `json:"dataset"`
	Scale    float64 `json:"scale"`
	Workers  int     `json:"workers"`
	Err      string  `json:"err,omitempty"`
	Queued   string  `json:"queued_at"`
	WaitMS   float64 `json:"wait_ms"`          // submission → start (or now)
	RunMS    float64 `json:"run_ms,omitempty"` // start → finish (or now)
	Deadline string  `json:"deadline,omitempty"`
	// Live control-plane view of a running job (zero after it ends).
	Dead    int   `json:"dead,omitempty"`
	Updates int64 `json:"updates,omitempty"`
}

// JobResult is the summary a finished job serves. Raw vertex arrays stay on
// the server; clients get counts, a checksum and the driver metrics.
type JobResult struct {
	ID       string `json:"id"`
	App      string `json:"app"`
	Vertices int    `json:"vertices"`
	// Wrong counts vertices diverging from the sequential reference; -1
	// when the job did not request verification.
	Wrong      int     `json:"wrong"`
	Checksum   float64 `json:"checksum"`
	WallMS     float64 `json:"wall_ms"`
	Updates    int64   `json:"updates"`
	MsgsSent   int64   `json:"msgs_sent"`
	Crashes    int64   `json:"crashes"`
	Recoveries int64   `json:"recoveries"`
	Replayed   int64   `json:"replayed"`
	MemPeak    int64   `json:"mem_peak_bytes,omitempty"`
	Spilled    int64   `json:"spilled_bytes,omitempty"`
	// Version is the dataset version the job pinned at dispatch.
	Version uint64 `json:"version"`
	// Incremental marks a warm re-convergence from the fixpoint of
	// IncrementalFrom instead of a cold full run. Incremental results are
	// always verified against the sequential reference of the pinned
	// version (Wrong is never -1 for them).
	Incremental     bool   `json:"incremental,omitempty"`
	IncrementalFrom uint64 `json:"incremental_from,omitempty"`
	// Fallback carries the reason an available fixpoint could NOT be used
	// (mutation-log truncation, version skew), i.e. why this run
	// recomputed from scratch despite prior state.
	Fallback string `json:"fallback,omitempty"`
}

// DrainStats summarizes a graceful drain.
type DrainStats struct {
	// Jobs is how many admitted jobs (running + queued) the drain waited
	// for; Forced of them were cancel-forced by the drain timeout.
	Jobs   int `json:"jobs"`
	Forced int `json:"forced"`
	// WaitMS is how long the drain took end to end.
	WaitMS float64 `json:"wait_ms"`
	// Completed/Failed/Canceled are the service lifetime totals at drain
	// completion.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
}

type job struct {
	id       string
	spec     JobSpec
	deadline time.Duration
	cores    int

	// Guarded by Service.mu.
	state      string
	err        string
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	result     *JobResult

	cancel     chan struct{}
	cancelOnce sync.Once
	timer      *time.Timer
	timerStop  sync.Once
	health     *gap.HealthTracker
	done       chan struct{}
}

func (j *job) terminal() bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Service is the resident job service. Create with New, then Submit jobs
// (directly or through the HTTP API in http.go) and Drain before exit.
type Service struct {
	cfg  Config
	pool *mem.Pool

	mu        sync.Mutex
	seq       int
	jobs      map[string]*job
	order     []string
	queue     []*job
	coresFree int
	running   int
	draining  bool
	drained   chan struct{}

	// Lifetime counters (guarded by mu; read via Stats).
	submitted, admitted, shed                int64
	completed, failed, canceled, quarantined int64
	mutations, mutatedEdges                  int64
	incremental, recomputes                  int64
	terminals                                int // jobs still retained in terminal state

	// timersLive counts armed deadline timers not yet released through
	// stopDeadline. Every terminal path funnels through finalize, so a
	// non-zero residue after all jobs are terminal is a timer leak — the
	// regression tests assert on it.
	timersLive atomic.Int64

	// Durable-layer counters (guarded by mu) and recovery summary
	// (immutable after Open).
	snapshots, snapshotsDeferred, snapshotErrs int64
	recovery                                   *RecoveryStats
	snapStop, snapDone                         chan struct{}
	shutdownOnce                               sync.Once

	drainStart  time.Time
	drainMS     float64
	drainJobs   int
	drainForced int

	data dataCache
}

// Stats is a point-in-time service summary, also exported as /metrics
// families in metrics.go.
type Stats struct {
	Cores, CoresFree, QueueDepth, Queued, Running int
	Draining                                      bool
	Submitted, Admitted, Shed                     int64
	Completed, Failed, Canceled, Quarantined      int64
	// Mutations counts applied edge batches; MutatedEdges the total edge
	// operations in them. Incremental/Recomputes split completed runs that
	// had a prior fixpoint available into warm re-convergences vs flagged
	// full recomputes.
	Mutations, MutatedEdges int64
	Incremental, Recomputes int64
	DeadlineTimers          int64
	DrainMS                 float64
	// Snapshots counts persisted warm-fixpoint flushes; SnapshotsDeferred
	// flushes skipped because the memory pool could not cover the encode;
	// SnapshotErrs failed flush attempts. All zero on ephemeral services.
	Snapshots, SnapshotsDeferred, SnapshotErrs int64
	// Recovery is what startup recovery replayed (nil without a StateDir).
	Recovery *RecoveryStats `json:",omitempty"`
}

// Open builds a Service, recovering durable state first when StateDir is
// set: the state directory is enumerated, each known dataset's WAL is
// replayed (fingerprint-verified) on top of its deterministic base, warm
// fixpoints are reseeded from snapshots, and the periodic flusher starts.
// Datasets without durable state still load lazily on first use.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		pool:      mem.NewPool(cfg.MemBudget, cfg.SpillDir),
		jobs:      make(map[string]*job),
		coresFree: cfg.Cores,
		drained:   make(chan struct{}),
		data:      newDataCache(),
	}
	if cfg.StateDir != "" {
		store, err := durable.OpenStore(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		s.data.store = store
		rs, err := s.recoverAll()
		if err != nil {
			return nil, fmt.Errorf("serve: recover state dir %s: %w", cfg.StateDir, err)
		}
		s.recovery = &rs
		if cfg.SnapshotEvery > 0 {
			s.snapStop = make(chan struct{})
			s.snapDone = make(chan struct{})
			go s.snapshotLoop(cfg.SnapshotEvery)
		}
	}
	return s, nil
}

// New builds an ephemeral-or-durable Service like Open but panics on
// durable-state errors; it exists for callers (and a large body of tests)
// that predate the durability layer and never set StateDir, for which Open
// cannot fail.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("serve.New: %v (use serve.Open to handle durable-state errors)", err))
	}
	return s
}

// Config returns the resolved configuration.
func (s *Service) Config() Config { return s.cfg }

// Preload loads, freezes and partitions a dataset at the given scale for
// the given worker count, so the first job over it does not pay the build.
func (s *Service) Preload(dataset string, scale float64, workers int) error {
	if workers <= 0 {
		workers = s.cfg.MaxWorkersPerJob
	}
	_, err := s.data.pin(dataset, scale, workers)
	return err
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Cores: s.cfg.Cores, CoresFree: s.coresFree,
		QueueDepth: s.cfg.QueueDepth, Queued: len(s.queue), Running: s.running,
		Draining:  s.draining,
		Submitted: s.submitted, Admitted: s.admitted, Shed: s.shed,
		Completed: s.completed, Failed: s.failed, Canceled: s.canceled,
		Quarantined: s.quarantined,
		Mutations:   s.mutations, MutatedEdges: s.mutatedEdges,
		Incremental: s.incremental, Recomputes: s.recomputes,
		DeadlineTimers: s.timersLive.Load(),
		DrainMS:        s.drainMS,
		Snapshots:      s.snapshots, SnapshotsDeferred: s.snapshotsDeferred,
		SnapshotErrs: s.snapshotErrs,
		Recovery:     s.recovery,
	}
}

// Submit admits a job (or sheds it). On success the job is pending or
// already running; its ID resolves through Status/Result/Cancel.
func (s *Service) Submit(spec JobSpec) (string, error) {
	deadline, err := spec.normalize(s.cfg)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted++
	if s.draining {
		return "", ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.shed++
		return "", fmt.Errorf("%w: queue full (%d jobs deep)", ErrSaturated, len(s.queue))
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("job-%d", s.seq),
		spec:     spec,
		deadline: deadline,
		cores:    spec.Workers,
		state:    StatePending,
		queuedAt: time.Now(),
		cancel:   make(chan struct{}),
		health:   &gap.HealthTracker{},
		done:     make(chan struct{}),
	}
	if deadline > 0 {
		j.timer = time.AfterFunc(deadline, func() {
			s.CancelReason(j.id, "deadline exceeded")
		})
		s.timersLive.Add(1)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.admitted++
	s.pump()
	return j.id, nil
}

// pump dispatches queued jobs while core tokens last. FIFO with no
// overtaking: a wide job at the head waits rather than starving behind a
// stream of narrow ones. Callers hold s.mu.
func (s *Service) pump() {
	for len(s.queue) > 0 && s.queue[0].cores <= s.coresFree {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.coresFree -= j.cores
		s.running++
		j.state = StateRunning
		j.startedAt = time.Now()
		go s.execute(j)
	}
}

// stopDeadline releases j's deadline timer exactly once, whatever terminal
// path got here first — normal completion, panic quarantine, queued-then-
// canceled, drain force-cancel, or the timer itself firing. The once guard
// makes the accounting race-free when several of those paths converge on
// finalize concurrently.
func (s *Service) stopDeadline(j *job) {
	if j.timer == nil {
		return
	}
	j.timerStop.Do(func() {
		j.timer.Stop()
		s.timersLive.Add(-1)
	})
}

// finalize moves j to a terminal state, returns its tokens and kicks the
// dispatcher. Callers must NOT hold s.mu. It is the single terminal-
// transition choke point, so the deadline timer is released here on every
// path a job can end through.
func (s *Service) finalize(j *job, state, errMsg string, res *JobResult, heldCores bool) {
	s.stopDeadline(j)
	s.mu.Lock()
	if j.terminal() {
		s.mu.Unlock()
		return
	}
	j.state = state
	j.err = errMsg
	j.finishedAt = time.Now()
	j.result = res
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateCanceled:
		s.canceled++
	}
	if heldCores {
		s.coresFree += j.cores
		s.running--
	}
	s.terminals++
	s.evictLocked()
	s.pump()
	s.checkDrained()
	s.mu.Unlock()
	close(j.done)
}

// evictLocked drops the oldest terminal jobs once more than MaxHistory of
// them are retained, so a resident service's job table, JobResults and
// per-job metric exposition stay bounded under sustained load. Running and
// queued jobs are never evicted. Callers hold s.mu.
func (s *Service) evictLocked() {
	if s.cfg.MaxHistory < 0 {
		return
	}
	for s.terminals > s.cfg.MaxHistory {
		evicted := false
		for i, id := range s.order {
			if s.jobs[id].terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				s.terminals--
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// checkDrained closes the drain gate once draining is on and every admitted
// job is terminal, recording the drain wall time so every Drain caller —
// first or repeat — reports the same stats. Callers hold s.mu.
func (s *Service) checkDrained() {
	if !s.draining || s.running > 0 || len(s.queue) > 0 {
		return
	}
	select {
	case <-s.drained:
	default:
		s.drainMS = float64(time.Since(s.drainStart)) / 1e6
		close(s.drained)
	}
}

// Cancel cancels a job: a queued job is removed, a running one has the
// cancellation propagated through its driver's control plane. Canceling a
// finished job is a no-op. Unknown IDs return an error.
func (s *Service) Cancel(id string) error {
	return s.CancelReason(id, "canceled by client")
}

// CancelReason is Cancel with an explicit reason recorded in the job's Err.
func (s *Service) CancelReason(id, reason string) error {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w %q", ErrNoSuchJob, id)
	}
	if j.terminal() {
		s.mu.Unlock()
		return nil
	}
	if j.state == StatePending {
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		s.finalize(j, StateCanceled, reason, nil, false)
		return nil
	}
	// Running: record the reason and close the driver's cancel channel.
	// The write stays under s.mu — statusLocked readers and finalize touch
	// j.err concurrently — and precedes the close, so execute() reads the
	// reason safely after RunLive observes the cancellation. execute()
	// finalizes when RunLive returns ErrCanceled.
	j.cancelOnce.Do(func() {
		j.err = reason
		close(j.cancel)
	})
	s.mu.Unlock()
	return nil
}

// Status reports one job.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w %q", ErrNoSuchJob, id)
	}
	return s.statusLocked(j), nil
}

// List reports every job in submission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, App: j.spec.App,
		Dataset: j.spec.Dataset, Scale: j.spec.Scale, Workers: j.spec.Workers,
		Err:    j.err,
		Queued: j.queuedAt.Format(time.RFC3339Nano),
	}
	if j.deadline > 0 {
		st.Deadline = j.deadline.String()
	}
	switch {
	case j.state == StatePending:
		st.WaitMS = float64(time.Since(j.queuedAt)) / 1e6
	case j.startedAt.IsZero():
		st.WaitMS = float64(j.finishedAt.Sub(j.queuedAt)) / 1e6
	default:
		st.WaitMS = float64(j.startedAt.Sub(j.queuedAt)) / 1e6
		end := j.finishedAt
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.startedAt)) / 1e6
	}
	if j.state == StateRunning {
		h := j.health.Health()
		st.Dead = h.Dead
		st.Updates = h.Updates
	}
	return st
}

// Result returns a finished job's result summary. Running/pending jobs
// return an error distinguishable from unknown IDs via errors.Is.
var ErrNotFinished = errors.New("serve: job not finished")

func (s *Service) Result(id string) (*JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w %q", ErrNoSuchJob, id)
	}
	if !j.terminal() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotFinished, id, j.state)
	}
	if j.result == nil {
		return nil, fmt.Errorf("serve: job %s %s: %s", id, j.state, j.err)
	}
	return j.result, nil
}

// Wait blocks until the job reaches a terminal state or the timeout lapses
// (timeout <= 0 waits forever). Returns the final status.
func (s *Service) Wait(id string, timeout time.Duration) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w %q", ErrNoSuchJob, id)
	}
	if timeout > 0 {
		select {
		case <-j.done:
		case <-time.After(timeout):
			return s.Status(id)
		}
	} else {
		<-j.done
	}
	return s.Status(id)
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admissions and waits for every admitted job — running and
// queued — to finish. Jobs still unfinished at the first caller's timeout
// are cancel-forced and waited for briefly (a forced job still releases its
// tokens). A zero timeout waits forever. Safe to call repeatedly and
// concurrently: every call blocks until the drain completes and returns the
// same recorded stats (wall time, forced count, final lifetime counters).
func (s *Service) Drain(timeout time.Duration) DrainStats {
	s.mu.Lock()
	first := !s.draining
	var jobs []*job
	if first {
		s.draining = true
		s.drainStart = time.Now()
		s.drainJobs = s.running + len(s.queue)
		for _, j := range s.jobs {
			if !j.terminal() {
				jobs = append(jobs, j)
			}
		}
		s.checkDrained() // nothing in flight: drain completes immediately
	}
	s.mu.Unlock()

	if first && timeout > 0 {
		select {
		case <-s.drained:
		case <-time.After(timeout):
			for _, j := range jobs {
				// Count the forced job under s.mu before cancel-forcing it,
				// so s.drainForced is complete before the last finalize can
				// close s.drained and wake any waiter below.
				s.mu.Lock()
				force := !j.terminal()
				if force {
					s.drainForced++
				}
				s.mu.Unlock()
				if force {
					s.CancelReason(j.id, "drain timeout")
				}
			}
		}
	}
	<-s.drained

	// Every admitted job is terminal: flush the warm cache one last time
	// and close the WALs so the state dir is consistent the moment Drain
	// returns (idempotent across repeat callers).
	s.shutdownDurable()

	// The drain wall time was recorded by checkDrained at gate-close, so
	// first and repeat callers all rebuild the same stats here.
	s.mu.Lock()
	defer s.mu.Unlock()
	return DrainStats{
		Jobs: s.drainJobs, Forced: s.drainForced, WaitMS: s.drainMS,
		Completed: s.completed, Failed: s.failed, Canceled: s.canceled,
	}
}
