package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"argan/internal/algorithms"
	"argan/internal/graph"
	"argan/internal/serve"
)

// RunConfig sizes one run of one workload.
type RunConfig struct {
	W     Workload
	Seed  int64
	Scale float64
	// Seconds is how long the timed rounds measure. Rounds > 0 replaces the
	// clock with a fixed count of timed rounds per client (the smoke test).
	Seconds float64
	Rounds  int
	// ColdStarts is how many times the server is started on an empty state
	// directory; setup_s is their median and the last one stays up.
	ColdStarts int
	// Warmup is the number of discarded rounds before timed ones.
	Warmup int
	// History is the number of WAL records on disk when the server is
	// killed (see historyMutates).
	History int
	// Recoveries is how many times the server is killed and restarted on the
	// state directory that holds the history; recover_s is the fastest.
	Recoveries int
	// AwaitSnapshot makes a churn workload wait for the server's first
	// snapshot flush before the kill. The smoke test, whose whole history
	// takes a tenth of the flush period, leaves it off.
	AwaitSnapshot bool
	// MinRounds is the fewest timed rounds a clocked run accepts per client:
	// on a box so slow that Seconds fits fewer, the run keeps going rather
	// than report percentiles nothing supports.
	MinRounds int

	Bin     string // arganrun binary
	WorkDir string // state directories are created here

	// Tracer, when set, records client-side spans around the HTTP requests
	// of every second timed round; the rounds in between stay untraced, and
	// the ratio of the two round times is the tracing overhead.
	Tracer *Tracer
}

// pollEvery is the job-status poll period. serve.Client.WaitTerminal sleeps
// 20 ms per poll, which quantises the 25-50 ms jobs measured here.
const pollEvery = 2 * time.Millisecond

// jobMode is what a round expects of its jobs.
type jobMode int

const (
	modeAny  jobMode = iota // warm-up and post-restart rounds: done and not wrong
	modeCold                // static timed rounds: a cold full run
	modeInc                 // churn timed rounds: a verified warm increment
)

// ClientSamples is every timed observation of one closed-loop client, by
// class: "<app>_job_ms" (client-clock latency), "<app>_run_ms" and
// "<app>_wall_ms" (JobStatus.run_ms, JobResult.wall_ms), "<app>_overhead_ms"
// (their difference), "<app>_updates", "<app>_msgs", "queue_wait_ms"
// (JobStatus.wait_ms), "http_overhead_ms" (latency - wait - run) and
// "round_jobs_ms" (the job-phase wall time of one round). Classes stay per
// client because two tenants on different datasets are two distributions: a
// percentile of their mixture would measure the mixing ratio.
type ClientSamples map[string]*Sample

func (c ClientSamples) add(class string, v float64) {
	s := c[class]
	if s == nil {
		s = &Sample{}
		c[class] = s
	}
	s.Add(v)
}

// Samples is every raw observation of a run's timed operations.
type Samples struct {
	Clients []ClientSamples
	Mutate  Sample // client-clock mutate round trip, ms
	Rebuilt Sample // MutateResult.rebuilt_fragments

	Incremental, Fallbacks, TimedJobs int
}

func newSamples(clients int) *Samples {
	s := &Samples{}
	for i := 0; i < clients; i++ {
		s.Clients = append(s.Clients, ClientSamples{})
	}
	return s
}

// Outcome is everything one run observed; metrics.go turns it into the
// named metrics.
type Outcome struct {
	Cfg RunConfig
	Gen *Generator
	S   *Samples
	Ops Ops

	SetupS   []float64 // one per cold start
	RecoverS []float64 // one per restart on the state directory
	// RecoveryStats is what the restarted server says it replayed.
	Recovery serve.RecoveryStats
	HWMKB    float64 // max VmHWM over the measured server processes
	RSSEndKB float64
	CPUS     float64 // server CPU seconds over the timed rounds
	Rounds   int     // timed rounds, all clients
	// WALBytes / Mutates give durable.wal_bytes_per_mutate.
	WALBytes int64
	Mutates  int
	Stats    serve.Stats // GET /api/service at the end
	// Snapshots sums Stats.Snapshots over both measured server processes.
	Snapshots int64
	Versions  map[string]uint64 // last acknowledged version per dataset
	// Batches are the mutate requests sent, in order, for the traced replay.
	Batches []Batch

	ServerCmd string
	Elapsed   time.Duration
}

type runner struct {
	cfg RunConfig
	gen *Generator
	out *Outcome

	srv *Server
	// mu guards out and checksums while two clients run. The generator needs
	// no lock: only single-client workloads draw batches during rounds.
	mu sync.Mutex
	// checksums[dataset][app] is the first checksum seen at the current
	// version of a static dataset; sssp/bfs/wcc must repeat it exactly.
	checksums map[string]map[string]float64
}

// Run executes one workload end to end against a real server process.
func Run(cfg RunConfig) (*Outcome, error) {
	start := time.Now()
	gen, err := NewGenerator(cfg.W, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg: cfg, gen: gen,
		out: &Outcome{
			Cfg: cfg, Gen: gen, S: newSamples(len(cfg.W.Datasets)),
			Versions: make(map[string]uint64),
		},
		checksums: make(map[string]map[string]float64),
	}
	defer func() {
		if r.srv != nil {
			r.srv.Kill()
		}
	}()
	if err := r.run(); err != nil {
		return nil, err
	}
	r.out.Elapsed = time.Since(start)
	return r.out, nil
}

func (r *runner) run() error {
	cfg, w := r.cfg, r.cfg.W
	stateDir, err := r.coldStarts()
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	clients := make([]*serve.Client, len(w.Datasets))
	connect := func() {
		for i := range clients {
			clients[i] = newClient(r.srv.Base)
		}
	}
	connect()

	// Phase A, on the cold-started server: write the fixed mutation history.
	var timedSpent time.Duration
	preKill := 0
	if w.churn() {
		for i := 0; i < cfg.Warmup; i++ {
			if _, err := r.round(0, clients[0], modeAny, w.Verify, false); err != nil {
				return err
			}
		}
		preKill = cfg.History - cfg.Warmup
		if cfg.Rounds > 0 && preKill >= cfg.Rounds {
			preKill = cfg.Rounds - 1
		}
		cpu0, _ := procCPU(r.srv.cmd.Process.Pid)
		for i := 0; i < preKill; i++ {
			d, err := r.round(0, clients[0], modeInc, w.Verify, true)
			if err != nil {
				return err
			}
			timedSpent += d
		}
		cpu1, _ := procCPU(r.srv.cmd.Process.Pid)
		r.out.CPUS += cpu1 - cpu0
	} else {
		for i := 0; i < cfg.History; i++ {
			b, err := r.gen.NextHistory(i)
			if err != nil {
				return err
			}
			r.mutate(clients[0], b, true, cfg.Tracer)
		}
	}
	if w.churn() && cfg.AwaitSnapshot {
		// The history takes a churn workload about as long as the server's
		// 10 s snapshot period. Whether a warm-fixpoint snapshot is on disk
		// at the kill decides how much the restart has to read, so wait for
		// the first flush rather than leave it to the speed of the box.
		if err := waitSnapshot(clients[0], 30*time.Second); err != nil {
			return err
		}
	}
	r.out.WALBytes, r.out.Mutates = walSize(stateDir), len(r.out.Batches)
	if err := r.noteServerEnd(clients[0]); err != nil {
		return err
	}

	// kill -9, then restart on the same state directory, Recoveries times
	// over. A recovered server that is killed before it serves anything
	// leaves the directory as it found it, so every restart replays the same
	// history; the fastest one is the recovery the neighbours disturbed least.
	for i := 0; i < cfg.Recoveries; i++ {
		r.srv.Kill()
		t0 := time.Now()
		if r.srv, err = startServer(cfg.Bin, serverArgs(w, cfg.Scale, stateDir)); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		connect()
		if err := waitDatasets(clients[0], cfg.Scale, r.out.Versions, time.Minute); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		r.out.RecoverS = append(r.out.RecoverS, time.Since(t0).Seconds())
	}

	// Phase B, on the recovered server: one verified round per client
	// (correctness of the recovered state, and it re-seeds the warm
	// fixpoints a churn round increments from), warm-up, timed rounds.
	for i, c := range clients {
		if _, err := r.round(i, c, modeAny, true, false); err != nil {
			return err
		}
	}
	st, err := clients[0].Stats()
	if err != nil {
		return err
	}
	if st.Recovery != nil {
		r.out.Recovery = *st.Recovery
	}
	mode := modeCold
	if w.churn() {
		mode = modeInc
	}
	eachClient := func(f func(i int, c *serve.Client) error) error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *serve.Client) {
				defer wg.Done()
				errs[i] = f(i, c)
			}(i, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	err = eachClient(func(i int, c *serve.Client) error {
		for k := 0; k < cfg.Warmup; k++ {
			if _, err := r.round(i, c, modeAny, w.Verify, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	cpu0, _ := procCPU(r.srv.cmd.Process.Pid)
	deadline := time.Now().Add(time.Duration(cfg.Seconds*float64(time.Second)) - timedSpent)
	err = eachClient(func(i int, c *serve.Client) error {
		for n := preKill; ; n++ {
			if cfg.Rounds > 0 {
				if n >= cfg.Rounds {
					return nil
				}
			} else if n >= cfg.MinRounds && !time.Now().Before(deadline) {
				return nil
			}
			if _, err := r.round(i, c, mode, w.Verify, true); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	cpu1, _ := procCPU(r.srv.cmd.Process.Pid)
	r.out.CPUS += cpu1 - cpu0
	if err := r.noteServerEnd(clients[0]); err != nil {
		return err
	}
	r.out.ServerCmd = r.srv.CommandLine()
	return r.audit(clients)
}

// coldStarts starts the server ColdStarts times, each on an empty state
// directory, records spawn-to-listed times, and leaves the last one running.
func (r *runner) coldStarts() (stateDir string, err error) {
	cfg := r.cfg
	want := make(map[string]uint64, len(cfg.W.Datasets))
	for _, d := range cfg.W.Datasets {
		want[d] = 0
		r.out.Versions[d] = 0
	}
	for i := 0; i < cfg.ColdStarts; i++ {
		if stateDir, err = os.MkdirTemp(cfg.WorkDir, "state-"); err != nil {
			return "", err
		}
		t0 := time.Now()
		srv, err := startServer(cfg.Bin, serverArgs(cfg.W, cfg.Scale, stateDir))
		if err == nil {
			err = waitDatasets(newClient(srv.Base), cfg.Scale, want, time.Minute)
			r.out.SetupS = append(r.out.SetupS, time.Since(t0).Seconds())
			if err == nil && i == cfg.ColdStarts-1 {
				r.srv = srv
				break
			}
			srv.Kill()
		}
		os.RemoveAll(stateDir)
		if err != nil {
			return "", err
		}
	}
	return stateDir, nil
}

// noteServerEnd reads what must be read from a server process before it is
// killed: peak and current RSS, and the snapshot count.
func (r *runner) noteServerEnd(c *serve.Client) error {
	hwm, rss, err := procStatus(r.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.out.HWMKB = math.Max(r.out.HWMKB, hwm)
	r.out.RSSEndKB = rss
	st, err := c.Stats()
	if err != nil {
		return err
	}
	r.out.Stats = st
	r.out.Snapshots += st.Snapshots
	return nil
}

// mutate sends one generated batch and accounts for it. timed says whether
// its latency is a sample.
func (r *runner) mutate(c *serve.Client, b Batch, timed bool, tr *Tracer) {
	expect := b.Expect
	req := serve.MutateRequest{Scale: r.cfg.Scale, ExpectVersion: &expect, Inserts: b.Inserts, Deletes: b.Deletes}
	sp := tr.Start("http.mutate", 0, tr.NewOp())
	t0 := time.Now()
	res, err := c.Mutate(b.Dataset, req)
	ms := msSince(t0)
	tr.End(sp)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.Batches = append(r.out.Batches, b)
	switch {
	case err != nil:
		r.out.Ops.fail("mutate %s v%d: %v", b.Dataset, b.Expect, err)
		return
	case res.NewVersion != b.Expect+1:
		r.out.Ops.fail("mutate %s v%d: acknowledged version %d", b.Dataset, b.Expect, res.NewVersion)
	default:
		r.out.Ops.ok()
	}
	r.out.Versions[b.Dataset] = res.NewVersion
	delete(r.checksums, b.Dataset)
	if timed {
		r.out.S.Mutate.Add(ms)
		r.out.S.Rebuilt.Add(float64(res.RebuiltFragments))
	}
}

// jobObs is one job as the client saw it.
type jobObs struct {
	ms     float64
	status serve.JobStatus
	result *serve.JobResult
}

// runJob submits one job and polls it to a terminal state on the client's
// single connection. Latency runs from just before the POST to the first
// status read that shows a terminal state.
func (r *runner) runJob(c *serve.Client, spec serve.JobSpec, tr *Tracer) (jobObs, error) {
	op := tr.NewOp()
	parent := tr.Start("http."+spec.App+"_job", 0, op)
	defer tr.End(parent)
	t0 := time.Now()
	sp := tr.Start("http.submit", parent, op)
	id, err := c.Submit(spec)
	tr.End(sp)
	if err != nil {
		return jobObs{}, err
	}
	for {
		sp = tr.Start("http.poll", parent, op)
		st, err := c.Status(id)
		tr.End(sp)
		if err != nil {
			return jobObs{}, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			o := jobObs{ms: msSince(t0), status: st}
			if st.State == serve.StateDone {
				sp = tr.Start("http.result", parent, op)
				o.result, err = c.Result(id)
				tr.End(sp)
			}
			return o, err
		}
		if time.Since(t0) > time.Minute {
			return jobObs{}, fmt.Errorf("job %s still %s after a minute", id, st.State)
		}
		time.Sleep(pollEvery)
	}
}

// round runs one round for client i: the workload's mutate (churn only),
// then the four apps closed-loop. It returns the round's wall time. An error
// means the run cannot continue (transport failure); anything the service
// answered wrongly is a failed operation, not an error.
func (r *runner) round(i int, c *serve.Client, mode jobMode, verify, timed bool) (time.Duration, error) {
	w, d := r.cfg.W, r.cfg.W.Datasets[i]
	// Every second timed round of a traced run records spans.
	var tr *Tracer
	traced := timed && r.cfg.Tracer != nil && r.out.S.Clients[i]["round_jobs_ms"].N()%2 == 1
	if traced {
		tr = r.cfg.Tracer
	}
	t0 := time.Now()
	if w.churn() {
		b, err := r.gen.NextRound(d)
		if err != nil {
			return 0, err
		}
		t0 = time.Now() // drawing the batch is the benchmark's work, not the server's
		r.mutate(c, b, timed, tr)
	}
	jobs0 := time.Now()
	for _, app := range apps {
		spec := serve.JobSpec{
			App: app, Dataset: d, Scale: r.cfg.Scale, Workers: w.Workers,
			Source: r.gen.Source(d), Verify: verify,
		}
		o, err := r.runJob(c, spec, tr)
		if errors.Is(err, serve.ErrSaturated) {
			r.mu.Lock()
			r.out.Ops.fail("%s job shed: %v", app, err)
			r.mu.Unlock()
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("%s job on %s: %w", app, d, err)
		}
		r.account(i, app, o, mode, timed)
	}
	if timed {
		r.mu.Lock()
		ms := msSince(jobs0)
		r.out.S.Clients[i].add("round_jobs_ms", ms)
		if traced {
			r.out.S.Clients[i].add("round_jobs_traced_ms", ms)
		} else if r.cfg.Tracer != nil {
			r.out.S.Clients[i].add("round_jobs_untraced_ms", ms)
		}
		r.out.Rounds++
		r.mu.Unlock()
	}
	return time.Since(t0), nil
}

// account checks one finished job against what its round expects and, for
// timed rounds, files its observations.
func (r *runner) account(client int, app string, o jobObs, mode jobMode, timed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dataset := r.cfg.W.Datasets[client]
	ops, res := &r.out.Ops, o.result
	switch {
	case o.status.State != serve.StateDone:
		ops.fail("%s job %s %s: %s", app, o.status.ID, o.status.State, o.status.Err)
		return
	case res.Wrong > 0:
		ops.fail("%s job %s: %d vertices wrong", app, o.status.ID, res.Wrong)
	case res.Version != r.out.Versions[dataset]:
		ops.fail("%s job %s ran on version %d, last acknowledged is %d", app, o.status.ID, res.Version, r.out.Versions[dataset])
	case mode == modeInc && (!res.Incremental || res.Fallback != "" || res.Wrong != 0):
		ops.fail("%s job %s on a churn round: incremental=%v fallback=%q wrong=%d", app, o.status.ID, res.Incremental, res.Fallback, res.Wrong)
	case mode == modeCold && res.Incremental:
		ops.fail("%s job %s on a static round was incremental", app, o.status.ID)
	case !r.checksumRepeats(dataset, app, res.Checksum):
		ops.fail("%s job %s: checksum %v differs from an earlier job on the same version", app, o.status.ID, res.Checksum)
	default:
		ops.ok()
	}
	if !timed {
		return
	}
	s := r.out.S
	s.TimedJobs++
	if res.Incremental {
		s.Incremental++
	}
	if res.Fallback != "" {
		s.Fallbacks++
	}
	c := s.Clients[client]
	c.add(app+"_job_ms", o.ms)
	c.add(app+"_run_ms", o.status.RunMS)
	c.add(app+"_wall_ms", res.WallMS)
	c.add(app+"_overhead_ms", o.status.RunMS-res.WallMS)
	c.add(app+"_updates", float64(res.Updates))
	c.add(app+"_msgs", float64(res.MsgsSent))
	c.add("queue_wait_ms", o.status.WaitMS)
	c.add("http_overhead_ms", o.ms-o.status.WaitMS-o.status.RunMS)
}

// checksumRepeats holds the exact fixpoints (sssp, bfs, wcc) to one checksum
// per dataset version. PageRank converges to within eps, not to a bit
// pattern, so it is exempt.
func (r *runner) checksumRepeats(dataset, app string, sum float64) bool {
	if app == "pr" {
		return true
	}
	m := r.checksums[dataset]
	if m == nil {
		m = make(map[string]float64)
		r.checksums[dataset] = m
	}
	if prev, seen := m[app]; seen {
		return prev == sum
	}
	m[app] = sum
	return true
}

// audit closes the run: the service must have shed nothing, every dataset
// must list its last acknowledged version, and a final verified job per app
// must match checksums the benchmark computes itself from its shadow graph,
// so the outputs are checked against something other than the server.
func (r *runner) audit(clients []*serve.Client) error {
	cfg, ops := r.cfg, &r.out.Ops
	if r.out.Stats.Shed != 0 {
		ops.fail("service shed %d submissions", r.out.Stats.Shed)
	}
	infos, err := clients[0].Datasets()
	if err != nil {
		return err
	}
	for _, in := range infos {
		if want, ok := r.out.Versions[in.Dataset]; ok && in.Scale == cfg.Scale && in.Version != want {
			ops.fail("dataset %s at version %d, last acknowledged %d", in.Dataset, in.Version, want)
		}
	}
	for i, d := range cfg.W.Datasets {
		g := r.gen.Shadow(d)
		if g.Version() != r.out.Versions[d] {
			ops.fail("shadow of %s at version %d, server acknowledged %d", d, g.Version(), r.out.Versions[d])
			continue
		}
		want := referenceChecksums(g, r.gen.Source(d))
		for _, app := range apps {
			o, err := r.runJob(clients[i], serve.JobSpec{
				App: app, Dataset: d, Scale: cfg.Scale, Workers: cfg.W.Workers,
				Source: r.gen.Source(d), Verify: true,
			}, nil)
			if err != nil {
				return err
			}
			switch {
			case o.result == nil || o.result.Wrong != 0:
				ops.fail("audit %s on %s: state %s", app, d, o.status.State)
			case app == "pr" && math.Abs(o.result.Checksum-want[app]) > 0.02*want[app]:
				ops.fail("audit pr on %s: checksum %v, reference %v", d, o.result.Checksum, want[app])
			case app != "pr" && o.result.Checksum != want[app]:
				ops.fail("audit %s on %s: checksum %v, reference %v", app, d, o.result.Checksum, want[app])
			default:
				ops.ok()
			}
		}
	}
	return nil
}

// referenceChecksums computes, from the sequential algorithms, the checksum
// the service reports for each app: the sum over vertices of the value, with
// unreachable vertices counting 0.
func referenceChecksums(g *graph.Graph, source int) map[string]float64 {
	out := make(map[string]float64, len(apps))
	for _, v := range algorithms.SeqSSSP(g, graph.VID(source)) {
		if !math.IsInf(v, 1) {
			out["sssp"] += v
		}
	}
	for _, v := range algorithms.SeqBFS(g, graph.VID(source)) {
		if v >= 0 {
			out["bfs"] += float64(v)
		}
	}
	for _, v := range algorithms.SeqWCC(g) {
		out["wcc"] += float64(v)
	}
	for _, v := range algorithms.SeqPageRank(g, 1e-3) {
		out["pr"] += v
	}
	return out
}

// newWorkDir creates the directory a run keeps its state directories in,
// under the module root so that nothing is written outside the checkout.
func newWorkDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "w-")
}
