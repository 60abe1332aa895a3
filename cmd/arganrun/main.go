// Command arganrun executes one graph application over an edge-list file
// (or a built-in dataset stand-in) under a chosen system or parallel model
// and reports the result summary and run metrics.
//
// Usage:
//
//	arganrun -app sssp -dataset LJ -n 16 -source 0
//	arganrun -app pr -graph web.el -system Grape+
//	arganrun -app color -dataset HW -system GraphLab_sync   # reports NA
//
// Fault injection (sim driver; see internal/fault for the grammar):
//
//	-faults SPEC       inject a fault plan, given inline ("crash=1@300+150;
//	                   drop=0.05") or as a file of spec lines. Crashed
//	                   workers are recovered from periodic checkpoints when
//	                   the crash schedules a restart ("+R").
//	-no-recover        strip the restarts from the plan: crashed workers
//	                   stay dead and the run reports non-convergence.
//	-ckpt-every N      each worker's checkpoint interval in virtual cost units.
//
// Live driver (real goroutines; apps sssp, bfs, wcc, pr):
//
//	-soak N            run under the live driver, N times (the fault plan's
//	                   seed is re-derived per iteration), verify every run
//	                   against the sequential reference, and print a soak
//	                   summary. Any mismatch makes the exit code non-zero.
//	                   -system picks the mode; the live driver runs those
//	                   of Argan, Grape*, GraphLab_async and Maiter only.
//	                   Plan times are wall-clock milliseconds here; crashes
//	                   with a restart are repaired by per-worker logging
//	                   checkpoints, survivor-local repair and message replay.
//	-mem-budget BYTES  bound the live driver's memory (k/m/g suffixes, e.g.
//	                   64m). Recovery logs, checkpoints and reorder buffers
//	                   are accounted against the budget; under pressure the
//	                   driver pages logs and checkpoints to the spill dir,
//	                   forces early checkpoints and backpressures senders
//	                   instead of OOMing. The graph itself is never paged.
//	                   Each soak iteration gets a fresh governor.
//	-spill-dir DIR     where spilled state lives (default: the OS temp dir).
//
// Observability (applies to the ACE applications, not -stats/-app mst):
//
//	-trace FILE        write the run's event trace as Chrome trace-event
//	                   JSON: open in Perfetto (ui.perfetto.dev) or
//	                   chrome://tracing; one span track per worker with
//	                   LocalEval/h_in/h_out/Adjust spans, counter tracks,
//	                   indicator-flip (R1/R2/R3) instants and
//	                   crash/detect/restart/ckpt fault events. Virtual
//	                   cost units are rendered as microseconds.
//	-metrics-out FILE  write long-format CSV time series
//	                   (time,worker,series,value) with per-worker η, φ,
//	                   active-set size, mailbox depth and cumulative
//	                   counters — the input for Fig. 7/8-style plots.
//	-progress DUR      while the run executes, print a live progress line
//	                   (virtual time, busy workers, updates, backlog, and —
//	                   under a governed live run — memory stage and spilled
//	                   bytes) every DUR (e.g. -progress 500ms). Warns when
//	                   the trace ring dropped events.
//	-serve ADDR        start the telemetry plane on ADDR (e.g. :9090 or
//	                   127.0.0.1:0) for the duration of the run: Prometheus
//	                   /metrics, JSON /status, /healthz + /readyz wired to
//	                   the live control plane, and /debug/pprof. The server
//	                   spans every soak iteration.
//	-report FILE       after the run, write the critical-path straggler
//	                   attribution report (per-worker compute/wait/
//	                   replay/spill/throttle shares, straggler chain) as
//	                   text to FILE ("-" = stdout).
//	-report-json FILE  the same report as JSON ("-" = stdout).
//
// Job service (resident multi-tenant mode):
//
//	arganrun serve -addr 127.0.0.1:9090 -cores 8 -queue 16 -mem-budget 256m
//
// Starts a long-lived server that loads frozen datasets once and admits
// many concurrent GAP jobs over shared immutable fragments (POST
// /api/jobs, GET /api/jobs/{id}, .../result, .../cancel — see
// internal/serve). Saturation sheds with 429, deadlines and cancellations
// propagate into each job's driver, a panicking job is quarantined without
// touching its neighbors, and SIGTERM drains gracefully: admissions stop,
// every admitted job finishes, the process exits 0. See `arganrun serve
// -h` for the flag set.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/mem"
	"argan/internal/obs"
	"argan/internal/obs/crit"
	obsserve "argan/internal/obs/serve"
	"argan/internal/serve"
	"argan/internal/systems"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "serve" {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
		os.Exit(runServe(args[1:], os.Stdout, os.Stderr, stop))
	}
	os.Exit(run(args, os.Stdout, os.Stderr))
}

// run is main's testable body: parse flags, execute, report. Errors print
// to stderr and become exit code 1 (2 for flag-parse errors), never panics.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arganrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "sssp", "application: "+strings.Join(algorithms.AppNames(), ", ")+", mst")
	file := fs.String("graph", "", "edge-list file (see graph.ReadEdgeList)")
	dataset := fs.String("dataset", "", "built-in dataset stand-in (HW, DP, LJ, TW, FS, UK)")
	scale := fs.Float64("scale", 0.25, "dataset scale")
	n := fs.Int("n", 16, "number of workers")
	system := fs.String("system", "Argan", "system: Argan, Grape, Grape+, Grape*, GraphLab_sync, GraphLab_async, PowerSwitch, Maiter")
	source := fs.Int("source", 0, "source vertex for sssp/bfs")
	eps := fs.Float64("eps", 1e-3, "delta threshold for pr")
	hetero := fs.Float64("hetero", 0, "execution-noise amplitude")
	top := fs.Int("top", 5, "print the top-k result vertices")
	stats := fs.Bool("stats", false, "print structural graph statistics and exit")
	faults := fs.String("faults", "", "fault plan `SPEC` (inline or a file of spec lines)")
	noRecover := fs.Bool("no-recover", false, "strip restarts from the fault plan (crashed workers stay dead)")
	ckptEvery := fs.Float64("ckpt-every", 0, "each worker's checkpoint interval in virtual cost units; one worker checkpoints per N/workers (0 = default)")
	soak := fs.Int("soak", 0, "run under the live driver `N` times, verifying each run against the sequential reference (0 = sim driver)")
	memBudget := fs.String("mem-budget", "", "live-driver memory budget in `BYTES` (k/m/g suffixes; empty = unbounded)")
	spillDir := fs.String("spill-dir", "", "directory for spilled logs and checkpoints (default: the OS temp dir)")
	traceFile := fs.String("trace", "", "write Chrome trace-event JSON (Perfetto) to `FILE`")
	metricsOut := fs.String("metrics-out", "", "write per-worker time-series CSV to `FILE`")
	progress := fs.Duration("progress", 0, "print live progress every `DUR` (0 disables)")
	serveAddr := fs.String("serve", "", "serve /metrics, /status, /healthz, /readyz and /debug/pprof on `ADDR` while the run executes")
	report := fs.String("report", "", "write the straggler attribution report as text to `FILE` (\"-\" = stdout)")
	reportJSON := fs.String("report-json", "", "write the straggler attribution report as JSON to `FILE` (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		fmt.Fprintf(stderr, "arganrun: -mem-budget: %v\n", err)
		return 2
	}

	if err := runMain(stdout, stderr, options{
		app: *app, file: *file, dataset: *dataset, scale: *scale, n: *n,
		system: *system, source: *source, eps: *eps, hetero: *hetero,
		top: *top, stats: *stats,
		faults: *faults, noRecover: *noRecover, ckptEvery: *ckptEvery,
		soak: *soak, memBudget: budget, spillDir: *spillDir,
		traceFile: *traceFile, metricsOut: *metricsOut, progress: *progress,
		serveAddr: *serveAddr, report: *report, reportJSON: *reportJSON,
	}); err != nil {
		fmt.Fprintf(stderr, "arganrun: %v\n", err)
		return 1
	}
	return 0
}

type options struct {
	app, file, dataset    string
	scale                 float64
	n                     int
	system                string
	source                int
	eps, hetero           float64
	top                   int
	stats                 bool
	faults                string
	noRecover             bool
	ckptEvery             float64
	soak                  int
	memBudget             int64
	spillDir              string
	traceFile, metricsOut string
	progress              time.Duration
	serveAddr             string
	report, reportJSON    string
}

// wantsRecorder reports whether any observability sink needs a trace.
func (o options) wantsRecorder() bool {
	return o.traceFile != "" || o.metricsOut != "" || o.progress > 0 ||
		o.serveAddr != "" || o.report != "" || o.reportJSON != ""
}

// parseBytes reads a byte count with an optional k/m/g (KiB/MiB/GiB) suffix.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 67108864, 64m, 1g)", s)
	}
	return v * mult, nil
}

func runMain(stdout, stderr io.Writer, o options) error {
	var g *graph.Graph
	var err error
	switch {
	case o.file != "":
		f, ferr := os.Open(o.file)
		if ferr != nil {
			return fmt.Errorf("opening graph file: %w", ferr)
		}
		g, err = graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading graph file %s: %w", o.file, err)
		}
	case o.dataset != "":
		if g, err = graph.LoadDataset(o.dataset, o.scale); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -graph or -dataset")
	}
	fmt.Fprintf(stdout, "graph: %v\n", g)
	if o.stats {
		st := graph.ComputeStats(g)
		fmt.Fprintf(stdout, "avg degree %.1f, max %d (p99 %d), skew %.1f, tail alpha %.2f, giant component %.0f%%\n",
			st.AvgDegree, st.MaxDegree, st.DegreeP99, st.Skew, st.PowerLawAlpha, 100*st.GiantComponentFrac)
		return nil
	}
	env := core.Env{Workers: o.n, Hetero: o.hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return err
	}
	if o.app == "mst" {
		edges, total, rounds, err := core.MST(g, frags, env.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "minimum spanning forest: %d edges, total weight %.1f, %d Borůvka rounds\n",
			len(edges), total, rounds)
		return nil
	}

	var plan *fault.Plan
	if o.faults != "" {
		if plan, err = fault.Load(o.faults); err != nil {
			return err
		}
		if o.noRecover {
			for i := range plan.Crashes {
				plan.Crashes[i].Restart = -1
			}
		}
	}
	var d driver
	if o.soak != 0 {
		d, err = soakDriver(stdout, o, g, frags, plan)
	} else {
		d, err = simDriver(stdout, o, g, frags, plan)
	}
	if err != nil {
		return err
	}
	var rec *obs.Recorder
	if o.wantsRecorder() {
		rec = obs.NewRecorder(d.tracks, 0)
	}
	if o.serveAddr != "" {
		srv, err := startTelemetry(stdout, o, rec, d)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	var report func() error
	ticking(stderr, o.progress, rec, d.health, func() { report, err = d.run(rec) })
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeOutputs(stdout, rec, o); err != nil {
			return err
		}
	}
	return report()
}

// driver is the one fork of the CLI's run path: which driver executes the
// app. Loading the fault plan, the recorder, the telemetry plane, the
// progress line and the exports are the same for both.
type driver struct {
	name   string // "sim" or "live", for the telemetry plane's run info
	tracks int    // the recorder's tracks
	// health is the live control plane's view, nil under the sim.
	health *gap.HealthTracker
	// metrics are extra families for the telemetry plane.
	metrics []obsserve.Metric
	// run executes the app, tracing to rec when it is not nil, and returns
	// what prints the result once the exports are written.
	run func(rec *obs.Recorder) (report func() error, err error)
}

// simDriver runs the app once under the sim driver, configured as -system.
func simDriver(stdout io.Writer, o options, g *graph.Graph, frags []*graph.Fragment, plan *fault.Plan) (driver, error) {
	sys, err := systems.ByName(o.system)
	if err != nil {
		return driver{}, err
	}
	job, err := sys.Job(o.app)
	if err != nil {
		return driver{}, err
	}
	if err := job.Reads.CheckSource(o.app, o.source, g.NumVertices()); err != nil {
		return driver{}, err
	}
	q := job.Reads.Query(func() graph.VID { return graph.VID(o.source) }, o.eps,
		func() *graph.Graph { return algorithms.RandomPattern(g, 4, 5, 42) })
	cfg := sys.Config(core.Env{Workers: o.n, Hetero: o.hetero}.DefaultConfig())
	if plan != nil {
		cfg.Faults = plan
		cfg.FT.CheckpointEvery = o.ckptEvery
	}
	return driver{name: "sim", tracks: o.n, run: func(rec *obs.Recorder) (func() error, error) {
		if rec != nil {
			cfg.Tracer = rec
		}
		m, err := job.Run(frags, q, cfg)
		if err != nil {
			return nil, err
		}
		return func() error {
			if !m.Converged {
				if m.Crashes > m.Recoveries {
					fmt.Fprintln(stdout, "result: NA (a crashed worker was never recovered)")
				} else {
					fmt.Fprintln(stdout, "result: NA (did not converge — oscillating synchronous execution)")
				}
				return nil
			}
			fmt.Fprintf(stdout, "response time : %.0f cost units\n", m.RespTime)
			fmt.Fprintf(stdout, "updates       : %d over %d rounds, %d messages (%d bytes)\n",
				m.Updates, m.Rounds, m.MsgsSent, m.BytesSent)
			fmt.Fprintf(stdout, "composition   : busy=%.0f  T_w=%.0f  T_c=%.0f  T_a=%.0f  phi=%.1f%%\n",
				m.TotalBusy, m.TotalTw, m.TotalTc, m.TotalTa, 100*m.Phi)
			if plan != nil {
				fmt.Fprintf(stdout, "faults        : crashes=%d recoveries=%d checkpoints=%d T_f=%.0f\n",
					m.Crashes, m.Recoveries, m.Checkpoints, m.TotalTf)
			}
			fmt.Fprint(stdout, m.Summary(o.top))
			return nil
		}, nil
	}}, nil
}

// soakDriver is the -soak path: execute the application under the LIVE
// driver (real goroutines, wall-clock fault plans) o.soak times, verify every
// run against the sequential reference, and summarize. Any incorrect vertex
// makes the whole soak fail with a non-zero exit.
func soakDriver(stdout io.Writer, o options, g *graph.Graph, frags []*graph.Fragment, plan *fault.Plan) (driver, error) {
	if o.soak < 0 {
		return driver{}, fmt.Errorf("-soak must be >= 0, got %d", o.soak)
	}
	// The live driver refuses the modes it lacks (the synchronous and
	// PowerSwitch systems) when the first iteration starts.
	sys, err := systems.ByName(o.system)
	if err != nil {
		return driver{}, err
	}
	// The per-iteration runner: execute one live run and count wrong
	// vertices against the precomputed sequential reference.
	once, err := serve.LiveJobFor(o.app, g, frags, o.source, o.eps)
	if err != nil {
		return driver{}, err
	}
	// The health tracker outlives individual iterations, so /healthz and
	// /readyz report continuously across the soak.
	health := &gap.HealthTracker{}
	var iterDone int64 // completed soak iterations, for the telemetry plane
	d := driver{
		// One recorder spans every iteration (n worker tracks plus the
		// monitor's coordinator track), so recovery spans and replay marks
		// of the whole soak land in one export.
		name: "live", tracks: o.n + 1, health: health,
		metrics: []obsserve.Metric{{
			Name: "argan_soak_iterations_total",
			Help: "Soak iterations finished under this process.",
			Type: "counter",
			Collect: func() []obsserve.Sample {
				return []obsserve.Sample{{Value: float64(atomic.LoadInt64(&iterDone))}}
			},
		}},
	}
	d.run = func(rec *obs.Recorder) (func() error, error) {
		cfg := gap.LiveConfig{Mode: sys.Mode, Health: health}
		if rec != nil {
			cfg.Tracer = rec
		}
		iters := o.soak
		governed := o.memBudget > 0 || o.spillDir != ""
		var crashes, recoveries, replayed int64
		var memPeak, spilled, replayedDisk, forcedCkpts int64
		bad := 0
		for it := 0; it < iters; it++ {
			c := cfg
			if plan != nil {
				// Re-derive the link-fault stream per iteration so a soak
				// explores distinct (but reproducible) schedules.
				p := *plan
				p.Seed = plan.Seed + int64(it)
				c.Faults = &p
			}
			var gov *mem.Governor
			if governed {
				// A fresh governor per iteration: budgets, spill files and
				// peak accounting must not leak across runs.
				gov = mem.NewGovernor(o.memBudget, o.spillDir)
				c.Mem = gov
			}
			lm, wrong, err := once(c)
			gov.Close()
			if err != nil {
				return nil, fmt.Errorf("soak run %d/%d: %w", it+1, iters, err)
			}
			crashes += lm.Crashes
			recoveries += lm.Recoveries
			replayed += lm.Replayed
			if lm.MemPeakBytes > memPeak {
				memPeak = lm.MemPeakBytes
			}
			spilled += lm.SpilledBytes
			replayedDisk += lm.ReplayedFromDisk
			forcedCkpts += lm.ForcedCkpts
			status := "ok"
			if wrong > 0 {
				status = fmt.Sprintf("%d wrong vertices", wrong)
				bad++
			}
			fmt.Fprintf(stdout, "soak %d/%d: %s (wall=%v crashes=%d recoveries=%d replayed=%d updates=%d rounds=%d batches=%d)\n",
				it+1, iters, status, lm.WallTime.Round(time.Millisecond),
				lm.Crashes, lm.Recoveries, lm.Replayed, lm.Updates, lm.Rounds, lm.Batches)
			if gov != nil {
				fmt.Fprintf(stdout, "  mem: peak=%d spilled=%d replayed-from-disk=%d forced-ckpts=%d throttles=%d\n",
					lm.MemPeakBytes, lm.SpilledBytes, lm.ReplayedFromDisk, lm.ForcedCkpts, lm.Throttles)
			}
			atomic.AddInt64(&iterDone, 1)
		}
		return func() error {
			fmt.Fprintf(stdout, "soak summary  : %d/%d correct; crashes=%d recoveries=%d replayed=%d\n",
				iters-bad, iters, crashes, recoveries, replayed)
			if governed {
				fmt.Fprintf(stdout, "mem summary   : budget=%d peak=%d spilled=%d replayed-from-disk=%d forced-ckpts=%d\n",
					o.memBudget, memPeak, spilled, replayedDisk, forcedCkpts)
			}
			if bad > 0 {
				return fmt.Errorf("%d of %d soak runs diverged from the sequential reference", bad, iters)
			}
			return nil
		}, nil
	}
	return d, nil
}

// ticking calls run, and while it runs prints a progress line every `every`
// when a recorder is attached.
func ticking(stderr io.Writer, every time.Duration, rec *obs.Recorder, health *gap.HealthTracker, run func()) {
	if rec == nil || every <= 0 {
		run()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				printProgress(stderr, rec, health)
			}
		}
	}()
	run()
	close(stop)
	<-done
}

// printProgress renders one status line from the recorder snapshot; under
// the live driver (health set) it adds the control plane's view: dead
// workers, the watchdog's progress age, the governor stage and spilled bytes.
func printProgress(stderr io.Writer, rec *obs.Recorder, health *gap.HealthTracker) {
	st := rec.Snapshot()
	var upd, msgs int64
	var vt, backlog float64
	busy := 0
	etaLo, etaHi := math.Inf(1), math.Inf(-1)
	for _, w := range st.Workers {
		upd += w.Updates
		msgs += w.MsgsSent
		backlog += w.Mailbox
		if !w.Idle {
			busy++
		}
		if w.T > vt {
			vt = w.T
		}
		if w.HasEta {
			etaLo = math.Min(etaLo, w.Eta)
			etaHi = math.Max(etaHi, w.Eta)
		}
	}
	h := health.Health() // the zero Health under the sim
	var line string
	if health == nil {
		line = fmt.Sprintf("progress: t=%.0f busy=%d/%d updates=%d msgs=%d backlog=%.0f",
			vt, busy, len(st.Workers), upd, msgs, backlog)
	} else {
		line = fmt.Sprintf("progress: busy=%d/%d updates=%d msgs=%d dead=%d age=%v",
			busy, len(st.Workers), upd, msgs, h.Dead, h.ProgressAge.Round(time.Millisecond))
	}
	if etaLo <= etaHi {
		line += fmt.Sprintf(" eta=[%.0f..%.0f]", etaLo, etaHi)
	}
	if h.MemStage != "" {
		line += fmt.Sprintf(" stage=%s spilled=%d", h.MemStage, h.SpilledBytes)
	}
	if st.Dropped > 0 {
		line += fmt.Sprintf(" DROPPED=%d(!)", st.Dropped)
	}
	fmt.Fprintln(stderr, line)
}

// startTelemetry brings up the telemetry plane and points it at this run.
func startTelemetry(stdout io.Writer, o options, rec *obs.Recorder, d driver) (*obsserve.Server, error) {
	srv := obsserve.New()
	srv.SetRecorder(rec)
	if d.health != nil {
		srv.SetHealth(d.health.Health)
	}
	for _, m := range d.metrics {
		if err := srv.RegisterMetric(m); err != nil {
			return nil, err
		}
	}
	info := map[string]string{
		"app": o.app, "system": o.system, "driver": d.name,
		"workers": strconv.Itoa(o.n),
	}
	if o.dataset != "" {
		info["dataset"] = o.dataset
	}
	if o.file != "" {
		info["graph"] = o.file
	}
	srv.SetRunInfo(info)
	addr, err := srv.Start(o.serveAddr)
	if err != nil {
		return nil, fmt.Errorf("-serve %s: %w", o.serveAddr, err)
	}
	fmt.Fprintf(stdout, "telemetry     : http://%s/metrics (also /status /healthz /readyz /debug/pprof)\n", addr)
	return srv, nil
}

// writeOutputs writes the trace, the metrics CSV and the straggler reports
// the options ask for.
func writeOutputs(stdout io.Writer, rec *obs.Recorder, o options) error {
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(stdout, "WARNING: the trace ring dropped %d events; exports and reports are missing the oldest data\n", d)
	}
	if o.traceFile != "" {
		if err := writeExport(o.traceFile, rec.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace         : %s (%d tracks, %d events dropped)\n", o.traceFile, rec.Workers(), rec.Dropped())
	}
	if o.metricsOut != "" {
		if err := writeExport(o.metricsOut, rec.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics       : %s\n", o.metricsOut)
	}
	return writeReports(stdout, rec, o)
}

// writeReports runs the critical-path analyzer over the retained trace and
// writes the requested renderings ("-" = stdout).
func writeReports(stdout io.Writer, rec *obs.Recorder, o options) error {
	if o.report == "" && o.reportJSON == "" {
		return nil
	}
	r := crit.Analyze(rec)
	emit := func(path string, write func(io.Writer) error, label string) error {
		if path == "" {
			return nil
		}
		if path == "-" {
			return write(stdout)
		}
		if err := writeExport(path, write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-14s: %s\n", label, path)
		return nil
	}
	if err := emit(o.report, r.WriteText, "report"); err != nil {
		return err
	}
	return emit(o.reportJSON, r.WriteJSON, "report-json")
}

// writeExport writes one exporter's output to path.
func writeExport(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
