// Command benchmark is the repository's service benchmark: it builds
// cmd/arganrun, runs it as `arganrun serve` in a child process, drives it
// over HTTP with one seeded workload, kills it with SIGKILL, restarts it on
// the same state directory and checks what comes back. README.md documents
// the workloads and every metric; BENCHMARK.json at the repository root is
// the contract a driver runs it under.
//
//	go run ./benchmark -workload churn-point -seed 7
//	go run ./benchmark -workload cold-static -trace 1
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// Sizing every run shares. defaultSeconds matches run_seconds in
// BENCHMARK.json.
const (
	defaultSeconds = 14
	datasetScale   = 0.5
	coldStarts     = 3
	recoveries     = 3
	warmupRounds   = 5
	minTimedRounds = 30
)

func main() {
	workload := flag.String("workload", "", "workload to run: cold-static, churn-point, churn-bulk or two-tenants")
	seed := flag.Int64("seed", 1, "seed for the SSSP/BFS source and every mutation batch")
	seconds := flag.Float64("seconds", defaultSeconds, "how long the timed rounds measure")
	trace := flag.Int("trace", 0, "1 = also replay the plan in-process with spans and report the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice on one binary and fail if any end-to-end metric moves by more than its bound")
	flag.Parse()

	code, err := realMain(*workload, *seed, *seconds, *trace == 1, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func realMain(workload string, seed int64, seconds float64, trace, selfcheck bool) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return 1, err
	}
	bin, err := buildServer(root, buildDir)
	if err != nil {
		return 1, err
	}
	workDir, err := newWorkDir(root)
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(workDir)
	// A signal must not strand the server or the state directories: the
	// child dies with this process (see childAttr), the directory goes here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(workDir)
		os.Exit(130)
	}()

	b := &bench{root: root, bin: bin, workDir: workDir, seconds: seconds}
	if selfcheck {
		return b.selfcheck(seed)
	}
	w, err := workloadByName(workload)
	if err != nil {
		return 2, err
	}
	res, err := b.runOne(w, seed, trace)
	if err != nil {
		return 1, err
	}
	res.print(os.Stdout)
	if err := res.save(filepath.Join(root, "benchmark", "out")); err != nil {
		return 1, err
	}
	line, err := json.Marshal(res.contractLine(trace))
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed", res.OpsFailed, res.OpsTotal)
	}
	return 0, nil
}

type bench struct {
	root, bin, workDir string
	seconds            float64
}

// Result is one run's full report: what benchmark/out/result-<workload>.json
// holds and what print renders.
type Result struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Env       Env      `json:"env"`
	Correct   bool     `json:"correct"`
	OpsTotal  int      `json:"ops_total"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	ElapsedS  float64  `json:"elapsed_s"`
	// EndToEnd is always measured; PerLayer only by a traced run.
	EndToEnd map[string]MetricJSON `json:"end_to_end"`
	PerLayer map[string]MetricJSON `json:"per_layer,omitempty"`
	// Summaries gives every timing class with its sample count and
	// quartiles (printed only); Raw the samples themselves, so another
	// estimator can be tried without another run.
	Summaries map[string]Summary   `json:"-"`
	Raw       map[string][]float64 `json:"raw"`
	TraceFile string               `json:"trace_file,omitempty"`
}

// MetricJSON is one metric as written to files and to the contract line.
type MetricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

func toJSON(defs []metricDef, m Metrics) map[string]MetricJSON {
	out := make(map[string]MetricJSON, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		out[d.Name] = MetricJSON{Value: v.V, Unit: d.Unit, N: v.N}
	}
	return out
}

func (b *bench) runOne(w Workload, seed int64, trace bool) (*Result, error) {
	cfg := RunConfig{
		W: w, Seed: seed, Scale: datasetScale, Seconds: b.seconds,
		ColdStarts: coldStarts, Recoveries: recoveries, Warmup: warmupRounds, History: historyMutates, AwaitSnapshot: true, MinRounds: minTimedRounds,
		Bin: b.bin, WorkDir: b.workDir,
	}
	if trace {
		cfg.Tracer = NewTracer()
	}
	env := collectEnv(b.root, seed)
	out, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	env.ServerCmd = out.ServerCmd
	return b.report(out, env, trace)
}

func (b *bench) report(out *Outcome, env Env, trace bool) (*Result, error) {
	e2e, err := EndToEnd(out)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload: out.Cfg.W.Name, Why: out.Cfg.W.Why, Env: env,
		OpsTotal: out.Ops.Total, OpsFailed: out.Ops.Failed, Failures: out.Ops.Reasons,
		EndToEnd:  toJSON(endToEnd, e2e),
		Summaries: map[string]Summary{}, Raw: map[string][]float64{},
	}
	note := func(name string, s *Sample) {
		res.Summaries[name] = s.Summary()
		res.Raw[name] = s.vals
	}
	note("mutate_ms", &out.S.Mutate)
	for i, c := range out.S.Clients {
		for class, s := range c {
			note(fmt.Sprintf("c%d.%s", i, class), s)
		}
	}
	res.Raw["setup_s"], res.Raw["recover_s"] = out.SetupS, out.RecoverS
	if trace {
		tr, ops, err := Replay(out, out.Cfg.Tracer)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		file, err := writeTrace(filepath.Join(b.root, "benchmark", "out"), res.Workload, env, out.Cfg.Tracer.Spans())
		if err != nil {
			return nil, err
		}
		res.OpsTotal += ops.Total
		res.OpsFailed += ops.Failed
		res.Failures = append(res.Failures, ops.Reasons...)
		pl, err := PerLayer(out, tr)
		if err != nil {
			return nil, err
		}
		res.PerLayer = toJSON(perLayerDefs(), pl)
		res.TraceFile = file
	}
	res.Correct = res.OpsFailed == 0
	res.ElapsedS = out.Elapsed.Seconds()
	return res, nil
}

// contractLine is the last line of standard output: exactly the keys
// correct, attempted, failed and metrics, the metrics being the end-to-end
// set on an untraced run and the per-layer set on a traced one.
func (r *Result) contractLine(trace bool) map[string]any {
	src := r.EndToEnd
	if trace {
		src = r.PerLayer
	}
	metrics := make(map[string]map[string]any, len(src))
	for name, m := range src {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.OpsTotal, "failed": r.OpsFailed, "metrics": metrics}
}

func (r *Result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s  seed %d  (%s)\n", r.Workload, r.Env.Seed, r.Why)
	fmt.Fprintf(f, "env: commit %s, %s, GOMAXPROCS(server)=%s, nproc=%d, %s, kernel %s, load %s, %s\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.ServerGOMAXPROCS, r.Env.NProc, r.Env.CPUModel, r.Env.Kernel, r.Env.LoadAvg, r.Env.Timestamp)
	fmt.Fprintf(f, "server: %s\n", r.Env.ServerCmd)
	printMetrics := func(title string, defs []metricDef, m map[string]MetricJSON) {
		fmt.Fprintf(f, "%s:\n", title)
		for _, d := range defs {
			v := m[d.Name]
			n := ""
			if v.N > 0 {
				n = fmt.Sprintf("  (n=%d)", v.N)
			}
			fmt.Fprintf(f, "  %-38s %14.4f %s%s\n", d.Name, v.Value, d.Unit, n)
		}
	}
	printMetrics("end-to-end", endToEnd, r.EndToEnd)
	if r.PerLayer != nil {
		printMetrics("per-layer", perLayerDefs(), r.PerLayer)
	}
	fmt.Fprintln(f, "timing classes (ms unless named otherwise):")
	names := make([]string, 0, len(r.Summaries))
	for n := range r.Summaries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-24s %s\n", n, r.Summaries[n])
	}
	fmt.Fprintf(f, "ops_total %d  ops_failed %d  elapsed %.1fs\n", r.OpsTotal, r.OpsFailed, r.ElapsedS)
	for _, why := range r.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", why)
	}
}

func (r *Result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result-"+r.Workload+".json"), append(blob, '\n'), 0o644)
}
