package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The smoke test runs every workload against the real arganrun binary at
// LJ@0.05 with a fixed, small round count: cold starts, mutates, kill -9,
// restart, verification, audit. It asserts structure and correctness only;
// no wall-clock figure is compared with anything (tier-1 carries no timing
// gates). Run's deferred Kill and t.TempDir remove the child and its state
// directories on every exit path, failed assertions included.

var (
	smokeBin     string
	smokeBinErr  error
	smokeBinOnce sync.Once
	smokeBinDir  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if smokeBinDir != "" {
		os.RemoveAll(smokeBinDir)
	}
	os.Exit(code)
}

func serverBinary(t *testing.T) string {
	t.Helper()
	smokeBinOnce.Do(func() {
		var root string
		if root, smokeBinErr = findRoot(); smokeBinErr != nil {
			return
		}
		if smokeBinDir, smokeBinErr = os.MkdirTemp("", "argan-bench-smoke-"); smokeBinErr != nil {
			return
		}
		smokeBin, smokeBinErr = buildServer(root, smokeBinDir)
	})
	if smokeBinErr != nil {
		t.Fatal(smokeBinErr)
	}
	return smokeBin
}

func smokeConfig(t *testing.T, w Workload) RunConfig {
	return RunConfig{
		W: w, Seed: 5, Scale: testScale, Rounds: 24,
		ColdStarts: 2, Recoveries: 2, Warmup: 2, History: 21,
		Bin: serverBinary(t), WorkDir: t.TempDir(),
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, w)
			cfg.Tracer = NewTracer()
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Ops.Failed != 0 || out.Ops.Total == 0 {
				t.Fatalf("ops: %d failed of %d: %v", out.Ops.Failed, out.Ops.Total, out.Ops.Reasons)
			}
			if len(out.SetupS) != cfg.ColdStarts || len(out.RecoverS) != cfg.Recoveries {
				t.Errorf("%d cold starts and %d recoveries timed, want %d and %d",
					len(out.SetupS), len(out.RecoverS), cfg.ColdStarts, cfg.Recoveries)
			}
			// The restart replayed exactly the fixed history, onto every
			// dataset, and every batch sent was acknowledged.
			if out.Recovery.Records != cfg.History || out.Recovery.Datasets != len(w.Datasets) {
				t.Errorf("recovery replayed %d records on %d datasets, want %d on %d",
					out.Recovery.Records, out.Recovery.Datasets, cfg.History, len(w.Datasets))
			}
			var acked uint64
			for _, v := range out.Versions {
				acked += v
			}
			if want := len(out.Batches); int(acked) != want {
				t.Errorf("acknowledged versions sum to %d, %d batches were sent", acked, want)
			}
			if got, want := out.Rounds, cfg.Rounds*len(w.Datasets); got != want {
				t.Errorf("%d timed rounds, want %d", got, want)
			}
			if n := out.S.Mutate.N(); w.churn() && n != cfg.Rounds || !w.churn() && n != cfg.History {
				t.Errorf("%d mutate samples", n)
			}
			m, err := EndToEnd(out)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if v, ok := m[d.Name]; !ok || !(v.V > 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.Name, v.V, ok)
				}
			}

			// The traced half: every per-layer metric is reported, and each
			// workload demonstrably exercises the path it was chosen for.
			tr, ops, err := Replay(out, cfg.Tracer)
			if err != nil {
				t.Fatal(err)
			}
			if ops.Failed != 0 {
				t.Fatalf("replay: failed ops: %v", ops.Reasons)
			}
			pl, err := PerLayer(out, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayerDefs() {
				if _, ok := pl[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			wantInc := 0.0
			if w.churn() {
				wantInc = 1
			}
			if got := pl["serve.incremental_share"].V; got != wantInc || pl["serve.fallback_share"].V != 0 {
				t.Errorf("serve.incremental_share = %v (want %v), serve.fallback_share = %v",
					got, wantInc, pl["serve.fallback_share"].V)
			}
			for _, cov := range []string{"trace.coverage_job", "trace.coverage_mutate"} {
				if v := pl[cov].V; !(v > 0 && v < 1.5) {
					t.Errorf("%s = %v", cov, v)
				}
			}
			checkTraceFile(t, w.Name, cfg.Tracer)
		})
	}
}

// checkTraceFile writes the span file and checks that it parses and that its
// spans nest: a child lies inside its parent and shares its operation.
func checkTraceFile(t *testing.T, workload string, tr *Tracer) {
	t.Helper()
	file, err := writeTrace(t.TempDir(), workload, Env{}, tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Span
			SelfMS float64 `json:"self_ms"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := map[int]Span{}
	for _, s := range doc.Spans {
		byID[s.ID] = s.Span
	}
	for _, s := range doc.Spans {
		if s.EndUS < s.StartUS {
			t.Fatalf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := byID[s.Parent]
			if p.Op != s.Op || s.StartUS < p.StartUS || s.EndUS > p.EndUS {
				t.Fatalf("span %d %s does not nest in its parent %d %s", s.ID, s.Name, p.ID, p.Name)
			}
		}
		if s.SelfMS < -1e-6 {
			t.Fatalf("span %d %s has negative self time %v", s.ID, s.Name, s.SelfMS)
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics with
// the same units, and the contract's run length must be the default.
func TestBenchmarkJSONMatches(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their whys differ)", i, c.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []ContractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], code has %s [%s]", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayerDefs())
	for _, p := range c.Paths {
		if filepath.Clean(p) != "benchmark" {
			t.Errorf("unexpected path %q", p)
		}
	}
}
