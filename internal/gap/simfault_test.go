package gap

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
	"argan/internal/fault"
	"argan/internal/graph"
	"argan/internal/obs"
	"argan/internal/partition"
)

// faultPlan parses a spec, failing the test on error.
func faultPlan(t testing.TB, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// crashSpec builds a crash-and-restart plan whose trigger times are placed
// at fractions of the fault-free response time, so the crash lands while
// the run is genuinely busy.
func crashSpec(baseline float64, frac float64) string {
	at := baseline * frac
	return fmt.Sprintf("crash=1@%.0f+%.0f", at, baseline*0.05+20)
}

// TestSimCrashRecoveryMatchesFaultFree is the core sim acceptance check:
// SSSP, PageRank and WCC under an injected crash-and-restart plan converge
// to the same answers as a fault-free run.
func TestSimCrashRecoveryMatchesFaultFree(t *testing.T) {
	g := testGraph(true, 3)
	fs := func() []*graph.Fragment { return frags(t, g, 4) }
	base := Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD, FT: FTConfig{CheckpointEvery: 500}}

	t.Run("sssp", func(t *testing.T) {
		clean, err := RunSim(fs(), algorithms.NewSSSP(), ace.Query{Source: 0}, base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Faults = faultPlan(t, crashSpec(clean.Metrics.RespTime, 0.3))
		res, err := RunSim(fs(), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Metrics.Converged {
			t.Fatal("faulty run did not converge")
		}
		if res.Metrics.Crashes != 1 || res.Metrics.Recoveries != 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 1/1", res.Metrics.Crashes, res.Metrics.Recoveries)
		}
		if res.Metrics.RespTime <= clean.Metrics.RespTime {
			t.Fatalf("crash should cost time: faulty %.0f <= clean %.0f", res.Metrics.RespTime, clean.Metrics.RespTime)
		}
		for v := range clean.Values {
			if res.Values[v] != clean.Values[v] {
				t.Fatalf("dist[%d] = %v, want %v", v, res.Values[v], clean.Values[v])
			}
		}
	})

	t.Run("pagerank", func(t *testing.T) {
		q := ace.Query{Eps: 1e-3}
		clean, err := RunSim(fs(), algorithms.NewPageRank(), q, base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Faults = faultPlan(t, crashSpec(clean.Metrics.RespTime, 0.4))
		res, err := RunSim(fs(), algorithms.NewPageRank(), q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Metrics.Converged || res.Metrics.Recoveries != 1 {
			t.Fatalf("converged=%v recoveries=%d", res.Metrics.Converged, res.Metrics.Recoveries)
		}
		// PageRank is delta-accumulative (non-idempotent), so a recovery
		// that lost or duplicated any delta would corrupt the ranks well
		// beyond the sub-eps wiggle that execution order legitimately
		// leaves parked (the tolerance the repo's cross-mode test uses).
		for v := range clean.Values {
			if math.Abs(res.Values[v]-clean.Values[v]) > 0.02*(clean.Values[v]+1) {
				t.Fatalf("rank[%d] = %v, want ~%v", v, res.Values[v], clean.Values[v])
			}
		}
	})

	t.Run("wcc", func(t *testing.T) {
		gu := testGraph(false, 5)
		clean, err := RunSim(frags(t, gu, 4), algorithms.NewWCC(), ace.Query{}, base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Faults = faultPlan(t, crashSpec(clean.Metrics.RespTime, 0.5))
		res, err := RunSim(frags(t, gu, 4), algorithms.NewWCC(), ace.Query{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Metrics.Converged || res.Metrics.Recoveries != 1 {
			t.Fatalf("converged=%v recoveries=%d", res.Metrics.Converged, res.Metrics.Recoveries)
		}
		for v := range clean.Values {
			if res.Values[v] != clean.Values[v] {
				t.Fatalf("wcc[%d] = %v, want %v", v, res.Values[v], clean.Values[v])
			}
		}
	})
}

// TestSimUpdateCountCrash exercises the update-count trigger and multiple
// sequential crashes of different workers.
func TestSimUpdateCountCrash(t *testing.T) {
	g := testGraph(true, 7)
	want := algorithms.SeqSSSP(g, 0)
	cfg := Config{
		Mode: ModeGAP, Adapt: adapt.PolicyGAwD,
		Faults: faultPlan(t, "crash=0@u50+50; crash=2@u120+80"),
		FT:     FTConfig{CheckpointEvery: 400},
	}
	res, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Converged {
		t.Fatal("did not converge")
	}
	if res.Metrics.Crashes == 0 || res.Metrics.Recoveries == 0 {
		t.Fatalf("crashes=%d recoveries=%d", res.Metrics.Crashes, res.Metrics.Recoveries)
	}
	for v, d := range want {
		if res.Values[v] != d {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Values[v], d)
		}
	}
}

// TestSimPermanentCrashDoesNotConverge: a worker that never restarts loses
// its fragment for good; the run must drain and report non-convergence
// instead of hanging.
func TestSimPermanentCrashDoesNotConverge(t *testing.T) {
	g := testGraph(true, 3)
	cfg := Config{
		Mode:   ModeGAP,
		Adapt:  adapt.PolicyGAwD,
		Faults: faultPlan(t, "crash=1@500"),
	}
	res, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Converged {
		t.Fatal("run with a permanently dead worker reported convergence")
	}
	if res.Metrics.Crashes != 1 || res.Metrics.Recoveries != 0 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/0", res.Metrics.Crashes, res.Metrics.Recoveries)
	}
}

// TestSimLinkFaultsExactlyOnce: drop (with retransmit), dup and reorder
// must not change the answer of SSSP, PageRank or WCC. The exactly-once
// layer drops each duplicate and restores each link's order, so even
// PageRank's accumulative h_in folds every batch exactly once.
func TestSimLinkFaultsExactlyOnce(t *testing.T) {
	cfg := Config{
		Mode:   ModeGAP,
		Adapt:  adapt.PolicyGAwD,
		Faults: faultPlan(t, "seed=11; drop=0.1; dup=0.05; reorder=0.05"),
	}
	for _, app := range []string{"sssp", "pr", "wcc"} {
		t.Run(app, func(t *testing.T) {
			g := testGraph(app != "wcc", 9)
			q := ace.Query{Source: 0, Eps: 1e-3}
			if _, err := algorithms.DispatchLive(app, simVsRef[float64](g, q, cfg),
				simVsRef[int32](g, q, cfg), simVsRef[uint32](g, q, cfg)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// simVsRef returns a DispatchLive callback that runs the app under the sim
// over g on 4 workers and fails unless the run converged to values its
// Equal accepts against its sequential reference.
func simVsRef[V any](g *graph.Graph, q ace.Query, cfg Config) func(*algorithms.LiveApp[V]) (*Metrics, error) {
	return func(a *algorithms.LiveApp[V]) (*Metrics, error) {
		fs, err := partition.Partition(g, partition.Hash{}, 4)
		if err != nil {
			return nil, err
		}
		res, err := RunSim(fs, a.Factory, q, cfg)
		if err != nil {
			return nil, err
		}
		if !res.Metrics.Converged {
			return nil, fmt.Errorf("%s: did not converge", a.Name)
		}
		want := a.Ref(g, q)
		for v := range want {
			if !a.Equal(res.Values[v], want[v]) {
				return nil, fmt.Errorf("%s: vertex %d = %v, want %v", a.Name, v, res.Values[v], want[v])
			}
		}
		return &res.Metrics, nil
	}
}

// TestSimSlowdownCostsTime: a transient slowdown shows up as response time.
func TestSimSlowdownCostsTime(t *testing.T) {
	g := testGraph(true, 4)
	cfg := Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD}
	clean, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faultPlan(t, fmt.Sprintf("slow=0@0:%.0f:8", clean.Metrics.RespTime))
	slow, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Metrics.RespTime <= clean.Metrics.RespTime {
		t.Fatalf("slowdown did not cost time: %.0f <= %.0f", slow.Metrics.RespTime, clean.Metrics.RespTime)
	}
	if !slow.Metrics.Converged {
		t.Fatal("did not converge")
	}
}

// TestSimFaultDeterminism: two runs of the same faulty config produce
// byte-identical metrics and traces for a fixed seed.
func TestSimFaultDeterminism(t *testing.T) {
	g := testGraph(true, 6)
	run := func() ([]byte, []byte, Metrics) {
		rec := obs.NewRecorder(4, 0)
		cfg := Config{
			Mode: ModeGAP, Adapt: adapt.PolicyGAwD,
			Faults: faultPlan(t, "seed=5; crash=1@2000+100; drop=0.05; slow=2@500:800:3"),
			FT:     FTConfig{CheckpointEvery: 700},
			Tracer: rec,
		}
		res, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var trace, csv bytes.Buffer
		if err := rec.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), csv.Bytes(), res.Metrics
	}
	t1, c1, m1 := run()
	t2, c2, m2 := run()
	if !bytes.Equal(t1, t2) {
		t.Fatal("faulty-run Chrome traces differ between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("faulty-run CSV exports differ between identical runs")
	}
	if m1.RespTime != m2.RespTime || m1.Updates != m2.Updates || m1.MsgsSent != m2.MsgsSent {
		t.Fatalf("metrics differ: %+v vs %+v", m1, m2)
	}
	if m1.Crashes != 1 || m1.Recoveries != 1 || m1.Checkpoints == 0 {
		t.Fatalf("fault accounting: crashes=%d recoveries=%d checkpoints=%d", m1.Crashes, m1.Recoveries, m1.Checkpoints)
	}
	if m1.TotalTf <= 0 {
		t.Fatal("fault overhead Tf not charged")
	}
}

// TestSimFaultTraceContent: crash/detect/recovery/restart/ckpt events
// appear in the Chrome-trace export.
func TestSimFaultTraceContent(t *testing.T) {
	g := testGraph(true, 6)
	rec := obs.NewRecorder(4, 0)
	cfg := Config{
		Mode: ModeGAP, Adapt: adapt.PolicyGAwD,
		Faults: faultPlan(t, "crash=1@2000+100"),
		FT:     FTConfig{CheckpointEvery: 700},
		Tracer: rec,
	}
	if _, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"crash","ph":"i"`,
		`"name":"detect","ph":"i"`,
		`"name":"restart","ph":"i"`,
		`"name":"ckpt","ph":"i"`,
		`"name":"recovery","ph":"B"`,
		`"name":"recovery","ph":"E"`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
	_ = out
}

// TestSimCrashRejectsBarrierModes: crash plans are refused under barrier
// disciplines.
func TestSimCrashRejectsBarrierModes(t *testing.T) {
	g := testGraph(true, 1)
	for _, mode := range []Mode{ModeBSP, ModeBSPVC, ModePowerSwitch} {
		cfg := Config{Mode: mode, Faults: faultPlan(t, "crash=0@100")}
		if _, err := RunSim(frags(t, g, 2), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg); err == nil {
			t.Errorf("%v: crash plan accepted under a barrier mode", mode)
		}
	}
}

// TestSimRejectsRecoveryWithoutAlgebra: as under the live driver, a
// restartable crash over a program whose algebra is not Recoverable (Color's
// replacement laws) is refused before the run starts; a permanent crash,
// which needs no repair, is not.
func TestSimRejectsRecoveryWithoutAlgebra(t *testing.T) {
	g := testGraph(false, 2)
	cfg := Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD, Faults: faultPlan(t, "crash=1@300+50")}
	if _, err := RunSim(frags(t, g, 4), algorithms.NewColor(), ace.Query{}, cfg); !errors.Is(err, ErrNoRecoveryAlgebra) {
		t.Fatalf("restartable crash over Color: err = %v, want ErrNoRecoveryAlgebra", err)
	}
	cfg.Faults = faultPlan(t, "crash=1@300")
	if _, err := RunSim(frags(t, g, 4), algorithms.NewColor(), ace.Query{}, cfg); err != nil {
		t.Fatalf("permanent crash over Color: %v", err)
	}
}

// TestSimTinyCheckpointIntervalTerminates is the regression test for a
// checkpoint-chain livelock: with CheckpointEvery smaller than the cost a
// snapshot bills each worker, every worker's clock was pushed past the
// next checkpoint before it could run a single update, and the run spun
// forever. The chain now self-clocks to at least twice the snapshot cost,
// so even a pathologically small interval must terminate with the
// fault-free answers.
func TestSimTinyCheckpointIntervalTerminates(t *testing.T) {
	g := testGraph(true, 11)
	base := Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD}
	clean, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Faults = faultPlan(t, "crash=1@300+50; drop=0.05")
	cfg.FT = FTConfig{CheckpointEvery: 1} // far below the snapshot cost
	res, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Converged {
		t.Fatal("tiny-interval run did not converge")
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], clean.Values[v])
		}
	}
	if res.Metrics.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want 1", res.Metrics.Recoveries)
	}
}

// TestSimChaosSweep runs seeded crash and link-fault storms over SSSP,
// PageRank and WCC on tiny graphs, under every asynchronous discipline.
// Each plan must reach the answer the app's sequential reference gives, and
// must replay bit-exact from its seed: a second run yields the same values
// and metrics. A failure names the seed and the plan, which reproduce it.
func TestSimChaosSweep(t *testing.T) {
	plans := 1002
	if testing.Short() {
		plans = 120
	}
	base := (chaosSeed(t) - 1) * int64(plans)
	apps := []string{"sssp", "pr", "wcc"}
	for i := 0; i < plans; i++ {
		seed := base + int64(i) + 1
		app := apps[i%len(apps)]
		if _, err := algorithms.DispatchLive(app, chaosPlan[float64](seed),
			chaosPlan[int32](seed), chaosPlan[uint32](seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// chaosPlan returns a DispatchLive callback that runs the app's seeded
// chaos plan twice and checks both runs against the reference and each
// other. The seed picks the graph, the discipline, the checkpoint interval
// and the storm: one to three crashes after an update count (fault.Storm),
// every other plan one more at a fraction of the fault-free response time,
// restarts from 0 to 500 cost units, and link noise.
func chaosPlan[V any](seed int64) func(*algorithms.LiveApp[V]) (struct{}, error) {
	return func(a *algorithms.LiveApp[V]) (struct{}, error) {
		u := uint64(seed)
		g := graph.PowerLaw(graph.GenConfig{N: 100 + int(u%101), M: 600 + int(u%401),
			Directed: a.Name != "wcc", Seed: seed, MaxW: 20})
		fs, err := partition.Partition(g, partition.Hash{}, 4)
		if err != nil {
			return struct{}{}, err
		}
		q := ace.Query{Source: 0, Eps: 1e-3}
		modes := []Config{
			{Mode: ModeGAP, Adapt: adapt.PolicyGAwD},
			{Mode: ModeGAP, Adapt: adapt.PolicyGA},
			{Mode: ModeAPGC},
			{Mode: ModeAPVC},
			{Mode: ModeAAP},
		}
		cfg := modes[u/3%uint64(len(modes))]
		clean, err := RunSim(fs, a.Factory, q, cfg)
		if err != nil {
			return struct{}{}, err
		}
		cm := clean.Metrics
		link := []float64{0, 0.03, 0.08}
		plan := fault.Storm(seed, 4, fault.StormOpts{
			Crashes: 1 + int(u/5%3),
			Span:    max(1, cm.Updates/8),
			Restart: []float64{0.5, 5, 50, 500}[u/7%4],
			Drop:    link[u/11%3],
			Dup:     link[u/13%3],
			Reorder: link[u/17%3],
		})
		if u%2 == 0 {
			plan.Crashes = append(plan.Crashes, fault.Crash{Worker: int(u / 19 % 4),
				At: cm.RespTime * float64(1+u/23%9) / 10, Restart: 20})
		}
		cfg.Faults = plan
		cfg.FT.CheckpointEvery = cm.RespTime / float64(2+u/29%30)
		spec := plan.String()
		var first *Result[V]
		for run := 0; run < 2; run++ {
			res, err := RunSim(fs, a.Factory, q, cfg)
			if err != nil {
				return struct{}{}, fmt.Errorf("%s %v plan %q: %v", a.Name, cfg.Mode, spec, err)
			}
			if run == 1 {
				if !reflect.DeepEqual(res.Values, first.Values) || !reflect.DeepEqual(res.Metrics, first.Metrics) {
					return struct{}{}, fmt.Errorf("%s %v plan %q: replay differs from the first run", a.Name, cfg.Mode, spec)
				}
				break
			}
			first = res
			if !res.Metrics.Converged {
				return struct{}{}, fmt.Errorf("%s %v plan %q: did not converge", a.Name, cfg.Mode, spec)
			}
			want := a.Ref(g, q)
			for v := range want {
				if !a.Equal(res.Values[v], want[v]) {
					return struct{}{}, fmt.Errorf("%s %v plan %q: vertex %d = %v, want %v",
						a.Name, cfg.Mode, spec, v, res.Values[v], want[v])
				}
			}
		}
		return struct{}{}, nil
	}
}
