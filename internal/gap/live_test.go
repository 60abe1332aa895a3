package gap

import (
	"math"
	"runtime"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/graph"
)

func TestLiveSSSPMatchesSequential(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 3000, M: 24000, Directed: true, Seed: 21, MaxW: 30})
	want := algorithms.SeqSSSP(g, 0)
	for _, mode := range []Mode{ModeGAP, ModeAPGC, ModeAPVC} {
		for _, n := range []int{1, 4, 8} {
			fs := frags(t, g, n)
			res, lm, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{Source: 0}, LiveConfig{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range want {
				if res.Values[v] != d {
					t.Fatalf("%v n=%d: dist[%d] = %v, want %v", mode, n, v, res.Values[v], d)
				}
			}
			if lm.Updates == 0 || lm.WallTime <= 0 {
				t.Fatalf("%v n=%d: empty live metrics %+v", mode, n, lm)
			}
			if n > 1 && lm.MsgsSent == 0 {
				t.Fatalf("%v n=%d: no messages exchanged", mode, n)
			}
		}
	}
}

func TestLivePageRankMatchesSequential(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 2000, M: 16000, Directed: true, Seed: 22})
	want := algorithms.SeqPageRank(g, 1e-4)
	fs := frags(t, g, 6)
	res, _, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range want {
		if math.Abs(res.Values[v]-r) > 0.02*(r+1) {
			t.Fatalf("pr[%d] = %v, want ~%v", v, res.Values[v], r)
		}
	}
}

func TestLiveColorProper(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 1500, M: 12000, Directed: true, Seed: 23})
	want := algorithms.SeqColor(g)
	fs := frags(t, g, 5)
	res, _, err := RunLive(fs, algorithms.NewColor(), ace.Query{}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range want {
		if res.Values[v] != c {
			t.Fatalf("color[%d] = %d, want %d", v, res.Values[v], c)
		}
	}
}

func TestLiveCoreAndSim(t *testing.T) {
	gu := graph.PowerLaw(graph.GenConfig{N: 1200, M: 9000, Directed: false, Seed: 24})
	wantCore := algorithms.SeqCore(gu)
	res, _, err := RunLive(frags(t, gu, 4), algorithms.NewCore(), ace.Query{}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range wantCore {
		if res.Values[v] != c {
			t.Fatalf("core[%d] = %d, want %d", v, res.Values[v], c)
		}
	}

	gl := graph.KnowledgeBase(graph.GenConfig{N: 1000, M: 5000, Seed: 25, Labels: 8})
	pat := algorithms.RandomPattern(gl, 4, 5, 77)
	wantSim := algorithms.SeqSim(gl, pat)
	resS, _, err := RunLive(frags(t, gl, 4), algorithms.NewSim(), ace.Query{Pattern: pat}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range wantSim {
		if resS.Values[v] != m {
			t.Fatalf("sim[%d] = %b, want %b", v, resS.Values[v], m)
		}
	}
}

func TestLiveRejectsBarrierModes(t *testing.T) {
	g := graph.Chain(10, true)
	fs := frags(t, g, 2)
	if _, _, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{}, LiveConfig{Mode: ModeBSP}); err == nil {
		t.Fatal("want error for BSP under the live driver")
	}
	if _, _, err := RunLive(nil, algorithms.NewSSSP(), ace.Query{}, LiveConfig{Mode: ModeGAP}); err == nil {
		t.Fatal("want error for no fragments")
	}
}

func TestLiveBSPMatchesSequential(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 2500, M: 20000, Directed: true, Seed: 26, MaxW: 20})
	want := algorithms.SeqSSSP(g, 0)
	for _, n := range []int{1, 4, 8} {
		res, lm, err := RunLiveBSP(frags(t, g, n), algorithms.NewSSSP(), ace.Query{Source: 0}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range want {
			if res.Values[v] != d {
				t.Fatalf("n=%d: dist[%d] = %v, want %v", n, v, res.Values[v], d)
			}
		}
		if lm.Rounds == 0 || res.Metrics.Supersteps != lm.Rounds {
			t.Fatalf("superstep accounting wrong: %+v vs %+v", lm, res.Metrics)
		}
	}
	// PageRank under live BSP too (non-idempotent aggregation relies on the
	// exactly-once exchange of the barrier).
	wantPR := algorithms.SeqPageRank(g, 1e-4)
	res, _, err := RunLiveBSP(frags(t, g, 6), algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range wantPR {
		if math.Abs(res.Values[v]-r) > 0.02*(r+1) {
			t.Fatalf("pr[%d] = %v, want ~%v", v, res.Values[v], r)
		}
	}
}

func TestLiveBSPErrorsAndCaps(t *testing.T) {
	if _, _, err := RunLiveBSP(nil, algorithms.NewSSSP(), ace.Query{}, 0, nil); err == nil {
		t.Fatal("want error for no fragments")
	}
	// A superstep cap cuts the run short but still returns.
	g := graph.Chain(50, true)
	res, lm, err := RunLiveBSP(frags(t, g, 4), algorithms.NewBFS(), ace.Query{Source: 0}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Rounds != 3 {
		t.Fatalf("cap ignored: %d rounds", lm.Rounds)
	}
	_ = res
}

func TestLiveBSPPullPrograms(t *testing.T) {
	// Pull-style programs exercise the shared live-state's replica sync
	// (ctxSet) and dependent re-activation across all DepKinds.
	g := graph.PowerLaw(graph.GenConfig{N: 900, M: 7000, Directed: true, Seed: 27, MaxW: 9, Labels: 6})
	fs := frags(t, g, 5)
	col, _, err := RunLiveBSP(fs, algorithms.NewColor(), ace.Query{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqColor(g) {
		if col.Values[v] != c {
			t.Fatalf("color[%d] = %d, want %d", v, col.Values[v], c)
		}
	}

	gu := graph.PowerLaw(graph.GenConfig{N: 700, M: 5200, Directed: false, Seed: 28})
	core, _, err := RunLiveBSP(frags(t, gu, 4), algorithms.NewCore(), ace.Query{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqCore(gu) {
		if core.Values[v] != c {
			t.Fatalf("core[%d] = %d, want %d", v, core.Values[v], c)
		}
	}

	pat := algorithms.RandomPattern(g, 4, 5, 5)
	sim, _, err := RunLiveBSP(fs, algorithms.NewSim(), ace.Query{Pattern: pat}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range algorithms.SeqSim(g, pat) {
		if sim.Values[v] != m {
			t.Fatalf("sim[%d] = %b, want %b", v, sim.Values[v], m)
		}
	}
}

// TestLivePipelineVariantsAgree: the async and BSP drivers are the two
// consumers of the one pooled, combining message pipeline; both must reach
// the sequential fixpoint at every worker count — bit-equal for the
// min-fold programs, within tolerance for PageRank.
func TestLivePipelineVariantsAgree(t *testing.T) {
	g := testGraph(true, 15)
	cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 16}
	exact := func(t *testing.T, label string, got, want []float64) {
		t.Helper()
		for v, w := range want {
			if got[v] != w {
				t.Fatalf("%s vertex %d: got %v want %v", label, v, got[v], w)
			}
		}
	}
	t.Run("sssp", func(t *testing.T) {
		want := algorithms.SeqSSSP(g, 0)
		for _, n := range []int{1, 2, 4, 7} {
			res, _, err := RunLive(frags(t, g, n), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
			if err != nil {
				t.Fatalf("async n=%d: %v", n, err)
			}
			exact(t, "async", res.Values, want)
			res, _, err = RunLiveBSP(frags(t, g, n), algorithms.NewSSSP(), ace.Query{Source: 0}, 0, nil)
			if err != nil {
				t.Fatalf("bsp n=%d: %v", n, err)
			}
			exact(t, "bsp", res.Values, want)
		}
	})
	t.Run("bfs_wcc", func(t *testing.T) {
		wantBFS, wantWCC := algorithms.SeqBFS(g, 0), algorithms.SeqWCC(g)
		for _, n := range []int{1, 2, 4, 7} {
			bfs, _, err := RunLive(frags(t, g, n), algorithms.NewBFS(), ace.Query{Source: 0}, cfg)
			if err != nil {
				t.Fatalf("bfs n=%d: %v", n, err)
			}
			wcc, _, err := RunLive(frags(t, g, n), algorithms.NewWCC(), ace.Query{}, cfg)
			if err != nil {
				t.Fatalf("wcc n=%d: %v", n, err)
			}
			for v, d := range wantBFS {
				if d < 0 {
					d = math.MaxInt32 // the program's unreachable marker
				}
				if bfs.Values[v] != d || wcc.Values[v] != wantWCC[v] {
					t.Fatalf("n=%d vertex %d: bfs %v want %v, wcc %v want %v",
						n, v, bfs.Values[v], d, wcc.Values[v], wantWCC[v])
				}
			}
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		want := algorithms.SeqPageRank(g, 1e-4)
		near := func(label string, got []float64) {
			for v, w := range want {
				if math.Abs(got[v]-w) > 0.02*(w+1) {
					t.Fatalf("%s vertex %d: got %v want ~%v", label, v, got[v], w)
				}
			}
		}
		for _, n := range []int{1, 2, 4, 7} {
			res, _, err := RunLive(frags(t, g, n), algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, cfg)
			if err != nil {
				t.Fatalf("async n=%d: %v", n, err)
			}
			near("async", res.Values)
			res, _, err = RunLiveBSP(frags(t, g, n), algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, 0, nil)
			if err != nil {
				t.Fatalf("bsp n=%d: %v", n, err)
			}
			near("bsp", res.Values)
		}
	})
}

// TestLiveOneWorkerScheduleIgnoresCoreCount: a 1-worker run is one goroutine
// exchanging no messages, so the update schedule — and with it
// LiveMetrics.Updates — must not depend on how many cores the process has.
func TestLiveOneWorkerScheduleIgnoresCoreCount(t *testing.T) {
	g := testGraph(true, 16)
	fs := frags(t, g, 1)
	updates := func(procs int, run func() (*LiveMetrics, error)) int64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		lm, err := run()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return lm.Updates
	}
	for name, run := range map[string]func() (*LiveMetrics, error){
		"sssp": func() (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{Source: 0}, LiveConfig{Mode: ModeGAP})
			return lm, err
		},
		"pagerank": func() (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, LiveConfig{Mode: ModeGAP})
			return lm, err
		},
	} {
		if one, two := updates(1, run), updates(2, run); one != two || one == 0 {
			t.Fatalf("%s: %d updates at GOMAXPROCS=1, %d at GOMAXPROCS=2", name, one, two)
		}
	}
}
