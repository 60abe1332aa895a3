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

// TestLivePipelineVariantsAgree: the pooled, combining message pipeline
// must reach the sequential fixpoint at every worker count — bit-equal for
// the min-fold programs, within tolerance for PageRank.
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
		}
	})
}

// TestLiveOneWorkerScheduleIgnoresCoreCount: a 1-worker run is one goroutine
// exchanging no messages, so the update schedule — and with it
// LiveMetrics.Updates — must not depend on how many cores the process has.
// The counts are pinned: the active set's pop order (FIFO, or the heap's
// (priority, id) order with its exact sift comparisons) fixes them, so a
// change to either shows here.
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
	for name, c := range map[string]struct {
		want int64
		run  func() (*LiveMetrics, error)
	}{
		"sssp": {383, func() (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{Source: 0}, LiveConfig{Mode: ModeGAP})
			return lm, err
		}},
		"bfs": {383, func() (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewBFS(), ace.Query{Source: 0}, LiveConfig{Mode: ModeGAP})
			return lm, err
		}},
		"wcc": {400, func() (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewWCC(), ace.Query{}, LiveConfig{Mode: ModeGAP})
			return lm, err
		}},
		"pagerank": {12997, func() (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, LiveConfig{Mode: ModeGAP})
			return lm, err
		}},
	} {
		if one, two := updates(1, c.run), updates(2, c.run); one != two || one != c.want {
			t.Fatalf("%s: %d updates at GOMAXPROCS=1, %d at GOMAXPROCS=2, want %d", name, one, two, c.want)
		}
	}
}

// TestLiveOneWorkerSSSPAllocs bounds the garbage of a 1-worker SSSP run. The
// active set's heap holds typed items, so the count is the run's fixed setup
// (fragment state, goroutines, channels), not one boxed item per push — the
// container/heap version made 1178 allocations on this graph.
func TestLiveOneWorkerSSSPAllocs(t *testing.T) {
	fs := frags(t, testGraph(true, 16), 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{Source: 0}, LiveConfig{Mode: ModeGAP}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("1-worker SSSP run makes %.0f allocations, want <= 200", allocs)
	}
}

// TestLiveOneWorkerPageRankAllocs bounds the garbage of a 1-worker PageRank
// run the same way: a send folds into Ψ and H in place, so the count is the
// run's setup, not a function value or a boxed value per arc.
func TestLiveOneWorkerPageRankAllocs(t *testing.T) {
	fs := frags(t, testGraph(true, 16), 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, LiveConfig{Mode: ModeGAP}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("1-worker PageRank run makes %.0f allocations, want <= 100", allocs)
	}
}

// TestCtxSendAllocFree pins that a send allocates nothing once its target is
// queued (owned) or listed for its owner (ghost).
func TestCtxSendAllocFree(t *testing.T) {
	f := frags(t, testGraph(true, 16), 2)[0]
	st := newWorkerState(0, f, algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, nil)
	for name, l := range map[string]uint32{"owned": 0, "ghost": uint32(f.NumOwned())} {
		if allocs := testing.AllocsPerRun(100, func() { st.ctx.Send(l, 0.5) }); allocs != 0 {
			t.Errorf("%s send: %.0f allocations, want 0", name, allocs)
		}
	}
}

// TestLiveXiPolicies pins the three fixed ξ rules of the live driver, which
// answers alone cannot tell apart: AP-GC forwards only at round end, so each
// round ships at most one batch per peer; GAP forwards at every check that
// drained nothing, so it ships far more; AP-VC checks after every update, so
// it ships about one batch per update.
func TestLiveXiPolicies(t *testing.T) {
	fs := frags(t, testGraph(true, 21), 4)
	run := func(mode Mode) *LiveMetrics {
		t.Helper()
		_, lm, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, LiveConfig{Mode: mode, CheckEvery: 16})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return lm
	}
	peers := int64(len(fs) - 1)
	if lm := run(ModeAPGC); lm.Batches > peers*lm.Rounds {
		t.Errorf("AP-GC: %d batches over %d rounds, want <= %d per round", lm.Batches, lm.Rounds, peers)
	}
	if lm := run(ModeGAP); lm.Batches <= peers*lm.Rounds {
		t.Errorf("GAP: %d batches over %d rounds, want > %d per round", lm.Batches, lm.Rounds, peers)
	}
	if lm := run(ModeAPVC); 2*lm.Batches < lm.Updates {
		t.Errorf("AP-VC: %d batches for %d updates, want >= one per two updates", lm.Batches, lm.Updates)
	}
}
