package argan

import (
	"math"
	"testing"

	"argan/internal/algorithms"
	"argan/internal/graph"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := NewBuilder(4, false).
		AddWeighted(0, 1, 2).
		AddWeighted(1, 2, 2).
		AddWeighted(0, 2, 5).
		MustBuild()
	env := Env{Workers: 2}
	res, err := SSSP(g, 0, env, env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 4, math.Inf(1)}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Values[v], want[v])
		}
	}
	if res.Metrics.RespTime <= 0 || !res.Metrics.Converged {
		t.Fatalf("bad metrics: %+v", res.Metrics)
	}
}

func TestPublicAPIModesAgree(t *testing.T) {
	g := PowerLaw(GenConfig{N: 500, M: 3000, Directed: true, Seed: 61, MaxW: 10})
	env := Env{Workers: 4}
	ref, err := SSSP(g, 0, env, env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeBSP, ModeAAP, ModeAPGC, ModeAPVC} {
		res, err := SSSP(g, 0, env, env.Config(mode, AdaptFixed))
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Values {
			if res.Values[v] != ref.Values[v] {
				t.Fatalf("%v: dist[%d] differs", mode, v)
			}
		}
	}
}

func TestPublicAPIApplications(t *testing.T) {
	g := KnowledgeBase(GenConfig{N: 400, M: 2000, Seed: 62, Labels: 8})
	env := Env{Workers: 3}
	cfg := env.DefaultConfig()

	if _, err := Color(g, env, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := WCC(g, env, cfg); err != nil {
		t.Fatal(err)
	}
	pr, err := PageRank(g, 1e-3, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pr.Values {
		if r < 0.1499 {
			t.Fatalf("rank below teleport mass: %v", r)
		}
	}
	pat := RandomPattern(g, 4, 5, 9)
	if _, err := Simulation(g, pat, env, cfg); err != nil {
		t.Fatal(err)
	}

	gu := Uniform(GenConfig{N: 300, M: 1500, Directed: false, Seed: 63})
	if _, err := CoreDecomposition(gu, env, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := BFS(gu, 0, env, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPILiveDrivers(t *testing.T) {
	g := PowerLaw(GenConfig{N: 800, M: 6000, Directed: true, Seed: 64, MaxW: 10})
	env := Env{Workers: 4}
	sim, err := SSSP(g, 0, env, env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dist, lm, err := LiveSSSP(g, 0, 4, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v := range dist {
		if dist[v] != sim.Values[v] {
			t.Fatalf("live dist[%d] = %v, sim %v", v, dist[v], sim.Values[v])
		}
	}
	if lm.WallTime <= 0 {
		t.Fatal("no wall time recorded")
	}
	if _, _, err := LivePageRank(g, 1e-3, 4, LiveConfig{Mode: ModeGAP}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	if len(DatasetNames()) != 6 {
		t.Fatalf("datasets: %v", DatasetNames())
	}
	g, err := LoadDataset("HW", 0.02)
	if err != nil || g.Directed() {
		t.Fatalf("HW stand-in wrong: %v %v", g, err)
	}
}

func TestPublicAPIMST(t *testing.T) {
	g := Uniform(GenConfig{N: 200, M: 700, Directed: false, Seed: 65, MaxW: 40})
	env := Env{Workers: 4}
	edges, total, rounds, err := MST(g, env, env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 || total <= 0 || rounds < 1 {
		t.Fatalf("bad MST: %d edges, total %v, %d rounds", len(edges), total, rounds)
	}
	// A spanning forest has |V| - #components edges.
	comps := map[uint32]bool{}
	wcc, err := WCC(g, env, env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range wcc.Values {
		comps[c] = true
	}
	if want := g.NumVertices() - len(comps); len(edges) != want {
		t.Fatalf("forest has %d edges, want %d", len(edges), want)
	}
}

func TestPublicAPIWelshPowell(t *testing.T) {
	g := PowerLaw(GenConfig{N: 600, M: 6000, Directed: false, Seed: 66})
	env := Env{Workers: 4}
	plain, err := Color(g, env, env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rg, perm := RelabelByDegree(g)
	wp, err := Color(rg, env, env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	countColors := func(cs []int32) int {
		max := int32(0)
		for _, c := range cs {
			if c > max {
				max = c
			}
		}
		return int(max) + 1
	}
	// Welsh–Powell (degree-ordered greedy) is a heuristic: usually at least
	// as good as arbitrary-order greedy, never wildly worse.
	if countColors(wp.Values) > countColors(plain.Values)+2 {
		t.Fatalf("Welsh-Powell used %d colors, plain greedy %d",
			countColors(wp.Values), countColors(plain.Values))
	}
	// The relabeled coloring must still be proper under the permutation.
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(VID(v)) {
			if u != VID(v) && wp.Values[perm[v]] == wp.Values[perm[u]] {
				t.Fatalf("conflict on edge (%d,%d)", v, u)
			}
		}
	}
}

// republishCore is Core whose update also re-publishes its vertex's value
// when nothing changed — legal ACE code that must not re-wake anyone.
type republishCore struct{ *algorithms.Core }

func (p republishCore) Update(ctx *Ctx[int32], l uint32) {
	p.Core.Update(ctx, l)
	ctx.Set(l, ctx.Get(l))
}

// TestRunSequentialIgnoresUnchangedSet: the sequential runner treats a Set
// of an unchanged value as the engine does — stored, not shipped, no
// dependent re-activated — so a program the engine converges on converges
// here too instead of hitting the non-convergence cap.
func TestRunSequentialIgnoresUnchangedSet(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 200, M: 1400, Directed: false, Seed: 32})
	factory := func() Program[int32] { return republishCore{&algorithms.Core{}} }
	want := algorithms.SeqCore(g)
	seq, err := RunSequential(g, factory, Query{})
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Workers: 4}
	par, m, err := Run(g, env, env.DefaultConfig(), factory, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Fatal("engine did not converge")
	}
	for v, c := range want {
		if seq[v] != c || par[v] != c {
			t.Fatalf("core[%d]: sequential %d, engine %d, want %d", v, seq[v], par[v], c)
		}
	}
}
