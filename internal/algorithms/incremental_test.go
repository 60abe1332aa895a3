package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"argan/internal/ace"
	"argan/internal/graph"
)

// TestCanIncrementGate pins down which programs are allowed into the
// incremental path: retractable sum folds (an algebra with an Invert) and
// lattice joins may restart from a stale Ψ; everything else must
// full-recompute.
func TestCanIncrementGate(t *testing.T) {
	if !ace.CanIncrement(NewPageRank()()) {
		t.Error("PageRank (sum with an inverse) must be incrementable")
	}
	if !ace.CanIncrement(NewSSSP()()) || !ace.CanIncrement(NewBFS()()) || !ace.CanIncrement(NewWCC()()) {
		t.Error("min-fold programs (lattice joins) must be incrementable")
	}
	if ace.CanIncrement(NewColor()()) {
		t.Error("Color's replacement aggregate is neither invertible nor a lattice join; it must fall back to recompute")
	}
	if ace.CanIncrement[MSTVal](&mstRound{}) {
		t.Error("a program that declares no algebra must fall back to recompute")
	}
}

func TestDiffArcs(t *testing.T) {
	oldG := graph.NewBuilder(4, true).
		AddWeighted(0, 1, 5).AddWeighted(0, 2, 3).AddWeighted(1, 2, 7).MustBuild()
	b := graph.MutationBatch{
		Deletes: []graph.Edge{{Src: 0, Dst: 1}},
		Inserts: []graph.Edge{{Src: 0, Dst: 2, W: 9}, {Src: 2, Dst: 3, W: 1}},
	}
	newG, _, err := oldG.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	removed, added := diffArcs(oldG, newG, b.Endpoints())
	wantRemoved := []graph.Edge{{Src: 0, Dst: 1, W: 5}, {Src: 0, Dst: 2, W: 3}}
	wantAdded := []graph.Edge{{Src: 0, Dst: 2, W: 9}, {Src: 2, Dst: 3, W: 1}}
	if len(removed) != len(wantRemoved) || len(added) != len(wantAdded) {
		t.Fatalf("diff = removed %v added %v, want removed %v added %v", removed, added, wantRemoved, wantAdded)
	}
	for i := range wantRemoved {
		if removed[i] != wantRemoved[i] {
			t.Fatalf("removed[%d] = %v, want %v", i, removed[i], wantRemoved[i])
		}
	}
	for i := range wantAdded {
		if added[i] != wantAdded[i] {
			t.Fatalf("added[%d] = %v, want %v", i, added[i], wantAdded[i])
		}
	}
}

// TestWarmSSSPPlannerConservative replays the planner against a brute-force
// recompute: every vertex whose distance changed between versions must be
// either dirty (reset to Inf) or downstream of an activated vertex — the
// planner may over-approximate but must never leave a stale-but-clean
// shorter distance in place (min folds cannot grow back).
func TestWarmSSSPPlannerConservative(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := graph.PowerLaw(graph.GenConfig{N: 300, M: 1800, Directed: true, Seed: seed, MaxW: 9})
		oldDist := SeqSSSP(g, 0)

		// Drop a handful of existing arcs (the hard direction for min folds).
		var b graph.MutationBatch
		for v := 0; v < g.NumVertices() && len(b.Deletes) < 12; v += 17 {
			adj := g.OutNeighbors(graph.VID(v))
			if len(adj) > 0 {
				b.Deletes = append(b.Deletes, graph.Edge{Src: graph.VID(v), Dst: adj[0]})
			}
		}
		newG, _, err := g.ApplyMutations(b)
		if err != nil {
			t.Fatal(err)
		}
		w := WarmSSSP(g, newG, b.Endpoints(), oldDist, 0)
		newDist := SeqSSSP(newG, 0)

		for v := range newDist {
			if w.Values[v] == newDist[v] {
				continue // warm value already correct
			}
			// The warm value is wrong; the planner must have reset it (Inf
			// can only shrink toward the truth) — a finite wrong distance
			// could never be repaired by a min fold.
			if !math.IsInf(w.Values[v], 1) {
				t.Fatalf("seed %d: vertex %d warm %v, truth %v — finite stale value not invalidated",
					seed, v, w.Values[v], newDist[v])
			}
			if newDist[v] < w.Values[v] && math.IsInf(newDist[v], 1) {
				t.Fatalf("seed %d: vertex %d reset below truth", seed, v)
			}
		}
	}
}

// relaxWarm is the planner contract's judge: a sequential worklist
// relaxation that starts from a warm state, scatters step(value, w) from
// every active vertex along its out-arcs (and in-arcs when both is set, as
// WCC does on a directed graph), and keeps the minimum. It reaches the
// reference only if every clean value is reachable in g and every vertex
// that may improve is active.
func relaxWarm[V int32 | uint32 | float64](g *graph.Graph, w *ace.WarmState[V], inf V, step func(V, float64) V, both bool) []V {
	val := append([]V(nil), w.Values...)
	inQ := append([]bool(nil), w.Active...)
	var work []graph.VID
	for v, a := range w.Active {
		if a {
			work = append(work, graph.VID(v))
		}
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		inQ[u] = false
		if val[u] == inf {
			continue
		}
		scatter := func(adj []graph.VID, ws []float64) {
			for i, x := range adj {
				if d := step(val[u], ws[i]); d < val[x] {
					val[x] = d
					if !inQ[x] {
						inQ[x] = true
						work = append(work, x)
					}
				}
			}
		}
		scatter(g.OutNeighbors(u), g.OutWeights(u))
		if both && g.Directed() {
			scatter(g.InNeighbors(u), g.InWeights(u))
		}
	}
	return val
}

func relaxSSSP(g *graph.Graph, w *ace.WarmState[float64]) []float64 {
	return relaxWarm(g, w, Inf, func(d, wt float64) float64 { return d + wt }, false)
}

func relaxBFS(g *graph.Graph, w *ace.WarmState[int32]) []int32 {
	return relaxWarm(g, w, bfsInf, func(d int32, _ float64) int32 { return d + 1 }, false)
}

func relaxWCC(g *graph.Graph, w *ace.WarmState[uint32]) []uint32 {
	return relaxWarm(g, w, math.MaxUint32, func(l uint32, _ float64) uint32 { return l }, true)
}

// firstDiff returns the first position where got and want differ, or -1.
func firstDiff[V comparable](got, want []V) int {
	for v := range want {
		if got[v] != want[v] {
			return v
		}
	}
	return -1
}

// mutate applies b to g or fails the test.
func mutate(t *testing.T, g *graph.Graph, b graph.MutationBatch) *graph.Graph {
	t.Helper()
	ng, _, err := g.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// TestWarmWCCNonBridgeDeleteResetsNothing: deleting an arc whose endpoints
// stay connected through the rest of their component keeps every label,
// and only the endpoints of inserted arcs are activated.
func TestWarmWCCNonBridgeDeleteResetsNothing(t *testing.T) {
	for _, directed := range []bool{true, false} {
		// A 4-cycle 0→1→2→3→0 with a pendant 4, and a separate pair 5–6.
		g := graph.NewBuilder(8, directed).
			AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 0).AddEdge(2, 4).
			AddEdge(5, 6).MustBuild()
		labels := SeqWCC(g)
		b := graph.MutationBatch{
			Deletes: []graph.Edge{{Src: 0, Dst: 1}},
			Inserts: []graph.Edge{{Src: 7, Dst: 5, W: 1}},
		}
		ng := mutate(t, g, b)
		w := WarmWCC(g, ng, b.Endpoints(), labels)
		for v, l := range labels {
			if w.Values[v] != l {
				t.Fatalf("directed=%v: vertex %d reset to %d, want its label %d kept", directed, v, w.Values[v], l)
			}
			if want := v == 5 || v == 7; w.Active[v] != want {
				t.Fatalf("directed=%v: vertex %d active %v, want %v (insert endpoints only)", directed, v, w.Active[v], want)
			}
		}
		if got, want := relaxWCC(ng, w), SeqWCC(ng); firstDiff(got, want) >= 0 {
			t.Fatalf("directed=%v: relaxed %v, want %v", directed, got, want)
		}
	}
}

// TestWarmWCCBridgeDeleteResetsComponent: deleting a bridge resets every
// vertex of its old component to its self-label and activates it, while
// other components keep their labels and stay inactive.
func TestWarmWCCBridgeDeleteResetsComponent(t *testing.T) {
	for _, directed := range []bool{true, false} {
		// Triangle 0,1,2 bridged by 2→3 to the pair 3–4; a separate pair 5–6.
		g := graph.NewBuilder(7, directed).
			AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0).AddEdge(2, 3).AddEdge(3, 4).
			AddEdge(5, 6).MustBuild()
		labels := SeqWCC(g)
		b := graph.MutationBatch{Deletes: []graph.Edge{{Src: 2, Dst: 3}}}
		ng := mutate(t, g, b)
		w := WarmWCC(g, ng, b.Endpoints(), labels)
		for v, l := range labels {
			if l == labels[2] {
				if w.Values[v] != uint32(v) || !w.Active[v] {
					t.Fatalf("directed=%v: vertex %d of the split component: warm %d active %v", directed, v, w.Values[v], w.Active[v])
				}
			} else if w.Values[v] != l || w.Active[v] {
				t.Fatalf("directed=%v: vertex %d of a clean component: warm %d active %v, want label %d inactive", directed, v, w.Values[v], w.Active[v], l)
			}
		}
		if got, want := relaxWCC(ng, w), SeqWCC(ng); firstDiff(got, want) >= 0 {
			t.Fatalf("directed=%v: relaxed %v, want %v", directed, got, want)
		}
	}
}

// TestWarmWCCChainSplitResetsWholeComponent: a chain A–B–D loses both
// bridges in one batch, with the minimum in A and B the smallest piece.
// Both searches exhaust B first, so resetting only the exhausted side
// would leave D labelled with A's minimum.
func TestWarmWCCChainSplitResetsWholeComponent(t *testing.T) {
	for _, directed := range []bool{true, false} {
		// A = triangle 0,1,2; B = pair 3–4; D = triangle 5,6,7.
		g := graph.NewBuilder(8, directed).
			AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0).
			AddEdge(2, 3).AddEdge(3, 4).AddEdge(4, 5).
			AddEdge(5, 6).AddEdge(6, 7).AddEdge(7, 5).MustBuild()
		b := graph.MutationBatch{Deletes: []graph.Edge{{Src: 2, Dst: 3}, {Src: 4, Dst: 5}}}
		ng := mutate(t, g, b)
		w := WarmWCC(g, ng, b.Endpoints(), SeqWCC(g))
		got, want := relaxWCC(ng, w), SeqWCC(ng)
		if v := firstDiff(got, want); v >= 0 {
			t.Fatalf("directed=%v: vertex %d labelled %d, want %d", directed, v, got[v], want[v])
		}
	}
}

// TestWarmSSSPZeroWeightCycleNoSelfSupport: two vertices joined by
// zero-weight arcs both ways lose their only support. Each is tight from
// the other at equal distance, so without the strictly-closer guard they
// would keep each other's stale distance although both are unreachable.
func TestWarmSSSPZeroWeightCycleNoSelfSupport(t *testing.T) {
	g := graph.NewBuilder(4, true).
		AddWeighted(0, 1, 1).AddWeighted(1, 2, 1).
		AddWeighted(2, 3, 0).AddWeighted(3, 2, 0).MustBuild()
	b := graph.MutationBatch{Deletes: []graph.Edge{{Src: 1, Dst: 2}}}
	ng := mutate(t, g, b)
	w := WarmSSSP(g, ng, b.Endpoints(), SeqSSSP(g, 0), 0)
	got, want := relaxSSSP(ng, w), SeqSSSP(ng, 0)
	if v := firstDiff(got, want); v >= 0 {
		t.Fatalf("vertex %d at %v, want %v", v, got[v], want[v])
	}
}

// TestWarmPlannersChainedProperty chains random batches through every
// min-fold planner on sparse power-law graphs (directed and undirected,
// with bridges): 1–8 deletes and 0–3 inserts of weight 0, 1 or 2 per
// round, some of them weight changes of existing edges. Each round a
// sequential relaxation from the planner's warm state must equal the
// reference on the new version, and that answer is the next round's prior.
func TestWarmPlannersChainedProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(201)
		cfg := graph.GenConfig{N: n, M: n + r.Intn(n), Directed: seed%2 == 0, Seed: seed}
		if seed%3 == 0 {
			cfg.MaxW = 3
		}
		g := graph.PowerLaw(cfg)
		const src = 0
		dist, hops, labels := SeqSSSP(g, src), seqHops(g, src), SeqWCC(g)
		for round := 1; round <= 6; round++ {
			b := randomBatch(r, g)
			ng := mutate(t, g, b)
			touched := b.Endpoints()
			fail := func(app string, v int, got, want any) {
				t.Fatalf("seed %d round %d (n=%d directed=%v, batch %+v): %s vertex %d = %v, want %v",
					seed, round, n, cfg.Directed, b, app, v, got, want)
			}
			nd := relaxSSSP(ng, WarmSSSP(g, ng, touched, dist, src))
			if want := SeqSSSP(ng, src); firstDiff(nd, want) >= 0 {
				v := firstDiff(nd, want)
				fail("sssp", v, nd[v], want[v])
			}
			nh := relaxBFS(ng, WarmBFS(g, ng, touched, hops, src))
			if want := seqHops(ng, src); firstDiff(nh, want) >= 0 {
				v := firstDiff(nh, want)
				fail("bfs", v, nh[v], want[v])
			}
			nl := relaxWCC(ng, WarmWCC(g, ng, touched, labels))
			if want := SeqWCC(ng); firstDiff(nl, want) >= 0 {
				v := firstDiff(nl, want)
				fail("wcc", v, nl[v], want[v])
			}
			g, dist, hops, labels = ng, nd, nh, nl
		}
	}
}

// randomBatch draws 1–8 deletes of distinct existing edges and 0–3 inserts
// of weight 0, 1 or 2, each insert either a fresh arc or a new weight for
// an existing one.
func randomBatch(r *rand.Rand, g *graph.Graph) graph.MutationBatch {
	var arcs []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(graph.VID(u)) {
			if g.Directed() || graph.VID(u) <= v {
				arcs = append(arcs, graph.Edge{Src: graph.VID(u), Dst: v})
			}
		}
	}
	var b graph.MutationBatch
	for _, i := range r.Perm(len(arcs))[:min(len(arcs), 1+r.Intn(8))] {
		b.Deletes = append(b.Deletes, arcs[i])
	}
	for k := r.Intn(4); k > 0; k-- {
		e := graph.Edge{W: float64(r.Intn(3))}
		if r.Intn(3) == 0 && len(arcs) > 0 {
			a := arcs[r.Intn(len(arcs))] // reweight (or revive) an existing edge
			e.Src, e.Dst = a.Src, a.Dst
		} else {
			e.Src, e.Dst = graph.VID(r.Intn(g.NumVertices())), graph.VID(r.Intn(g.NumVertices()))
		}
		b.Inserts = append(b.Inserts, e)
	}
	return b
}

// churnBatch draws a service-benchmark-shaped batch against g: ops/2
// deletes of random existing arcs and the rest fresh inserts of weight
// 1–100, deterministic in seed.
func churnBatch(g *graph.Graph, seed int64, ops int) graph.MutationBatch {
	r := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	named := map[[2]graph.VID]bool{}
	var b graph.MutationBatch
	for len(b.Deletes) < ops/2 {
		u := graph.VID(r.Intn(n))
		adj := g.OutNeighbors(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[r.Intn(len(adj))]
		if !named[[2]graph.VID{u, v}] {
			named[[2]graph.VID{u, v}] = true
			b.Deletes = append(b.Deletes, graph.Edge{Src: u, Dst: v})
		}
	}
	for len(b.Inserts) < ops-ops/2 {
		u, v := graph.VID(r.Intn(n)), graph.VID(r.Intn(n))
		if u != v && !named[[2]graph.VID{u, v}] && !g.HasEdge(u, v) {
			named[[2]graph.VID{u, v}] = true
			b.Inserts = append(b.Inserts, graph.Edge{Src: u, Dst: v, W: float64(1 + r.Intn(100))})
		}
	}
	return b
}

var planSink any

// BenchmarkWarmPlanners times each warm planner alone on the service
// benchmark's LJ@0.5, from the reference fixpoint of the old version, for
// churn-point's 2-op batch and churn-bulk's 1 % batch (SSSP/BFS from the
// top out-degree vertex, PageRank at the service's eps).
func BenchmarkWarmPlanners(b *testing.B) {
	g := graph.MustDataset("LJ", 0.5)
	src := topSources(g, 1)[0]
	dist, hops, labels := SeqSSSP(g, src), seqHops(g, src), SeqWCC(g)
	ranks, psi := SeqPageRank(g, 1e-3), make([]float64, g.NumVertices())
	for _, shape := range []struct {
		name string
		ops  int
	}{{"point", 2}, {"bulk", g.NumEdges() / 100}} {
		batch := churnBatch(g, 1, shape.ops)
		ng, _, err := g.ApplyMutations(batch)
		if err != nil {
			b.Fatal(err)
		}
		touched := batch.Endpoints()
		for _, c := range []struct {
			name string
			plan func() any
		}{
			{"sssp", func() any { return WarmSSSP(g, ng, touched, dist, src) }},
			{"bfs", func() any { return WarmBFS(g, ng, touched, hops, src) }},
			{"wcc", func() any { return WarmWCC(g, ng, touched, labels) }},
			{"pr", func() any { return WarmPageRank(g, ng, touched, psi, ranks, 1e-3) }},
		} {
			b.Run(c.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					planSink = c.plan()
				}
			})
		}
	}
}
