package algorithms

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"argan/internal/graph"
)

// oracleSSSP is the lazy-duplicate Dijkstra over container/heap — one entry
// per relaxation, stale entries skipped at pop — kept as the reference the
// addressable heap must reproduce bit for bit: verification compares engine
// answers against SeqSSSP with ==.
func oracleSSSP(g *graph.Graph, src graph.VID) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	pq := &oracleDistHeap{{0, src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(oracleDist)
		if it.d > dist[it.v] {
			continue
		}
		adj, ws := g.OutNeighbors(it.v), g.OutWeights(it.v)
		for i, u := range adj {
			if nd := it.d + ws[i]; nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, oracleDist{nd, u})
			}
		}
	}
	return dist
}

type oracleDist struct {
	d float64
	v graph.VID
}

type oracleDistHeap []oracleDist

func (h oracleDistHeap) Len() int { return len(h) }
func (h oracleDistHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].v < h[j].v
}
func (h oracleDistHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleDistHeap) Push(x any)   { *h = append(*h, x.(oracleDist)) }
func (h *oracleDistHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oraclePageRank is SeqPageRank with its former sliding FIFO (queue[1:] and
// append), the reference for the compacting one.
func oraclePageRank(g *graph.Graph, eps float64) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	delta := make([]float64, n)
	for v := range delta {
		delta[v] = 1 - Damping
	}
	queue := make([]graph.VID, n)
	inQ := make([]bool, n)
	for v := range queue {
		queue[v] = graph.VID(v)
		inQ[v] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQ[v] = false
		d := delta[v]
		if d < eps {
			continue
		}
		delta[v] = 0
		rank[v] += d
		deg := g.OutDegree(v)
		if deg == 0 {
			continue
		}
		out := Damping * d / float64(deg)
		for _, u := range g.OutNeighbors(v) {
			delta[u] += out
			if delta[u] >= eps && !inQ[u] {
				inQ[u] = true
				queue = append(queue, u)
			}
		}
	}
	return rank
}

// topSources returns the k highest out-degree vertices, ties by id — the
// pool the service benchmark draws its SSSP/BFS sources from.
func topSources(g *graph.Graph, k int) []graph.VID {
	ids := make([]graph.VID, g.NumVertices())
	for i := range ids {
		ids[i] = graph.VID(i)
	}
	slices.SortStableFunc(ids, func(a, b graph.VID) int { return g.OutDegree(b) - g.OutDegree(a) })
	return ids[:min(k, len(ids))]
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for v := range a {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return v
		}
	}
	return -1
}

// churned applies one batch to g that inserts zero-weight arcs (w omitted)
// out of the top vertices, the same key twice (the last insert wins) and
// re-inserts an existing arc at weight 0, so the new version has fresh
// zero-weight paths and equal-distance ties.
func churned(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	n := graph.VID(g.NumVertices())
	var b graph.MutationBatch
	for i, s := range topSources(g, 4) {
		far := (s + n/2 + graph.VID(i)) % n
		b.Inserts = append(b.Inserts,
			graph.Edge{Src: s, Dst: far},
			graph.Edge{Src: far, Dst: (far + 1) % n, W: 5},
			graph.Edge{Src: far, Dst: (far + 1) % n},
		)
		if adj := g.OutNeighbors(s); len(adj) > 0 {
			b.Inserts = append(b.Inserts, graph.Edge{Src: s, Dst: adj[0]})
		}
	}
	ng, _, err := g.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// TestSeqSSSPMatchesOracle: SeqSSSP, which re-keys a queued vertex, equals
// the lazy-duplicate container/heap Dijkstra bit for bit (+Inf included):
// on HW/DP/LJ before and after a zero-weight churn batch, from several
// top-degree sources; on a graph with parallel arcs and zero weights; on
// the service's LJ@0.5 and DP@0.5 from their top 8 sources; and on 240
// seeded power-law graphs where a third of the arcs weigh 0 (equal-distance
// ties and zero-weight cycles) and some vertices are unreachable: isolated
// ones appended after the generated ones, and whatever directed arcs miss.
func TestSeqSSSPMatchesOracle(t *testing.T) {
	check := func(name string, g *graph.Graph, srcs []graph.VID) {
		t.Helper()
		for _, s := range srcs {
			if v := firstBitDiff(SeqSSSP(g, s), oracleSSSP(g, s)); v >= 0 {
				t.Fatalf("%s from %d: SeqSSSP differs from the oracle at vertex %d", name, s, v)
			}
		}
	}
	for _, ds := range []string{"HW", "DP", "LJ"} {
		g := graph.MustDataset(ds, 0.05)
		srcs := append(topSources(g, 3), 0, graph.VID(g.NumVertices()-1))
		check(ds, g, srcs)
		check(ds+"+churn", churned(t, g), srcs)
	}
	par := graph.NewBuilder(6, true).
		AddWeighted(0, 1, 2).AddWeighted(0, 1, 0).AddWeighted(0, 1, 2).
		AddWeighted(1, 2, 0).AddWeighted(0, 2, 0).AddWeighted(2, 3, 1).
		AddWeighted(1, 3, 1).AddWeighted(3, 4, 0).AddWeighted(3, 4, 0).MustBuild()
	check("parallel", par, []graph.VID{0, 1, 5})
	for _, ds := range []string{"LJ", "DP"} {
		g := graph.MustDataset(ds, 0.5)
		check(ds+"@0.5", g, topSources(g, 8))
	}
	unreached := 0
	for seed := int64(1); seed <= 240; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(200)
		pl := graph.PowerLaw(graph.GenConfig{N: n, M: (2 + r.Intn(4)) * n, Directed: r.Intn(2) == 0,
			Seed: seed, MaxW: float64(1 + r.Intn(10))})
		isolated := 1 + r.Intn(4)
		b := graph.NewBuilder(n+isolated, true)
		for v := range graph.VID(n) {
			ws := pl.OutWeights(v)
			for i, u := range pl.OutNeighbors(v) {
				w := ws[i]
				if r.Intn(3) == 0 {
					w = 0
				}
				b.AddWeighted(v, u, w)
			}
		}
		g := b.MustBuild()
		srcs := append(topSources(g, 2), graph.VID(r.Intn(n)), graph.VID(n+isolated-1))
		check(fmt.Sprintf("powerlaw seed %d", seed), g, srcs)
		for _, d := range SeqSSSP(g, srcs[0]) {
			if math.IsInf(d, 1) {
				unreached++
			}
		}
	}
	if unreached == 0 {
		t.Fatal("no power-law graph left a vertex unreachable")
	}
}

// oracleBFS is SeqBFS as it ran with a fresh frontier slice per level.
func oracleBFS(g *graph.Graph, src graph.VID) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []graph.VID{src}
	for len(frontier) > 0 {
		var next []graph.VID
		for _, v := range frontier {
			for _, u := range g.OutNeighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

// TestSeqBFSMatchesOracle: swapping two reused frontier slices leaves every
// hop count as it was, unreachable -1 included, on HW/DP/LJ before and
// after a churn batch, and on LJ@0.5 from its top sources.
func TestSeqBFSMatchesOracle(t *testing.T) {
	check := func(name string, g *graph.Graph, srcs []graph.VID) {
		t.Helper()
		for _, s := range srcs {
			if got, want := SeqBFS(g, s), oracleBFS(g, s); !slices.Equal(got, want) {
				t.Fatalf("%s from %d: SeqBFS differs from the oracle", name, s)
			}
		}
	}
	for _, ds := range []string{"HW", "DP", "LJ"} {
		g := graph.MustDataset(ds, 0.05)
		srcs := append(topSources(g, 3), 0, graph.VID(g.NumVertices()-1))
		check(ds, g, srcs)
		check(ds+"+churn", churned(t, g), srcs)
	}
	g := graph.MustDataset("LJ", 0.5)
	check("LJ@0.5", g, topSources(g, 4))
}

// TestSeqPageRankMatchesOracle: the compacting FIFO pops in the order of
// the sliding one, so the ranks are bit-identical.
func TestSeqPageRankMatchesOracle(t *testing.T) {
	for _, ds := range []string{"HW", "DP", "LJ"} {
		g := graph.MustDataset(ds, 0.05)
		for _, eps := range []float64{1e-3, 1e-6} {
			if v := firstBitDiff(SeqPageRank(g, eps), oraclePageRank(g, eps)); v >= 0 {
				t.Fatalf("%s eps=%g: rank differs from the oracle at vertex %d", ds, eps, v)
			}
		}
	}
}

// BenchmarkSeqReferences times the sequential references verification
// compares against, on the service benchmark's LJ@0.5 (SSSP/BFS from the
// top out-degree vertex, PageRank at the service's eps).
func BenchmarkSeqReferences(b *testing.B) {
	g := graph.MustDataset("LJ", 0.5)
	src := topSources(g, 1)[0]
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"sssp", func() { SeqSSSP(g, src) }},
		{"bfs", func() { SeqBFS(g, src) }},
		{"wcc", func() { SeqWCC(g) }},
		{"pr", func() { SeqPageRank(g, 1e-3) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
