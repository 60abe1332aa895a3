// Package algorithms provides the graph applications of the paper — SSSP
// (parallelized Dijkstra and Bellman-Ford), BFS, WCC, graph coloring,
// Δ-based PageRank, core decomposition (h-index) and graph simulation —
// each as a sequential reference implementation (the batch algorithm A of
// §IV, used as ground truth) plus the ACE program ρ_A derived from it
// following the paper's parallelization recipe.
package algorithms

import (
	"math"

	"argan/internal/ace"
	"argan/internal/graph"
)

// Inf is the distance of unreachable vertices.
var Inf = math.Inf(1)

// SeqSSSP is Dijkstra's algorithm with an addressable binary heap: the
// sequential reference for SSSP. A relaxation re-keys a queued vertex, so
// each reachable vertex pops exactly once, at its final distance.
func SeqSSSP(g *graph.Graph, src graph.VID) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	pq := ace.NewHeap(len(dist), len(dist))
	pq.Push(src, 0)
	for pq.Len() > 0 {
		it := pq.Pop()
		adj, ws := g.OutNeighbors(it.ID), g.OutWeights(it.ID)
		for i, u := range adj {
			if nd := it.P + ws[i]; nd < dist[u] {
				dist[u] = nd
				pq.Push(u, nd)
			}
		}
	}
	return dist
}

// SSSP is the ACE program derived from Dijkstra's algorithm: the status
// variable is the tentative distance, the update function relaxes the
// vertex's out-edges, g_aggr is min, and the active set is a priority queue
// so nearer vertices relax first (the parallelized Dijkstra of [3]).
// Sequentially PAF, PBF in parallel — Category II.
type SSSP struct {
	f    *graph.Fragment
	warm *ace.WarmState[float64]
}

// NewSSSP returns a factory for SSSP program instances.
func NewSSSP() ace.Factory[float64] {
	return func() ace.Program[float64] { return &SSSP{} }
}

// Name implements ace.Program.
func (p *SSSP) Name() string { return "sssp" }

// Category implements ace.Program.
func (p *SSSP) Category() ace.Category { return ace.CategoryII }

// Deps implements ace.Program.
func (p *SSSP) Deps() ace.DepKind { return ace.DepSelf }

// Setup implements ace.Program.
func (p *SSSP) Setup(f *graph.Fragment, q ace.Query) {
	p.f = f
	p.warm = ace.WarmOf[float64](q)
}

// InitValue implements ace.Program. On a warm start, owned vertices resume
// from the planner-adjusted prior distances (dirty ones reset to +Inf);
// ghosts always start cold at +Inf. A ghost's Ψ caches the least distance
// sent to its owner (min is replay-tolerant), so it must start no better
// than any value the owner can hold: +Inf, or 0 for the source, whose owner
// holds 0 warm or cold.
func (p *SSSP) InitValue(f *graph.Fragment, local uint32, q ace.Query) (float64, bool) {
	if p.warm != nil && f.IsOwned(local) {
		g := f.Global(local)
		return p.warm.Values[g], p.warm.Active[g]
	}
	if f.Global(local) == q.Source {
		return 0, true
	}
	return Inf, false
}

// Update relaxes the out-edges of the vertex (f_xv reads x_v and scatters
// x_v + w along each edge).
func (p *SSSP) Update(ctx *ace.Ctx[float64], local uint32) {
	d := ctx.Get(local)
	if math.IsInf(d, 1) {
		return
	}
	adj, ws := p.f.OutNeighbors(local), p.f.OutWeights(local)
	for i, u := range adj {
		ctx.Send(u, d+ws[i])
	}
}

// Aggregate is min (monotone, idempotent, commutative — the convergence
// condition of §II-B).
func (p *SSSP) Aggregate(cur, in float64) (float64, bool) {
	if in < cur {
		return in, true
	}
	return cur, false
}

// Equal implements ace.Program.
func (p *SSSP) Equal(a, b float64) bool { return a == b }

// Delta implements ace.Program.
func (p *SSSP) Delta(a, b float64) float64 {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			return 0
		}
		return 1
	}
	return math.Abs(a - b)
}

// Size implements ace.Program.
func (p *SSSP) Size(float64) int { return 8 }

// Output implements ace.Program.
func (p *SSSP) Output(ctx *ace.Ctx[float64], local uint32) float64 { return ctx.Get(local) }

// Priority orders the active set by tentative distance (Dijkstra order).
func (p *SSSP) Priority(v float64) float64 { return v }

// Algebra implements ace.Algebraic: min is a lattice join, so a distance
// that does not lower a ghost's cache never leaves the worker, and
// re-folding a replayed distance is harmless — localized recovery repairs
// survivors by re-ingestion alone.
func (p *SSSP) Algebra() ace.Algebra[float64] {
	return ace.Algebra[float64]{Laws: ace.SelectionLaws()}
}

// SeqBellmanFord is the queue-based Bellman-Ford reference.
func SeqBellmanFord(g *graph.Graph, src graph.VID) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	queue := []graph.VID{src}
	inQ := make([]bool, g.NumVertices())
	inQ[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQ[v] = false
		adj, ws := g.OutNeighbors(v), g.OutWeights(v)
		for i, u := range adj {
			if nd := dist[v] + ws[i]; nd < dist[u] {
				dist[u] = nd
				if !inQ[u] {
					inQ[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return dist
}

// BellmanFord is the Category III SSSP variant: identical relaxation but
// FIFO scheduling (x_v is read and propagated before its fixpoint even
// sequentially).
type BellmanFord struct{ SSSP }

// NewBellmanFord returns a factory for Bellman-Ford program instances.
func NewBellmanFord() ace.Factory[float64] {
	return func() ace.Program[float64] { return &BellmanFord{} }
}

// Name implements ace.Program.
func (p *BellmanFord) Name() string { return "bellman-ford" }

// Category implements ace.Program.
func (p *BellmanFord) Category() ace.Category { return ace.CategoryIII }

// Setup implements ace.Program.
func (p *BellmanFord) Setup(f *graph.Fragment, q ace.Query) { p.SSSP.Setup(f, q) }

// BellmanFord deliberately does not implement Prioritizer: relaxations run
// in FIFO order. The embedded SSSP.Priority method is shadowed away.
func (p *BellmanFord) Priority() {}
