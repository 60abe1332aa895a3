package algorithms

import (
	"math"

	"argan/internal/ace"
	"argan/internal/graph"
)

// SeqBFS returns hop distances from src (-1 when unreachable).
func SeqBFS(g *graph.Graph, src graph.VID) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	// One FIFO holds the levels back to back, in the order a per-level
	// frontier would list them; each vertex enters once, so it never grows.
	queue := make([]graph.VID, 1, len(dist))
	queue[0] = src
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, u := range g.OutNeighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

const bfsInf = int32(math.MaxInt32)

// seqHops is SeqBFS in the BFS program's value domain: SeqBFS marks an
// unreachable vertex -1, the engine leaves InitValue's bfsInf.
func seqHops(g *graph.Graph, src graph.VID) []int32 {
	hops := SeqBFS(g, src)
	for v, h := range hops {
		if h < 0 {
			hops[v] = bfsInf
		}
	}
	return hops
}

// BFS is breadth-first search as an ACE program: SSSP with unit weights over
// int32 hop counts. Category II.
type BFS struct {
	f    *graph.Fragment
	warm *ace.WarmState[int32]
}

// NewBFS returns a factory for BFS program instances.
func NewBFS() ace.Factory[int32] {
	return func() ace.Program[int32] { return &BFS{} }
}

// Name implements ace.Program.
func (p *BFS) Name() string { return "bfs" }

// Category implements ace.Program.
func (p *BFS) Category() ace.Category { return ace.CategoryII }

// Deps implements ace.Program.
func (p *BFS) Deps() ace.DepKind { return ace.DepSelf }

// Setup implements ace.Program.
func (p *BFS) Setup(f *graph.Fragment, q ace.Query) {
	p.f = f
	p.warm = ace.WarmOf[int32](q)
}

// InitValue implements ace.Program. Warm starts follow the SSSP pattern:
// owned vertices resume from the planner-adjusted hop counts, ghosts start
// cold — a ghost caches the least hop count sent to its owner, so it must
// start no better than any value the owner can hold.
func (p *BFS) InitValue(f *graph.Fragment, local uint32, q ace.Query) (int32, bool) {
	if p.warm != nil && f.IsOwned(local) {
		g := f.Global(local)
		return p.warm.Values[g], p.warm.Active[g]
	}
	if f.Global(local) == q.Source {
		return 0, true
	}
	return bfsInf, false
}

// Update implements ace.Program.
func (p *BFS) Update(ctx *ace.Ctx[int32], local uint32) {
	d := ctx.Get(local)
	if d == bfsInf {
		return
	}
	for _, u := range p.f.OutNeighbors(local) {
		ctx.Send(u, d+1)
	}
}

// Aggregate implements ace.Program (min).
func (p *BFS) Aggregate(cur, in int32) (int32, bool) {
	if in < cur {
		return in, true
	}
	return cur, false
}

// Equal implements ace.Program.
func (p *BFS) Equal(a, b int32) bool { return a == b }

// Delta implements ace.Program.
func (p *BFS) Delta(a, b int32) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d)
}

// Size implements ace.Program.
func (p *BFS) Size(int32) int { return 4 }

// Output implements ace.Program.
func (p *BFS) Output(ctx *ace.Ctx[int32], local uint32) int32 { return ctx.Get(local) }

// Priority processes nearer frontiers first.
func (p *BFS) Priority(v int32) float64 { return float64(v) }

// Algebra implements ace.Algebraic (min hop count, a lattice join).
func (p *BFS) Algebra() ace.Algebra[int32] {
	return ace.Algebra[int32]{Laws: ace.SelectionLaws()}
}

// SeqWCC labels weakly connected components with the smallest member id.
func SeqWCC(g *graph.Graph) []graph.VID {
	n := g.NumVertices()
	parent := make([]graph.VID, n)
	for i := range parent {
		parent[i] = graph.VID(i)
	}
	for v := 0; v < n; v++ {
		for _, u := range g.OutNeighbors(graph.VID(v)) {
			ra, rb := findRoot(parent, graph.VID(v)), findRoot(parent, u)
			if ra < rb {
				parent[rb] = ra
			} else if rb < ra {
				parent[ra] = rb
			}
		}
	}
	out := make([]graph.VID, n)
	for v := range out {
		out[v] = findRoot(parent, graph.VID(v))
	}
	return out
}

// findRoot returns v's union-find root, halving the path on the way.
func findRoot(parent []graph.VID, v graph.VID) graph.VID {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// WCC is weakly-connected-components as an ACE program: label propagation of
// the minimum vertex id across the undirected closure of the graph.
// Category II (a label is final once the component minimum reaches it).
type WCC struct {
	f    *graph.Fragment
	warm *ace.WarmState[uint32]
}

// NewWCC returns a factory for WCC program instances.
func NewWCC() ace.Factory[uint32] {
	return func() ace.Program[uint32] { return &WCC{} }
}

// Name implements ace.Program.
func (p *WCC) Name() string { return "wcc" }

// Category implements ace.Program.
func (p *WCC) Category() ace.Category { return ace.CategoryII }

// Deps implements ace.Program.
func (p *WCC) Deps() ace.DepKind { return ace.DepSelf }

// Setup implements ace.Program.
func (p *WCC) Setup(f *graph.Fragment, q ace.Query) {
	p.f = f
	p.warm = ace.WarmOf[uint32](q)
}

// InitValue implements ace.Program. Warm starts resume owned vertices from
// the planner-adjusted labels (deletion-affected components reset to
// self-labels); ghosts always start at their own id. A ghost caches the
// least label sent to its owner, so it must start no better than any label
// the owner can hold — and no owner's label exceeds its own id.
func (p *WCC) InitValue(f *graph.Fragment, local uint32, q ace.Query) (uint32, bool) {
	if p.warm != nil && f.IsOwned(local) {
		g := f.Global(local)
		return p.warm.Values[g], p.warm.Active[g]
	}
	return f.Global(local), f.IsOwned(local)
}

// Update implements ace.Program: push the current label both ways (weak
// connectivity ignores direction).
func (p *WCC) Update(ctx *ace.Ctx[uint32], local uint32) {
	l := ctx.Get(local)
	for _, u := range p.f.OutNeighbors(local) {
		ctx.Send(u, l)
	}
	if p.f.Directed() {
		for _, u := range p.f.InNeighbors(local) {
			ctx.Send(u, l)
		}
	}
}

// Aggregate implements ace.Program (min label).
func (p *WCC) Aggregate(cur, in uint32) (uint32, bool) {
	if in < cur {
		return in, true
	}
	return cur, false
}

// Equal implements ace.Program.
func (p *WCC) Equal(a, b uint32) bool { return a == b }

// Delta implements ace.Program.
func (p *WCC) Delta(a, b uint32) float64 {
	if a == b {
		return 0
	}
	return 1
}

// Size implements ace.Program.
func (p *WCC) Size(uint32) int { return 4 }

// Output implements ace.Program.
func (p *WCC) Output(ctx *ace.Ctx[uint32], local uint32) uint32 { return ctx.Get(local) }

// Algebra implements ace.Algebraic (min label, a lattice join).
func (p *WCC) Algebra() ace.Algebra[uint32] {
	return ace.Algebra[uint32]{Laws: ace.SelectionLaws()}
}

// Cost implements ace.Coster: WCC scans both adjacencies on directed graphs.
func (p *WCC) Cost(f *graph.Fragment, local uint32) float64 {
	c := float64(f.OutDegree(local)) + 1
	if f.Directed() {
		c += float64(f.InDegree(local))
	}
	return c
}
