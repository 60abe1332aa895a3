package algorithms

import (
	"argan/internal/ace"
	"argan/internal/graph"
)

// SeqColor is the sequential greedy coloring in vertex-id order: vertex v
// takes the smallest color unused by its already-colored (smaller-id)
// neighbors. With vertices relabeled in descending degree order this is
// exactly the Welsh–Powell algorithm the paper parallelizes; the id-priority
// fixpoint below converges to precisely this coloring, which is how the
// §IV correctness property is tested.
func SeqColor(g *graph.Graph) []int32 {
	n := g.NumVertices()
	colors := make([]int32, n)
	used := map[int32]bool{}
	for v := 0; v < n; v++ {
		for k := range used {
			delete(used, k)
		}
		mark := func(u graph.VID) {
			if int(u) < v {
				used[colors[u]] = true
			}
		}
		for _, u := range g.OutNeighbors(graph.VID(v)) {
			mark(u)
		}
		if g.Directed() {
			for _, u := range g.InNeighbors(graph.VID(v)) {
				mark(u)
			}
		}
		c := int32(0)
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// Color is greedy coloring as an ACE program. The update function
// recomputes x_v as the smallest color not used by higher-priority
// (smaller-id) neighbors; the dependency graph is acyclic, so the fixpoint
// converges under any asynchronous schedule and equals SeqColor. Category
// II (sequentially each color is assigned once; in parallel a vertex may
// recolor when a smaller-id neighbor's color arrives late).
type Color struct {
	f *graph.Fragment
}

// NewColor returns a factory for Color program instances.
func NewColor() ace.Factory[int32] {
	return func() ace.Program[int32] { return &Color{} }
}

// Name implements ace.Program.
func (p *Color) Name() string { return "color" }

// Category implements ace.Program.
func (p *Color) Category() ace.Category { return ace.CategoryII }

// Deps implements ace.Program: conflicts cross edges in either direction.
func (p *Color) Deps() ace.DepKind { return ace.DepBoth }

// Setup implements ace.Program.
func (p *Color) Setup(f *graph.Fragment, q ace.Query) { p.f = f }

// InitValue implements ace.Program: everything starts at color 0 and active.
func (p *Color) InitValue(f *graph.Fragment, local uint32, q ace.Query) (int32, bool) {
	return 0, f.IsOwned(local)
}

// Update implements ace.Program.
func (p *Color) Update(ctx *ace.Ctx[int32], local uint32) {
	c := p.choose(ctx, local, true)
	if c != ctx.Get(local) {
		ctx.Set(local, c)
	}
}

// choose returns the smallest color not used by neighbors; onlyHigher
// restricts the scan to higher-priority (smaller global id) neighbors.
func (p *Color) choose(ctx *ace.Ctx[int32], local uint32, onlyHigher bool) int32 {
	me := p.f.Global(local)
	deg := p.f.OutDegree(local) + p.f.InDegree(local)
	used := make([]bool, deg+1)
	mark := func(u uint32) {
		if onlyHigher && p.f.Global(u) >= me {
			return
		}
		if c := ctx.Get(u); int(c) <= deg {
			used[c] = true
		}
	}
	for _, u := range p.f.OutNeighbors(local) {
		mark(u)
	}
	if p.f.Directed() {
		for _, u := range p.f.InNeighbors(local) {
			mark(u)
		}
	}
	c := int32(0)
	for used[c] {
		c++
	}
	return c
}

// Aggregate replaces the replica's color with the owner's latest value.
func (p *Color) Aggregate(cur, in int32) (int32, bool) { return in, cur != in }

// Algebra implements ace.Algebraic: replacement is idempotent but neither
// commutative nor invertible, so Color is not replay-tolerant — a replayed
// stale color would overwrite a fresh one.
func (p *Color) Algebra() ace.Algebra[int32] {
	return ace.Algebra[int32]{Laws: ace.ReplacementLaws()}
}

// Equal implements ace.Program.
func (p *Color) Equal(a, b int32) bool { return a == b }

// Delta implements ace.Program.
func (p *Color) Delta(a, b int32) float64 {
	if a == b {
		return 0
	}
	return 1
}

// Size implements ace.Program.
func (p *Color) Size(int32) int { return 4 }

// Output implements ace.Program.
func (p *Color) Output(ctx *ace.Ctx[int32], local uint32) int32 { return ctx.Get(local) }

// NaiveColor is the symmetric greedy coloring used by the vertex-centric
// competitors (GraphLab_sync, PowerSwitch): x_v is the smallest color not
// used by *any* neighbor. Under a synchronous schedule adjacent vertices
// recolor simultaneously and oscillate forever — the non-convergence the
// paper reports as "NA" in Fig. 5.
type NaiveColor struct {
	Color
}

// NewNaiveColor returns a factory for NaiveColor program instances.
func NewNaiveColor() ace.Factory[int32] {
	return func() ace.Program[int32] { return &NaiveColor{} }
}

// Name implements ace.Program.
func (p *NaiveColor) Name() string { return "color-naive" }

// Setup implements ace.Program.
func (p *NaiveColor) Setup(f *graph.Fragment, q ace.Query) { p.f = f }

// Update implements ace.Program: scan all neighbors, not only
// higher-priority ones.
func (p *NaiveColor) Update(ctx *ace.Ctx[int32], local uint32) {
	c := p.choose(ctx, local, false)
	if c != ctx.Get(local) {
		ctx.Set(local, c)
	}
}
