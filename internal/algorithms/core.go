package algorithms

import (
	"sort"

	"argan/internal/ace"
	"argan/internal/graph"
)

// SeqCore computes the core decomposition by the classic peeling algorithm
// (Seidman / Batagelj-Zaveršnik bucket peeling): repeatedly remove the
// minimum-degree vertex. It is the PAF sequential reference; the h-index
// fixpoint below converges to the same coreness values (Lü et al.).
func SeqCore(g *graph.Graph) []int32 {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.VID(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort by degree.
	bins := make([]int, maxDeg+2)
	for _, d := range deg {
		bins[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bins[d]
		bins[d] = start
		start += c
	}
	pos := make([]int, n)
	order := make([]graph.VID, n)
	cursor := append([]int{}, bins...)
	for v := 0; v < n; v++ {
		pos[v] = cursor[deg[v]]
		order[pos[v]] = graph.VID(v)
		cursor[deg[v]]++
	}
	core := make([]int32, n)
	for i := 0; i < n; i++ {
		v := order[i]
		core[v] = int32(deg[v])
		for _, u := range g.OutNeighbors(v) {
			if deg[u] > deg[v] {
				du := deg[u]
				pu := pos[u]
				pw := bins[du]
				w := order[pw]
				if u != w {
					order[pu], order[pw] = w, u
					pos[u], pos[w] = pw, pu
				}
				bins[du]++
				deg[u]--
			}
		}
	}
	return core
}

// Core is the h-index based core decomposition as an ACE program (Lü et
// al., [25]): x_v starts at deg(v) and iterates x_v ← H({x_u : u ∈ N(v)}),
// the largest h such that at least h neighbors have value ≥ h. Values
// decrease monotonically to the coreness. PBF both ways — Category III.
// Defined for undirected graphs (the paper evaluates Core on HW and FS).
type Core struct {
	f   *graph.Fragment
	buf []int32
}

// NewCore returns a factory for Core program instances.
func NewCore() ace.Factory[int32] {
	return func() ace.Program[int32] { return &Core{} }
}

// Name implements ace.Program.
func (p *Core) Name() string { return "core" }

// Category implements ace.Program.
func (p *Core) Category() ace.Category { return ace.CategoryIII }

// Deps implements ace.Program.
func (p *Core) Deps() ace.DepKind { return ace.DepIn }

// Setup implements ace.Program.
func (p *Core) Setup(f *graph.Fragment, q ace.Query) { p.f = f }

// InitValue implements ace.Program. Ghost vertices start at the safe upper
// bound +inf-like value so they never drag an owner's h-index down before
// their true estimate arrives.
func (p *Core) InitValue(f *graph.Fragment, local uint32, q ace.Query) (int32, bool) {
	if f.IsOwned(local) {
		return int32(f.InDegree(local)), true
	}
	return int32(f.GlobalVertices()), false
}

// Update implements ace.Program: the H-operator over neighbor values,
// clamped by the current value (monotone non-increasing).
func (p *Core) Update(ctx *ace.Ctx[int32], local uint32) {
	nbrs := p.f.InNeighbors(local)
	p.buf = p.buf[:0]
	for _, u := range nbrs {
		p.buf = append(p.buf, ctx.Get(u))
	}
	h := hIndex(p.buf)
	if h < ctx.Get(local) {
		ctx.Set(local, h)
	}
}

// hIndex returns the largest h with at least h values ≥ h. It mutates vals.
func hIndex(vals []int32) int32 {
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	h := int32(0)
	for i, v := range vals {
		if v >= int32(i+1) {
			h = int32(i + 1)
		} else {
			break
		}
	}
	return h
}

// Aggregate implements ace.Program: estimates only decrease, so min is the
// order-insensitive merge.
func (p *Core) Aggregate(cur, in int32) (int32, bool) {
	if in < cur {
		return in, true
	}
	return cur, false
}

// Algebra implements ace.Algebraic (min over estimates, a lattice join).
func (p *Core) Algebra() ace.Algebra[int32] {
	return ace.Algebra[int32]{Laws: ace.SelectionLaws()}
}

// Equal implements ace.Program.
func (p *Core) Equal(a, b int32) bool { return a == b }

// Delta implements ace.Program.
func (p *Core) Delta(a, b int32) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d)
}

// Size implements ace.Program.
func (p *Core) Size(int32) int { return 4 }

// Output implements ace.Program.
func (p *Core) Output(ctx *ace.Ctx[int32], local uint32) int32 { return ctx.Get(local) }

// InitialSync implements ace.InitialSyncer: replicas cannot derive the
// owner's initial degree locally, so border degrees are shipped up front.
func (p *Core) InitialSync() bool { return true }
