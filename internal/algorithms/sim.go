package algorithms

import (
	"math/bits"
	"math/rand"

	"argan/internal/ace"
	"argan/internal/graph"
)

// SimSet is the status variable of graph simulation: a bitmask over pattern
// vertices (patterns have at most 64 vertices; the paper uses |V_Q| = 4).
// Bit q set means "graph vertex v may simulate pattern vertex q".
type SimSet = uint64

// SeqSim computes the graph-simulation relation of pattern onto g
// (Henzinger-Henzinger-Kopke fixpoint): sim[v] has bit q set iff v
// simulates pattern vertex q — labels match and every pattern edge q→q' is
// matched by some edge v→v' with v' simulating q'.
func SeqSim(g *graph.Graph, pattern *graph.Graph) []SimSet {
	n := g.NumVertices()
	sim := make([]SimSet, n)
	for v := 0; v < n; v++ {
		for q := 0; q < pattern.NumVertices(); q++ {
			if pattern.Label(graph.VID(q)) == g.Label(graph.VID(v)) {
				sim[v] |= 1 << q
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			m := simUpdate(sim[v], pattern, g.OutNeighbors(graph.VID(v)), sim)
			if m != sim[v] {
				sim[v] = m
				changed = true
			}
		}
	}
	return sim
}

// simUpdate removes pattern vertices whose out-edges cannot be matched by
// the successors' masks.
func simUpdate(m SimSet, pattern *graph.Graph, succ []uint32, simOf []SimSet) SimSet {
	for q := 0; q < pattern.NumVertices(); q++ {
		if m&(1<<q) == 0 {
			continue
		}
		for _, qq := range pattern.OutNeighbors(graph.VID(q)) {
			ok := false
			for _, u := range succ {
				if simOf[u]&(1<<qq) != 0 {
					ok = true
					break
				}
			}
			if !ok {
				m &^= 1 << q
				break
			}
		}
	}
	return m
}

// Sim is graph simulation as an ACE program. The status variable only
// shrinks and is read through out-edges (Y_xv is the successor masks), so
// both sequential and parallel executions are PAF — Category I, τ ≡ 0 —
// which is why the paper finds GAP has no staleness to remove for Sim.
type Sim struct {
	f       *graph.Fragment
	pattern *graph.Graph
}

// NewSim returns a factory for Sim program instances.
func NewSim() ace.Factory[SimSet] {
	return func() ace.Program[SimSet] { return &Sim{} }
}

// Name implements ace.Program.
func (p *Sim) Name() string { return "sim" }

// Category implements ace.Program.
func (p *Sim) Category() ace.Category { return ace.CategoryI }

// Deps implements ace.Program.
func (p *Sim) Deps() ace.DepKind { return ace.DepOut }

// Setup implements ace.Program.
func (p *Sim) Setup(f *graph.Fragment, q ace.Query) {
	p.f = f
	p.pattern = q.Pattern
}

// InitValue implements ace.Program: label-compatible pattern vertices.
func (p *Sim) InitValue(f *graph.Fragment, local uint32, q ace.Query) (SimSet, bool) {
	var m SimSet
	for pv := 0; pv < q.Pattern.NumVertices(); pv++ {
		if q.Pattern.Label(graph.VID(pv)) == f.Label(local) {
			m |= 1 << pv
		}
	}
	return m, f.IsOwned(local) && m != 0
}

// Update implements ace.Program.
func (p *Sim) Update(ctx *ace.Ctx[SimSet], local uint32) {
	m := ctx.Get(local)
	if m == 0 {
		return
	}
	succ := p.f.OutNeighbors(local)
	for q := 0; q < p.pattern.NumVertices(); q++ {
		if m&(1<<q) == 0 {
			continue
		}
		for _, qq := range p.pattern.OutNeighbors(graph.VID(q)) {
			ok := false
			for _, u := range succ {
				if ctx.Get(u)&(1<<qq) != 0 {
					ok = true
					break
				}
			}
			if !ok {
				m &^= 1 << q
				break
			}
		}
	}
	if m != ctx.Get(local) {
		ctx.Set(local, m)
	}
}

// Aggregate implements ace.Program: masks only shrink, so intersection is
// the order-insensitive monotone merge.
func (p *Sim) Aggregate(cur, in SimSet) (SimSet, bool) {
	m := cur & in
	return m, m != cur
}

// Algebra implements ace.Algebraic (set intersection, a lattice join).
func (p *Sim) Algebra() ace.Algebra[SimSet] {
	return ace.Algebra[SimSet]{Laws: ace.SelectionLaws()}
}

// Equal implements ace.Program.
func (p *Sim) Equal(a, b SimSet) bool { return a == b }

// Delta implements ace.Program: number of pattern vertices dropped/changed.
func (p *Sim) Delta(a, b SimSet) float64 { return float64(bits.OnesCount64(a ^ b)) }

// Size implements ace.Program.
func (p *Sim) Size(SimSet) int { return 8 }

// Output implements ace.Program.
func (p *Sim) Output(ctx *ace.Ctx[SimSet], local uint32) SimSet { return ctx.Get(local) }

// Cost implements ace.Coster: the update scans the successor list once per
// live pattern edge.
func (p *Sim) Cost(f *graph.Fragment, local uint32) float64 {
	e := p.pattern.NumEdges()
	if e == 0 {
		e = 1
	}
	return float64(f.OutDegree(local)*e) + 1
}

// RandomPattern generates a connected labeled query pattern with nv
// vertices and ne edges, drawing labels from the data graph so matches
// exist with reasonable probability (the paper uses |Q| = (4,5)).
func RandomPattern(g *graph.Graph, nv, ne int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nv, true)
	// Labels sampled from actual graph vertices.
	for v := 0; v < nv; v++ {
		b.SetLabel(graph.VID(v), g.Label(graph.VID(r.Intn(g.NumVertices()))))
	}
	// Spanning path for connectivity, then extra random edges.
	type edge struct{ a, b graph.VID }
	seen := map[edge]bool{}
	add := func(a, bb graph.VID) bool {
		if a == bb || seen[edge{a, bb}] {
			return false
		}
		seen[edge{a, bb}] = true
		b.AddEdge(a, bb)
		return true
	}
	for v := 1; v < nv; v++ {
		add(graph.VID(r.Intn(v)), graph.VID(v))
	}
	for b.NumPendingEdges() < ne {
		if !add(graph.VID(r.Intn(nv)), graph.VID(r.Intn(nv))) && len(seen) >= nv*(nv-1) {
			break
		}
	}
	return b.MustBuild()
}
