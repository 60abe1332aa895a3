package algorithms

import (
	"math"

	"argan/internal/ace"
	"argan/internal/graph"
)

// Damping is the PageRank damping factor.
const Damping = 0.85

// SeqPageRank is the sequential Δ-based accumulative PageRank of Maiter
// (Zhang et al.): ranks satisfy r_v = (1-d) + d·Σ_{u→v} r_u/outdeg(u),
// computed by propagating deltas until every pending delta is below eps.
// It is the reference the ACE program converges to.
func SeqPageRank(g *graph.Graph, eps float64) []float64 {
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
	for head := 0; head < len(queue); {
		v := queue[head]
		head++
		// Slide the live tail down once the popped prefix dominates, so the
		// FIFO reuses one array instead of growing a new one.
		if head > 1024 && head*2 > len(queue) {
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
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

// PageRank is the Δ-based accumulative PageRank as an ACE program (Maiter
// [5]): the status variable is the pending delta, g_aggr is addition, the
// update function folds the delta into the rank and scatters d·Δ/outdeg to
// out-neighbors. Deltas below Query.Eps are parked until more mass arrives,
// which is also the termination condition. PBF both sequentially and in
// parallel — Category III.
type PageRank struct {
	f    *graph.Fragment
	eps  float64
	rank []float64
	warm *ace.WarmState[float64]
}

// NewPageRank returns a factory for PageRank program instances.
func NewPageRank() ace.Factory[float64] {
	return func() ace.Program[float64] { return &PageRank{} }
}

// DefaultPREps is the delta threshold when Query.Eps is unset.
const DefaultPREps = 1e-3

// Name implements ace.Program.
func (p *PageRank) Name() string { return "pr" }

// Category implements ace.Program.
func (p *PageRank) Category() ace.Category { return ace.CategoryIII }

// Deps implements ace.Program.
func (p *PageRank) Deps() ace.DepKind { return ace.DepSelf }

// Setup implements ace.Program.
func (p *PageRank) Setup(f *graph.Fragment, q ace.Query) {
	p.f = f
	p.eps = q.Eps
	if p.eps <= 0 {
		p.eps = DefaultPREps
	}
	p.rank = make([]float64, f.NumLocal())
	p.warm = ace.WarmOf[float64](q)
	if p.warm != nil {
		// Restore the accumulated ranks of owned vertices from the prior
		// fixpoint (ghost entries stay 0: they are never read by Output and
		// never folded into). Ψ itself is restored through InitValue.
		ranks, ok := p.warm.Aux.([]float64)
		if !ok {
			p.warm = nil // malformed warm state: cold-start instead
			return
		}
		for l := uint32(0); int(l) < f.NumOwned(); l++ {
			p.rank[l] = ranks[f.Global(l)]
		}
	}
}

// InitValue implements ace.Program: every owned vertex holds the teleport
// mass (1-d) as its initial delta — or, on a warm start, the prior run's
// parked residual delta plus the planner's (A′−A)·rank re-seed correction.
// Ghosts always start at 0: their Ψ is a scatter accumulator.
func (p *PageRank) InitValue(f *graph.Fragment, local uint32, q ace.Query) (float64, bool) {
	if !f.IsOwned(local) {
		return 0, false
	}
	if p.warm != nil {
		g := f.Global(local)
		return p.warm.Values[g], p.warm.Active[g]
	}
	return 1 - Damping, true
}

// Update implements ace.Program.
func (p *PageRank) Update(ctx *ace.Ctx[float64], local uint32) {
	d := ctx.Get(local)
	if math.Abs(d) < p.eps {
		// Park the delta until more mass accumulates. The magnitude check
		// matters for incremental runs: edge retraction seeds *negative*
		// deltas, which must flow (scaled by d/outdeg) exactly like positive
		// mass so the stale contribution is subtracted back out downstream.
		return
	}
	ctx.Set(local, 0)
	p.rank[local] += d
	deg := p.f.OutDegree(local)
	if deg == 0 {
		return
	}
	out := Damping * d / float64(deg)
	for _, u := range p.f.OutNeighbors(local) {
		ctx.Send(u, out)
	}
}

// Aggregate implements ace.Program (accumulative addition).
func (p *PageRank) Aggregate(cur, in float64) (float64, bool) {
	if in == 0 {
		return cur, false
	}
	return cur + in, true
}

// Equal implements ace.Program.
func (p *PageRank) Equal(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Delta implements ace.Program.
func (p *PageRank) Delta(a, b float64) float64 { return math.Abs(a - b) }

// Size implements ace.Program.
func (p *PageRank) Size(float64) int { return 8 }

// Output implements ace.Program: the accumulated rank.
func (p *PageRank) Output(ctx *ace.Ctx[float64], local uint32) float64 { return p.rank[local] }

// Algebra implements ace.Algebraic: addition is the aggregate, so two deltas
// headed to one vertex fold to their sum before leaving the worker
// (coalescing preserves the fixpoint exactly), and removing a previously
// folded contribution is subtraction. Localized recovery uses the inverse to
// un-apply the post-checkpoint deltas a rolled-back sender re-sends; the
// resulting (possibly negative) pending delta is parked by Update's eps
// threshold and cancelled exactly by the replayed mass.
func (p *PageRank) Algebra() ace.Algebra[float64] {
	return ace.Algebra[float64]{Laws: ace.AccumulationLaws(), Combine: addDelta, Invert: subDelta}
}

func addDelta(a, b float64) float64         { return a + b }
func subDelta(cur, contrib float64) float64 { return cur - contrib }

// SnapshotAux implements ace.Checkpointer: the rank vector is mutable state
// outside Ψ (the pending deltas), so checkpoints must capture it.
func (p *PageRank) SnapshotAux() any { return append([]float64(nil), p.rank...) }

// RestoreAux implements ace.Checkpointer.
func (p *PageRank) RestoreAux(snap any) { copy(p.rank, snap.([]float64)) }
