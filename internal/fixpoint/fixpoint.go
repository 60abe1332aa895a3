// Package fixpoint implements the paper's §IV: sequential batch algorithms
// modeled as fixpoint iterations, and their relationship to parallel ACE
// programs. In this architecture an ace.Program *is* the fixpoint form of
// the algorithm — status variables x_v, update functions f_xv, an active
// set H — so the derivation of ρ_A from A is the identity, and this package
// supplies the two other halves of the story:
//
//   - Run executes a program sequentially over the whole graph (one
//     fragment, no engine): this is exactly the batch algorithm A, and the
//     paper's correctness argument maps A to this special case of ρ_A;
//   - Verify checks the §IV correctness property, i.e. that a parallel
//     execution returned the same fixpoint as the sequential one.
package fixpoint

import (
	"fmt"

	"argan/internal/ace"
	"argan/internal/gap"
	"argan/internal/graph"
)

// Run executes the ACE program sequentially over g: a single fragment, the
// local iteration loop of LocalEval, no communication. It returns the
// per-vertex outputs and the number of update-function invocations.
func Run[V any](g *graph.Graph, factory ace.Factory[V], q ace.Query) ([]V, int64, error) {
	owner := make([]uint16, g.NumVertices())
	frags, err := graph.BuildFragments(g, owner, 1)
	if err != nil {
		return nil, 0, err
	}
	f := frags[0]
	prog := factory()
	prog.Setup(f, q)

	psi := make([]V, f.NumLocal())
	active := ace.ActiveSetOf(prog, psi, f.NumOwned())
	ctx := ace.NewCtx(f, psi,
		func(l uint32, v V) { psi[l] = v; activateDeps(prog, f, active, l) },
		func(l uint32, d V) {
			nv, ch := prog.Aggregate(psi[l], d)
			if ch {
				psi[l] = nv
				active.Push(l)
			}
		},
		func(l uint32) { active.Push(l) },
	)
	for l := uint32(0); int(l) < f.NumLocal(); l++ {
		v, act := prog.InitValue(f, l, q)
		psi[l] = v
		if act && f.IsOwned(l) {
			active.Push(l)
		}
	}
	var updates int64
	limit := int64(2000) * int64(g.NumVertices()+1)
	for !active.Empty() {
		v := active.Pop()
		prog.Update(ctx, v)
		updates++
		if updates > limit {
			return nil, updates, fmt.Errorf("fixpoint: no convergence after %d updates", updates)
		}
	}
	out := make([]V, g.NumVertices())
	for l := uint32(0); int(l) < f.NumOwned(); l++ {
		out[f.Global(l)] = prog.Output(ctx, l)
	}
	return out, updates, nil
}

func activateDeps[V any](p ace.Program[V], f *graph.Fragment, a *ace.ActiveSet, l uint32) {
	switch p.Deps() {
	case ace.DepSelf:
		// Push-style programs propagate explicitly.
	case ace.DepOut:
		for _, u := range f.InNeighbors(l) {
			a.Push(u)
		}
	case ace.DepBoth:
		for _, u := range f.InNeighbors(l) {
			a.Push(u)
		}
		for _, u := range f.OutNeighbors(l) {
			a.Push(u)
		}
	default:
		for _, u := range f.OutNeighbors(l) {
			a.Push(u)
		}
	}
}

// Verify runs the program both sequentially and in parallel under the given
// engine configuration and reports the first mismatch, if any — the §IV
// correctness check "ρ_A always returns the same results as A".
func Verify[V any](g *graph.Graph, frags []*graph.Fragment, factory ace.Factory[V], q ace.Query, cfg gap.Config, close func(a, b V) bool) error {
	want, _, err := Run(g, factory, q)
	if err != nil {
		return err
	}
	res, err := gap.RunSim(frags, factory, q, cfg)
	if err != nil {
		return err
	}
	if !res.Metrics.Converged {
		return fmt.Errorf("fixpoint: parallel run did not converge")
	}
	for v := range want {
		if !close(want[v], res.Values[v]) {
			return fmt.Errorf("fixpoint: vertex %d: sequential %v != parallel %v", v, want[v], res.Values[v])
		}
	}
	return nil
}
