package ace

import "fmt"

// This file implements the convergence conditions of §II-B: GAP guarantees
// asynchronous convergence when LocalEval is monotone with respect to the
// partial results, which for the derived programs of §IV reduces to
// algebraic laws of the aggregate function g_aggr. CheckLaws verifies them
// over caller-supplied sample values, turning the paper's proof obligation
// into an executable property check (used by the test suite over random
// samples for every built-in program).

// Laws describes which algebraic properties a program's aggregation must
// satisfy for asynchronous convergence.
type Laws struct {
	// Commutative: g(a,b) == g(b,a) — message arrival order is irrelevant.
	Commutative bool
	// Associative: g(g(a,b),c) == g(a,g(b,c)) — batching is irrelevant.
	Associative bool
	// Idempotent: g(a,a) == a — duplicated delivery is harmless. Holds for
	// the selection-style aggregates (min/and/replace), not for the
	// accumulative ones (Δ-PageRank's sum), which instead rely on
	// exactly-once delivery.
	Idempotent bool
	// Monotone: repeated aggregation never moves a value "backwards"
	// (g(a,b) ⊑ a in the program's order) — the fixpoint is approached from
	// one side, the core §II-B condition.
	Monotone bool
}

// SelectionLaws are the laws satisfied by min/intersection-style programs
// (SSSP, BFS, WCC, Core, Sim).
func SelectionLaws() Laws {
	return Laws{Commutative: true, Associative: true, Idempotent: true, Monotone: true}
}

// AccumulationLaws are the laws satisfied by sum-style programs
// (Δ-PageRank): order-insensitive but not idempotent.
func AccumulationLaws() Laws {
	return Laws{Commutative: true, Associative: true, Monotone: true}
}

// ReplacementLaws are the laws of single-writer replace-style programs
// (Color): neither commutative nor monotone across writers, correct only
// because each status variable has a unique writer and links are FIFO.
func ReplacementLaws() Laws { return Laws{Idempotent: true} }

// Algebra is a program's one declaration of its aggregate function: the
// laws g_aggr satisfies plus, where it exists, its inverse. The runtime
// trusts this value — the out-buffer rule, replay tolerance, retraction and
// incrementability are all derived from it — and CheckLaws property-tests
// the same value, so what the driver relies on is what the tests check.
//
// Outgoing messages are folded by Aggregate itself: a ghost's status
// variable is its owner's out-buffer. Under a ReplayTolerant algebra the
// ghost keeps its value across flushes as a cache of what its owner has been
// sent, so a send that does not change it is dropped at the sender; this
// requires the ghost's InitValue to be no better than any value its owner
// can hold. Under any other algebra a ghost restarts from its InitValue at
// every flush, so each flush ships the fold of one window's sends into the
// InitValue, which should be Aggregate's identity.
type Algebra[V any] struct {
	Laws
	// Invert removes one previously aggregated contribution:
	// Invert(Aggregate(cur, x), x) == cur. Sum folds have one (Δ-PageRank:
	// subtraction); lattice joins do not and leave it nil.
	Invert func(cur, contrib V) V
}

// Algebraic is the optional Program extension carrying the declaration. A
// program without it gets the zero Algebra: no law is assumed, ghosts
// restart at every flush, and nothing below is derived.
type Algebraic[V any] interface {
	Algebra() Algebra[V]
}

// AlgebraOf returns the program's declared algebra, or the zero value.
func AlgebraOf[V any](p Program[V]) Algebra[V] {
	if d, ok := p.(Algebraic[V]); ok {
		return d.Algebra()
	}
	return Algebra[V]{}
}

// ReplayTolerant reports whether Aggregate is a semilattice join, so folding
// a value in again — a replayed or duplicated message — leaves Ψ unchanged.
// Idempotence alone is not enough: a replace-style aggregate is idempotent
// yet order-sensitive, and a replayed stale value would overwrite a fresh
// one.
func (a Algebra[V]) ReplayTolerant() bool {
	return a.Commutative && a.Associative && a.Idempotent
}

// Recoverable reports whether a receiver can be repaired after a sender
// rolls back to a checkpoint: it either tolerates the re-sent stream or can
// un-apply what it had folded in. The same property lets a program restart
// from a stale fixpoint after an edge mutation (see CanIncrement).
func (a Algebra[V]) Recoverable() bool {
	return a.ReplayTolerant() || a.Invert != nil
}

// CanIncrement reports whether a program is safe to re-converge
// incrementally from a warm fixpoint after an edge mutation: it must be able
// to retract a stale contribution or tolerate re-ingesting one. A program
// with neither restarted from a stale Ψ could double-count retracted mass.
func CanIncrement[V any](p Program[V]) bool {
	return AlgebraOf(p).Recoverable()
}

// CheckLaws verifies the declared algebra of the program's Aggregate over
// the given sample values: each declared law, and that Invert undoes the
// Aggregate fold. leq is the program's partial order (nil skips the
// monotonicity check). It returns the first violation.
func CheckLaws[V any](p Program[V], alg Algebra[V], leq func(a, b V) bool, samples []V) error {
	laws := alg.Laws
	agg := func(a, b V) V {
		v, _ := p.Aggregate(a, b)
		return v
	}
	for _, a := range samples {
		for _, b := range samples {
			if laws.Commutative {
				if !p.Equal(agg(a, b), agg(b, a)) {
					return fmt.Errorf("ace: %s: aggregate not commutative at (%v,%v)", p.Name(), a, b)
				}
			}
			if laws.Monotone && leq != nil {
				if !leq(agg(a, b), a) {
					return fmt.Errorf("ace: %s: aggregate not monotone at (%v,%v)", p.Name(), a, b)
				}
			}
			if alg.Invert != nil && !p.Equal(alg.Invert(agg(a, b), b), a) {
				return fmt.Errorf("ace: %s: Invert does not undo aggregate at (%v,%v)", p.Name(), a, b)
			}
			for _, c := range samples {
				if laws.Associative {
					if !p.Equal(agg(agg(a, b), c), agg(a, agg(b, c))) {
						return fmt.Errorf("ace: %s: aggregate not associative at (%v,%v,%v)", p.Name(), a, b, c)
					}
				}
			}
		}
		if laws.Idempotent {
			if !p.Equal(agg(a, a), a) {
				return fmt.Errorf("ace: %s: aggregate not idempotent at %v", p.Name(), a)
			}
		}
	}
	return nil
}
