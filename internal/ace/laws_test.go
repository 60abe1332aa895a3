package ace

import (
	"strings"
	"testing"

	"argan/internal/graph"
)

// badProg's aggregate is subtraction: fails every law, so each check path
// is exercised.
type badProg struct{ fakeProg }

func (p *badProg) Aggregate(cur, in int32) (int32, bool) { return cur - in, true }

// addProg's aggregate is addition: order-insensitive but neither
// idempotent nor monotone under <=.
type addProg struct{ fakeProg }

func (p *addProg) Aggregate(cur, in int32) (int32, bool) { return cur + in, true }

// replaceProg's aggregate is last-writer-wins: idempotent only.
type replaceProg struct{ fakeProg }

func (p *replaceProg) Aggregate(cur, in int32) (int32, bool) { return in, cur != in }

func TestCheckLawsViolations(t *testing.T) {
	samples := []int32{0, 1, 5, 7}
	leq := func(a, b int32) bool { return a <= b }
	sum := func(a, b int32) int32 { return a + b }
	cases := []struct {
		prog Program[int32]
		alg  Algebra[int32]
		want string
	}{
		{&badProg{}, Algebra[int32]{Laws: Laws{Commutative: true}}, "not commutative"},
		{&badProg{}, Algebra[int32]{Laws: Laws{Associative: true}}, "not associative"},
		{&badProg{}, Algebra[int32]{Laws: Laws{Idempotent: true}}, "not idempotent"},
		// Subtraction is monotone on non-negative samples; addition is not.
		{&addProg{}, Algebra[int32]{Laws: Laws{Monotone: true}}, "not monotone"},
		// An Invert that is not the aggregate's inverse.
		{&addProg{}, Algebra[int32]{Invert: sum}, "Invert does not undo"},
	}
	for _, c := range cases {
		err := CheckLaws(c.prog, c.alg, leq, samples)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("algebra %+v: got %v, want %q", c.alg.Laws, err, c.want)
		}
	}
}

func TestCheckLawsPasses(t *testing.T) {
	rp := &replaceProg{}
	if err := CheckLaws[int32](rp, Algebra[int32]{Laws: ReplacementLaws()}, nil, []int32{1, 2, 9}); err != nil {
		t.Fatal(err)
	}
	// Monotone check skipped without a partial order.
	if err := CheckLaws[int32](&addProg{}, Algebra[int32]{Laws: Laws{Monotone: true}}, nil, []int32{1, 2}); err != nil {
		t.Fatal("monotone check must be skipped with nil leq")
	}
	// Addition with its true inverse.
	sum := Algebra[int32]{
		Laws:   AccumulationLaws(),
		Invert: func(cur, x int32) int32 { return cur - x },
	}
	if err := CheckLaws[int32](&addProg{}, sum, nil, []int32{0, 1, 5, 7}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgebraDerivations pins what the runtime derives from a declaration:
// replay tolerance needs the full semilattice (idempotence alone — a
// replace-style aggregate — is order-sensitive), recovery and incremental
// restart need replay tolerance or an inverse, and a program that declares
// nothing gets nothing.
func TestAlgebraDerivations(t *testing.T) {
	inv := func(cur, x int32) int32 { return cur - x }
	cases := []struct {
		name               string
		alg                Algebra[int32]
		tolerant, recovers bool
	}{
		{"selection", Algebra[int32]{Laws: SelectionLaws()}, true, true},
		{"accumulation_with_inverse", Algebra[int32]{Laws: AccumulationLaws(), Invert: inv}, false, true},
		{"accumulation_without_inverse", Algebra[int32]{Laws: AccumulationLaws()}, false, false},
		{"replacement", Algebra[int32]{Laws: ReplacementLaws()}, false, false},
		{"undeclared", Algebra[int32]{}, false, false},
	}
	for _, c := range cases {
		if got := c.alg.ReplayTolerant(); got != c.tolerant {
			t.Errorf("%s: ReplayTolerant = %v, want %v", c.name, got, c.tolerant)
		}
		if got := c.alg.Recoverable(); got != c.recovers {
			t.Errorf("%s: Recoverable = %v, want %v", c.name, got, c.recovers)
		}
	}
	if a := AlgebraOf[int32](&addProg{}); a.Recoverable() || a.Invert != nil || CanIncrement[int32](&addProg{}) {
		t.Errorf("a program without an Algebra method must get the zero algebra, got %+v", a.Laws)
	}
}

func TestMessageBatchTypes(t *testing.T) {
	b := Batch[int32]{From: 1, To: 2, Msgs: []Message[int32]{{V: graph.VID(7), Val: 9}}, Bytes: 12}
	if b.Msgs[0].V != 7 || b.Msgs[0].Val != 9 || b.Bytes != 12 {
		t.Fatalf("batch fields wrong: %+v", b)
	}
}
