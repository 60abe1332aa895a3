package algorithms

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"argan/internal/ace"
)

// The §II-B convergence conditions, checked as executable algebraic laws
// of every built-in program's aggregate function over random samples. Each
// program is checked against its own declared ace.Algebra — the value the
// runtime derives the ghost cache, replay tolerance and retraction from.

func floatSamples(r *rand.Rand, n int) []float64 {
	s := []float64{0, 1, math.Inf(1)}
	for len(s) < n {
		s = append(s, r.Float64()*100)
	}
	return s
}

func TestSSSPLaws(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := NewSSSP()()
	leq := func(a, b float64) bool { return a <= b }
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), leq, floatSamples(r, 25)); err != nil {
		t.Fatal(err)
	}
	// The declaration is checked, not trusted: min has no inverse.
	bad := ace.AlgebraOf(p)
	bad.Invert = math.Max
	if err := ace.CheckLaws(p, bad, leq, floatSamples(r, 25)); err == nil || !strings.Contains(err.Error(), "Invert does not undo") {
		t.Fatalf("an Invert min does not have must be caught, got %v", err)
	}
}

func TestBellmanFordLaws(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := NewBellmanFord()()
	leq := func(a, b float64) bool { return a <= b }
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), leq, floatSamples(r, 25)); err != nil {
		t.Fatal(err)
	}
}

func TestBFSLaws(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := NewBFS()()
	var s []int32
	for i := 0; i < 25; i++ {
		s = append(s, int32(r.Intn(1000)))
	}
	leq := func(a, b int32) bool { return a <= b }
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), leq, s); err != nil {
		t.Fatal(err)
	}
}

func TestWCCLaws(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := NewWCC()()
	var s []uint32
	for i := 0; i < 25; i++ {
		s = append(s, uint32(r.Intn(1000)))
	}
	leq := func(a, b uint32) bool { return a <= b }
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), leq, s); err != nil {
		t.Fatal(err)
	}
}

func TestCoreLaws(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := NewCore()()
	var s []int32
	for i := 0; i < 25; i++ {
		s = append(s, int32(r.Intn(100)))
	}
	leq := func(a, b int32) bool { return a <= b }
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), leq, s); err != nil {
		t.Fatal(err)
	}
}

func TestSimLaws(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	p := NewSim()()
	var s []SimSet
	for i := 0; i < 25; i++ {
		s = append(s, SimSet(r.Uint64()&0xFFFF))
	}
	// The order is set inclusion: aggregation only clears bits.
	leq := func(a, b SimSet) bool { return a&b == a }
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), leq, s); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankLaws(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := NewPageRank()()
	var s []float64
	for i := 0; i < 20; i++ {
		s = append(s, r.Float64())
	}
	// Accumulation: deltas only grow, so the order is >=.
	leq := func(a, b float64) bool { return a >= b-1e-12 }
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), leq, s); err != nil {
		t.Fatal(err)
	}
	// And PR's sum must NOT be idempotent — duplicate suppression relies on
	// exactly-once delivery instead.
	idem := ace.Algebra[float64]{Laws: ace.Laws{Idempotent: true}}
	if err := ace.CheckLaws(p, idem, nil, []float64{1}); err == nil {
		t.Fatal("PageRank aggregation must fail the idempotence law")
	}
	// The declared inverse is checked, not trusted: addition is no inverse
	// of addition.
	bad := ace.AlgebraOf(p)
	bad.Invert = func(a, b float64) float64 { return a + b }
	if err := ace.CheckLaws(p, bad, leq, s); err == nil || !strings.Contains(err.Error(), "Invert does not undo") {
		t.Fatalf("a wrong Invert must be caught, got %v", err)
	}
}

func TestColorLaws(t *testing.T) {
	p := NewColor()()
	// Replace-style: idempotent only — and therefore not replay-tolerant.
	if err := ace.CheckLaws(p, ace.AlgebraOf(p), nil, []int32{0, 1, 2, 5}); err != nil {
		t.Fatal(err)
	}
	if alg := ace.AlgebraOf(p); !alg.Idempotent || alg.ReplayTolerant() || alg.Recoverable() {
		t.Fatalf("Color must declare replacement laws only, got %+v", alg.Laws)
	}
}
