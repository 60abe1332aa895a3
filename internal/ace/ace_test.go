package ace

import (
	"testing"

	"argan/internal/graph"
)

type fakeProg struct {
	deps DepKind
}

func (p *fakeProg) Name() string                                           { return "fake" }
func (p *fakeProg) Category() Category                                     { return CategoryII }
func (p *fakeProg) Deps() DepKind                                          { return p.deps }
func (p *fakeProg) Setup(*graph.Fragment, Query)                           {}
func (p *fakeProg) InitValue(*graph.Fragment, uint32, Query) (int32, bool) { return 0, false }
func (p *fakeProg) Update(*Ctx[int32], uint32)                             {}
func (p *fakeProg) Aggregate(cur, in int32) (int32, bool)                  { return in, cur != in }
func (p *fakeProg) Equal(a, b int32) bool                                  { return a == b }
func (p *fakeProg) Delta(a, b int32) float64                               { return 0 }
func (p *fakeProg) Size(int32) int                                         { return 4 }
func (p *fakeProg) Output(c *Ctx[int32], l uint32) int32                   { return c.Get(l) }

type costedProg struct{ fakeProg }

func (p *costedProg) Cost(*graph.Fragment, uint32) float64 { return 42 }

func testFragment(t *testing.T) *graph.Fragment {
	t.Helper()
	// 0 -> 1 -> 2, 2 -> 0; one worker.
	g := graph.NewBuilder(3, true).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0).MustBuild()
	frags, err := graph.BuildFragments(g, make([]uint16, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	return frags[0]
}

func TestCategoryStrings(t *testing.T) {
	if CategoryI.String() != "I" || CategoryII.String() != "II" || CategoryIII.String() != "III" {
		t.Fatal("category strings wrong")
	}
	if Category(9).String() != "?" {
		t.Fatal("unknown category string wrong")
	}
}

func TestQueryArg(t *testing.T) {
	q := Query{Args: map[string]float64{"k": 3}}
	if q.Arg("k", 7) != 3 || q.Arg("missing", 7) != 7 {
		t.Fatal("Arg lookup wrong")
	}
	if (Query{}).Arg("x", 1.5) != 1.5 {
		t.Fatal("nil-args default wrong")
	}
}

func TestUpdateCostByDeps(t *testing.T) {
	f := testFragment(t)
	l0, _ := f.Local(0)
	// Vertex 0: in-degree 1 (from 2), out-degree 1 (to 1).
	for _, c := range []struct {
		deps DepKind
		want float64
	}{
		{DepIn, 2}, {DepOut, 2}, {DepSelf, 2}, {DepBoth, 3},
	} {
		p := &fakeProg{deps: c.deps}
		if got := UpdateCost[int32](p, f, l0); got != c.want {
			t.Fatalf("deps %v: cost %v, want %v", c.deps, got, c.want)
		}
	}
}

func TestUpdateCostOverride(t *testing.T) {
	f := testFragment(t)
	p := &costedProg{}
	if got := UpdateCost[int32](p, f, 0); got != 42 {
		t.Fatalf("Coster override ignored: %v", got)
	}
}

// TestCtxAccessors pins what the context does in place and what it hands to
// the engine: an owned Send folds by Aggregate and activates on change, a
// ghost Send and a publishing Set go to their hooks, a DepSelf Set only
// stores, and Activate ignores ghosts.
func TestCtxAccessors(t *testing.T) {
	// 0 -> 1 -> 2, 2 -> 0 with 2 on worker 1: worker 0 owns 0, 1 and has
	// ghost 2.
	g := graph.NewBuilder(3, true).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0).MustBuild()
	frags, err := graph.BuildFragments(g, []uint16{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := frags[0]
	l0, _ := f.Local(0)
	l1, _ := f.Local(1)
	gh, _ := f.Local(2)
	for _, deps := range []DepKind{DepIn, DepSelf} {
		psi := []int32{10, 20, 30}
		h := NewActiveSet(f.NumOwned(), nil)
		var published, ghostSent, pushed []uint32
		ctx := NewCtx[int32](f, psi, &fakeProg{deps: deps}, h,
			func(l uint32, v int32) { published = append(published, l) },
			func(l uint32, d int32) { ghostSent = append(ghostSent, l) },
			func(l uint32) { pushed = append(pushed, l) })
		if ctx.Frag() != f || ctx.Get(l1) != 20 {
			t.Fatal("ctx reads wrong")
		}
		ctx.Send(l0, 5)
		ctx.Send(l0, 5) // unchanged: neither activates nor reports
		ctx.Send(gh, 7)
		if psi[l0] != 5 || h.Len() != 1 || len(pushed) != 1 || len(ghostSent) != 1 || ghostSent[0] != gh || psi[gh] != 30 {
			t.Fatalf("deps %v: send routed wrong: psi %v, |H| %d, pushed %v, ghost %v", deps, psi, h.Len(), pushed, ghostSent)
		}
		ctx.Activate(gh)
		ctx.Activate(l1)
		if h.Len() != 2 {
			t.Fatalf("deps %v: activate routed wrong: |H| %d", deps, h.Len())
		}
		ctx.Set(l1, 99)
		if self := deps == DepSelf; self != (psi[l1] == 99) || self == (len(published) == 1) {
			t.Fatalf("deps %v: set routed wrong: psi %v, published %v", deps, psi, published)
		}
	}
}
