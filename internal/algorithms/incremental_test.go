package algorithms

import (
	"math"
	"testing"

	"argan/internal/ace"
	"argan/internal/graph"
)

// TestCanIncrementGate pins down which programs are allowed into the
// incremental path: retractable sum folds (an algebra with an Invert) and
// lattice joins may restart from a stale Ψ; everything else must
// full-recompute.
func TestCanIncrementGate(t *testing.T) {
	if !ace.CanIncrement(NewPageRank()()) {
		t.Error("PageRank (sum with an inverse) must be incrementable")
	}
	if !ace.CanIncrement(NewSSSP()()) || !ace.CanIncrement(NewBFS()()) || !ace.CanIncrement(NewWCC()()) {
		t.Error("min-fold programs (lattice joins) must be incrementable")
	}
	if ace.CanIncrement(NewColor()()) {
		t.Error("Color's replacement aggregate is neither invertible nor a lattice join; it must fall back to recompute")
	}
	if ace.CanIncrement[MSTVal](&mstRound{}) {
		t.Error("a program that declares no algebra must fall back to recompute")
	}
}

func TestDiffArcs(t *testing.T) {
	oldG := graph.NewBuilder(4, true).
		AddWeighted(0, 1, 5).AddWeighted(0, 2, 3).AddWeighted(1, 2, 7).MustBuild()
	b := graph.MutationBatch{
		Deletes: []graph.Edge{{Src: 0, Dst: 1}},
		Inserts: []graph.Edge{{Src: 0, Dst: 2, W: 9}, {Src: 2, Dst: 3, W: 1}},
	}
	newG, _, err := oldG.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	removed, added := diffArcs(oldG, newG, b.Endpoints())
	wantRemoved := []graph.Edge{{Src: 0, Dst: 1, W: 5}, {Src: 0, Dst: 2, W: 3}}
	wantAdded := []graph.Edge{{Src: 0, Dst: 2, W: 9}, {Src: 2, Dst: 3, W: 1}}
	if len(removed) != len(wantRemoved) || len(added) != len(wantAdded) {
		t.Fatalf("diff = removed %v added %v, want removed %v added %v", removed, added, wantRemoved, wantAdded)
	}
	for i := range wantRemoved {
		if removed[i] != wantRemoved[i] {
			t.Fatalf("removed[%d] = %v, want %v", i, removed[i], wantRemoved[i])
		}
	}
	for i := range wantAdded {
		if added[i] != wantAdded[i] {
			t.Fatalf("added[%d] = %v, want %v", i, added[i], wantAdded[i])
		}
	}
}

// TestWarmSSSPPlannerConservative replays the planner against a brute-force
// recompute: every vertex whose distance changed between versions must be
// either dirty (reset to Inf) or downstream of an activated vertex — the
// planner may over-approximate but must never leave a stale-but-clean
// shorter distance in place (min folds cannot grow back).
func TestWarmSSSPPlannerConservative(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := graph.PowerLaw(graph.GenConfig{N: 300, M: 1800, Directed: true, Seed: seed, MaxW: 9})
		oldDist := SeqSSSP(g, 0)

		// Drop a handful of existing arcs (the hard direction for min folds).
		var b graph.MutationBatch
		for v := 0; v < g.NumVertices() && len(b.Deletes) < 12; v += 17 {
			adj := g.OutNeighbors(graph.VID(v))
			if len(adj) > 0 {
				b.Deletes = append(b.Deletes, graph.Edge{Src: graph.VID(v), Dst: adj[0]})
			}
		}
		newG, _, err := g.ApplyMutations(b)
		if err != nil {
			t.Fatal(err)
		}
		w := WarmSSSP(g, newG, b.Endpoints(), oldDist, 0)
		newDist := SeqSSSP(newG, 0)

		for v := range newDist {
			if w.Values[v] == newDist[v] {
				continue // warm value already correct
			}
			// The warm value is wrong; the planner must have reset it (Inf
			// can only shrink toward the truth) — a finite wrong distance
			// could never be repaired by a min fold.
			if !math.IsInf(w.Values[v], 1) {
				t.Fatalf("seed %d: vertex %d warm %v, truth %v — finite stale value not invalidated",
					seed, v, w.Values[v], newDist[v])
			}
			if newDist[v] < w.Values[v] && math.IsInf(newDist[v], 1) {
				t.Fatalf("seed %d: vertex %d reset below truth", seed, v)
			}
		}
	}
}

// TestWarmWCCPlannerResetsAffected checks the component-reset rule: after a
// deletion, every vertex of the deleted edge's old component restarts from
// its self-label, and untouched components keep their labels verbatim.
func TestWarmWCCPlannerResetsAffected(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 200, M: 600, Directed: true, Seed: 5})
	labels32 := SeqWCC(g)
	labels := make([]uint32, len(labels32))
	for v, l := range labels32 {
		labels[v] = uint32(l)
	}
	var del graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		if adj := g.OutNeighbors(graph.VID(v)); len(adj) > 0 {
			del = graph.Edge{Src: graph.VID(v), Dst: adj[0]}
			break
		}
	}
	b := graph.MutationBatch{Deletes: []graph.Edge{del}}
	newG, _, err := g.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	w := WarmWCC(g, newG, b.Endpoints(), labels)
	affected := labels[del.Src]
	for v, l := range labels {
		if l == affected {
			if w.Values[v] != uint32(v) || !w.Active[v] {
				t.Fatalf("vertex %d of affected component: warm %d active %v", v, w.Values[v], w.Active[v])
			}
		} else if w.Values[v] != l || w.Active[v] {
			t.Fatalf("vertex %d of clean component: warm %d active %v, want label %d inactive", v, w.Values[v], w.Active[v], l)
		}
	}
}
