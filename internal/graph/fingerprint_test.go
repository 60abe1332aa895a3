package graph

import (
	"errors"
	"math"
	"testing"
)

// fpGraph is a small labeled graph whose rows 0 and 1 hold two arcs each.
func fpGraph(directed bool) *Graph {
	b := NewBuilder(6, directed).
		AddWeighted(0, 1, 2).AddWeighted(0, 2, 3).
		AddWeighted(1, 2, 4).AddWeighted(1, 3, 5).
		AddWeighted(2, 4, 1).AddWeighted(3, 4, 6).AddWeighted(3, 5, 7).AddWeighted(4, 5, 2)
	for v := 0; v < 6; v++ {
		b.SetLabel(VID(v), int32(v%3))
	}
	return b.MustBuild()
}

// TestCheckFrozenSensitivity scribbles on a frozen graph in each way the
// fingerprint has to notice — including the ones a sum of unseeded row hashes,
// or a hash of the out side alone, would let through — and expects the typed
// error every time.
func TestCheckFrozenSensitivity(t *testing.T) {
	flip := func(w *float64, bit uint) { *w = math.Float64frombits(math.Float64bits(*w) ^ 1<<bit) }
	cases := []struct {
		name     string
		directed bool
		scribble func(g *Graph)
		want     error
	}{
		{"lowest weight bit", true, func(g *Graph) { flip(&g.outW[3], 0) }, ErrFrozenMutated},
		{"weight sign bit", true, func(g *Graph) { flip(&g.outW[3], 63) }, ErrFrozenMutated},
		{"two sign bits in one row", true, func(g *Graph) { flip(&g.outW[0], 63); flip(&g.outW[1], 63) }, ErrFrozenMutated},
		{"target rewired", true, func(g *Graph) { g.outTo[0] = 3 }, ErrFrozenMutated},
		{"arc moved to the next row", true, func(g *Graph) { g.outIndex[1]-- }, ErrFrozenMutated},
		{"rows 0 and 1 swapped", true, func(g *Graph) {
			for i := 0; i < 2; i++ {
				g.outTo[i], g.outTo[i+2] = g.outTo[i+2], g.outTo[i]
				g.outW[i], g.outW[i+2] = g.outW[i+2], g.outW[i]
			}
		}, ErrFrozenMutated},
		{"out side only", true, func(g *Graph) { g.outW[0] = 9 }, ErrFrozenMutated},
		{"in side only", true, func(g *Graph) { g.inW[0] = 9 }, ErrFrozenMutated},
		{"in target only", true, func(g *Graph) { g.inTo[len(g.inTo)-1] = 0 }, ErrFrozenMutated},
		{"index out of range", true, func(g *Graph) { g.outIndex[2] = int64(len(g.outTo)) + 5 }, ErrFrozenMutated},
		{"index not monotone", true, func(g *Graph) { g.inIndex[3] = 0 }, ErrFrozenMutated},
		{"label", true, func(g *Graph) { g.labels[4]++ }, ErrFrozenMutated},
		{"version bump", true, func(g *Graph) { g.version++ }, ErrVersionMismatch},
		{"undirected weight bit", false, func(g *Graph) { flip(&g.outW[5], 0) }, ErrFrozenMutated},
		{"undirected rows swapped", false, func(g *Graph) {
			// Rows 0 and 5 of the undirected graph both hold two arcs.
			a, b := g.outIndex[0], g.outIndex[5]
			for i := int64(0); i < 2; i++ {
				g.outTo[a+i], g.outTo[b+i] = g.outTo[b+i], g.outTo[a+i]
				g.outW[a+i], g.outW[b+i] = g.outW[b+i], g.outW[a+i]
			}
		}, ErrFrozenMutated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := fpGraph(tc.directed)
			g.Freeze()
			if err := g.CheckFrozen(); err != nil {
				t.Fatalf("untouched: %v", err)
			}
			tc.scribble(g)
			if err := g.CheckFrozen(); !errors.Is(err, tc.want) {
				t.Fatalf("CheckFrozen = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCarriedSumIsNeverTrustedByChecks: Fingerprint ignores what Freeze and
// ApplyMutations stored, so a carry that went wrong is stamped by Freeze and
// then caught by the very next CheckFrozen.
func TestCarriedSumIsNeverTrustedByChecks(t *testing.T) {
	g := fpGraph(true)
	g.Freeze()
	ng, _, err := g.ApplyMutations(MutationBatch{Inserts: []Edge{{Src: 5, Dst: 0, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !ng.carried {
		t.Fatal("a frozen parent did not hand its row sum on")
	}
	want := ng.Fingerprint()
	ng.rowSum++ // the incremental update got a row wrong
	if got := ng.Fingerprint(); got != want {
		t.Fatalf("Fingerprint read the carried sum: %#x, then %#x", want, got)
	}
	ng.Freeze()
	if fp, _ := ng.FrozenFingerprint(); fp == want {
		t.Fatal("Freeze re-hashed a graph whose row sum was carried")
	}
	if err := ng.CheckFrozen(); !errors.Is(err, ErrFrozenMutated) {
		t.Fatalf("CheckFrozen over a wrong carry = %v, want ErrFrozenMutated", err)
	}

	// An unfrozen parent was never checked against anything: nothing carries.
	loose := fpGraph(true)
	child, _, err := loose.ApplyMutations(MutationBatch{Inserts: []Edge{{Src: 5, Dst: 0, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if child.carried {
		t.Fatal("an unfrozen parent handed a row sum on")
	}
	child.Freeze()
	if fp, _ := child.FrozenFingerprint(); fp != want {
		t.Fatalf("full-hash Freeze stamped %#x, want %#x", fp, want)
	}
}
