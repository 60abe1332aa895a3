package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func testGraph(t *testing.T, directed bool, seed int64) *Graph {
	t.Helper()
	return PowerLaw(GenConfig{N: 400, M: 2400, Directed: directed, Alpha: 2.5, Seed: seed, MaxW: 50})
}

// randomBatch builds a deterministic churn batch: frac of the existing
// edges deleted, the same number of fresh edges inserted, plus a few weight
// replacements.
func randomBatch(g *Graph, frac float64, seed int64) MutationBatch {
	r := rand.New(rand.NewSource(seed))
	edges := g.logicalEdges()
	k := int(float64(len(edges)) * frac)
	if k < 1 {
		k = 1
	}
	var b MutationBatch
	taken := map[[2]VID]bool{}
	for _, i := range r.Perm(len(edges))[:k] {
		e := edges[i]
		key := edgeKey(g.directed, e.Src, e.Dst)
		if taken[key] {
			continue
		}
		taken[key] = true
		b.Deletes = append(b.Deletes, Edge{Src: e.Src, Dst: e.Dst})
	}
	n := VID(g.NumVertices())
	for len(b.Inserts) < k {
		u, v := VID(r.Intn(int(n))), VID(r.Intn(int(n)))
		key := edgeKey(g.directed, u, v)
		if u == v || g.HasEdge(u, v) || (!g.directed && g.HasEdge(v, u)) || taken[key] {
			continue
		}
		taken[key] = true
		b.Inserts = append(b.Inserts, Edge{Src: u, Dst: v, W: 1 + 10*r.Float64()})
	}
	// A couple of weight replacements (insert over an existing edge).
	for _, i := range r.Perm(len(edges))[:2] {
		e := edges[i]
		key := edgeKey(g.directed, e.Src, e.Dst)
		if taken[key] {
			continue
		}
		taken[key] = true
		b.Inserts = append(b.Inserts, Edge{Src: e.Src, Dst: e.Dst, W: e.W + 3})
	}
	return b
}

// TestMutationInverseRestoresFingerprint is the inversion-soundness property
// test at the graph layer: applying a batch and then its exact inverse must
// restore a bit-identical structure (fingerprint included) at version+2.
func TestMutationInverseRestoresFingerprint(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for seed := int64(1); seed <= 5; seed++ {
			g := testGraph(t, directed, seed)
			want := g.Fingerprint()
			b := randomBatch(g, 0.02, seed*31)
			g2, inv, err := g.ApplyMutations(b)
			if err != nil {
				t.Fatalf("directed=%v seed=%d: apply: %v", directed, seed, err)
			}
			if g2.Version() != 1 {
				t.Fatalf("version after one batch = %d, want 1", g2.Version())
			}
			if g2.Fingerprint() == want {
				t.Fatalf("directed=%v seed=%d: mutation did not change the fingerprint", directed, seed)
			}
			g3, _, err := g2.ApplyMutations(inv)
			if err != nil {
				t.Fatalf("directed=%v seed=%d: apply inverse: %v", directed, seed, err)
			}
			if got := g3.Fingerprint(); got != want {
				t.Fatalf("directed=%v seed=%d: batch+inverse fingerprint %#x, want %#x", directed, seed, got, want)
			}
			if g3.Version() != 2 {
				t.Fatalf("version after batch+inverse = %d, want 2", g3.Version())
			}
			// The original graph was never touched.
			if g.Fingerprint() != want || g.Version() != 0 {
				t.Fatalf("directed=%v seed=%d: ApplyMutations mutated its receiver", directed, seed)
			}
		}
	}
}

func TestApplyMutationsSemantics(t *testing.T) {
	g := NewBuilder(4, true).
		AddWeighted(0, 1, 5).
		AddWeighted(1, 2, 7).
		AddWeighted(2, 3, 9).
		MustBuild()

	// Weight replacement.
	g2, inv, err := g.ApplyMutations(MutationBatch{Inserts: []Edge{{Src: 0, Dst: 1, W: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g2.EdgeWeight(0, 1); !ok || w != 2 {
		t.Fatalf("replaced weight = %v,%v want 2,true", w, ok)
	}
	if len(inv.Inserts) != 1 || inv.Inserts[0].W != 5 || len(inv.Deletes) != 0 {
		t.Fatalf("replacement inverse = %+v, want insert (0,1,5)", inv)
	}

	// Delete + reinsert in one batch is a weight replacement.
	g3, inv3, err := g.ApplyMutations(MutationBatch{
		Deletes: []Edge{{Src: 1, Dst: 2}},
		Inserts: []Edge{{Src: 1, Dst: 2, W: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g3.EdgeWeight(1, 2); w != 1 {
		t.Fatalf("delete+reinsert weight = %v, want 1", w)
	}
	if len(inv3.Inserts) != 1 || inv3.Inserts[0].W != 7 || len(inv3.Deletes) != 0 {
		t.Fatalf("delete+reinsert inverse = %+v, want insert (1,2,7)", inv3)
	}

	// Deleting a missing edge fails loudly with the typed error.
	if _, _, err := g.ApplyMutations(MutationBatch{Deletes: []Edge{{Src: 3, Dst: 0}}}); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("missing delete error = %v, want ErrNoSuchEdge", err)
	}
	// Out-of-range endpoints fail.
	if _, _, err := g.ApplyMutations(MutationBatch{Inserts: []Edge{{Src: 9, Dst: 0, W: 1}}}); err == nil {
		t.Fatal("out-of-range insert did not fail")
	}
}

// TestFreezeVersionStamp covers the frozen-fragment-path bugfix: a version
// bump on a frozen shared graph must fail CheckFrozen with the typed
// ErrVersionMismatch, and a structural mutation with ErrFrozenMutated.
func TestFreezeVersionStamp(t *testing.T) {
	g := testGraph(t, true, 3)
	g.Freeze()
	if err := g.CheckFrozen(); err != nil {
		t.Fatalf("clean frozen graph: %v", err)
	}

	g.version++ // simulate a writer bumping the version in place
	err := g.CheckFrozen()
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("version bump error = %v, want ErrVersionMismatch", err)
	}
	g.version--

	g.outW[0] += 1 // simulate a writer through an aliasing accessor
	err = g.CheckFrozen()
	if !errors.Is(err, ErrFrozenMutated) {
		t.Fatalf("structural mutation error = %v, want ErrFrozenMutated", err)
	}
	g.outW[0] -= 1
	if err := g.CheckFrozen(); err != nil {
		t.Fatalf("restored graph: %v", err)
	}

	// ApplyMutations from a frozen instance copies: the shared graph stays
	// valid and the result is unfrozen at version+1.
	g2, _, err := g.ApplyMutations(MutationBatch{Inserts: []Edge{{Src: 0, Dst: 9, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Frozen() {
		t.Fatal("ApplyMutations result is frozen")
	}
	if err := g.CheckFrozen(); err != nil {
		t.Fatalf("frozen base after ApplyMutations: %v", err)
	}
}

// snapshot deep-copies a fragment, so a later write through any array it
// shares shows up in a reflect.DeepEqual against the original.
func snapshot(f *Fragment) *Fragment {
	c := *f
	c.locals, c.index, c.owner = slices.Clone(f.locals), slices.Clone(f.index), slices.Clone(f.owner)
	c.outIndex, c.outTo, c.outW = slices.Clone(f.outIndex), slices.Clone(f.outTo), slices.Clone(f.outW)
	c.inIndex, c.inTo, c.inW = slices.Clone(f.inIndex), slices.Clone(f.inTo), slices.Clone(f.inW)
	c.labels = slices.Clone(f.labels)
	c.repOutIdx, c.repOut = slices.Clone(f.repOutIdx), slices.Clone(f.repOut)
	c.repInIdx, c.repIn = slices.Clone(f.repInIdx), slices.Clone(f.repIn)
	return &c
}

// hashOwners spreads the vertices of g over workers by a multiplicative hash.
func hashOwners(g *Graph, workers int) []uint16 {
	owner := make([]uint16, g.NumVertices())
	for v := range owner {
		owner[v] = uint16((v * 2654435761) % workers)
	}
	return owner
}

// TestUpdateFragmentsCOW checks that the copy-on-write fragment update is
// (a) equal to a from-scratch partition of the new graph, (b) re-derives
// only the touched owners, and (c) leaves the old fragments intact for
// pinned readers although the patched ones share arrays with them.
func TestUpdateFragmentsCOW(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := testGraph(t, directed, 11)
		const workers = 5
		owner := hashOwners(g, workers)
		frags, err := BuildFragments(g, owner, workers)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]*Fragment, workers)
		for i, f := range frags {
			before[i] = snapshot(f)
		}

		b := randomBatch(g, 0.01, 77)
		g2, _, err := g.ApplyMutations(b)
		if err != nil {
			t.Fatal(err)
		}
		touched := b.Endpoints()
		cow, derived, err := UpdateFragments(frags, g2, touched)
		if err != nil {
			t.Fatal(err)
		}

		// Equivalent to a fresh partition.
		fresh, err := BuildFragments(g2, owner, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh {
			if !reflect.DeepEqual(cow[i], fresh[i]) {
				t.Fatalf("directed=%v: COW fragment %d differs from fresh build", directed, i)
			}
		}

		// Only touched owners re-derived; untouched fragments share arrays.
		touchedOwners := map[int]bool{}
		for _, v := range touched {
			touchedOwners[int(owner[v])] = true
		}
		derivedSet := map[int]bool{}
		for _, w := range derived {
			derivedSet[w] = true
		}
		for w := 0; w < workers; w++ {
			if derivedSet[w] != touchedOwners[w] {
				t.Fatalf("directed=%v: worker %d re-derived=%v touched=%v", directed, w, derivedSet[w], touchedOwners[w])
			}
			if !derivedSet[w] && len(frags[w].outTo) > 0 && &cow[w].outTo[0] != &frags[w].outTo[0] {
				t.Fatalf("directed=%v: untouched worker %d does not share storage", directed, w)
			}
		}

		// Old fragments unchanged for pinned readers, array for array.
		for i, f := range frags {
			if !reflect.DeepEqual(f, before[i]) {
				t.Fatalf("directed=%v: old fragment %d changed under COW", directed, i)
			}
		}
		if len(derived) == workers {
			t.Logf("directed=%v: warning: every worker touched (batch too wide for COW to pay off)", directed)
		}
	}
}

// TestPatchSharesNumbering: a point batch that births and kills no ghost —
// here a weight replacement across two workers — leaves the vertex
// numbering as it was, so the patched fragments share locals, index and
// labels with their parents and copy only the arrays the batch can reach.
func TestPatchSharesNumbering(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := PowerLaw(GenConfig{N: 400, M: 2400, Directed: directed, Alpha: 2.5, Seed: 5, MaxW: 50, Labels: 4})
		owner := hashOwners(g, 3)
		frags, err := BuildFragments(g, owner, 3)
		if err != nil {
			t.Fatal(err)
		}
		var e Edge
		for u := range VID(g.NumVertices()) {
			if adj := g.OutNeighbors(u); len(adj) > 0 && owner[adj[0]] != owner[u] {
				e = Edge{Src: u, Dst: adj[0], W: g.OutWeights(u)[0] + 1}
				break
			}
		}
		b := MutationBatch{Inserts: []Edge{e}}
		ng, _, err := g.ApplyMutations(b)
		if err != nil {
			t.Fatal(err)
		}
		nf, derived, err := UpdateFragments(frags, ng, b.Endpoints())
		if err != nil {
			t.Fatal(err)
		}
		if len(derived) != 2 {
			t.Fatalf("directed=%v: re-derived %v, want the owners of %d and %d", directed, derived, e.Src, e.Dst)
		}
		for _, i := range derived {
			p, c := frags[i], nf[i]
			if &c.locals[0] != &p.locals[0] || &c.index[0] != &p.index[0] || &c.labels[0] != &p.labels[0] {
				t.Fatalf("directed=%v: fragment %d renumbered by a batch that changes no ghost", directed, i)
			}
			if &c.outTo[0] == &p.outTo[0] || &c.outIndex[0] == &p.outIndex[0] {
				t.Fatalf("directed=%v: fragment %d writes into its parent's adjacency", directed, i)
			}
		}
	}
}

// TestUndirectedFragmentsShareAdjacency: an undirected fragment stores its
// adjacency once — in-arrays alias the out-arrays — whether built or
// patched.
func TestUndirectedFragmentsShareAdjacency(t *testing.T) {
	g := testGraph(t, false, 8)
	frags, err := BuildFragments(g, hashOwners(g, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	b := randomBatch(g, 0.01, 9)
	ng, _, err := g.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	patched, _, err := UpdateFragments(frags, ng, b.Endpoints())
	if err != nil {
		t.Fatal(err)
	}
	aliased := func(what string, f *Fragment) {
		t.Helper()
		if &f.inIndex[0] != &f.outIndex[0] || &f.inTo[0] != &f.outTo[0] || &f.inW[0] != &f.outW[0] {
			t.Fatalf("%s fragment %d holds a second copy of its adjacency", what, f.worker)
		}
	}
	for i := range frags {
		aliased("built", frags[i])
		aliased("patched", patched[i])
	}
}
