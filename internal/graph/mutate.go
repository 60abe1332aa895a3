package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// Streaming mutations over immutable CSR graphs. A MutationBatch is applied
// with ApplyMutations, which never touches the receiver: it returns a fresh
// graph at version+1 whose edge list is the old one ± the batch, plus the
// exact inverse batch for undo/property testing. Fragments follow with
// UpdateFragments, which re-derives (patches) only the partitions an edge
// mutation can reach (the owners of its endpoints) and shares every other
// fragment's arrays with the previous version — tenants pinned to the old
// version keep reading data that is immutable by construction.

// MutationBatch is one atomic set of edge mutations. Deletes are applied
// before inserts, so a delete+insert of the same edge in one batch is a
// weight replacement. For undirected graphs an edge is identified by its
// unordered endpoint pair.
type MutationBatch struct {
	// Inserts adds edges. Inserting an existing edge replaces its weight.
	Inserts []Edge `json:"inserts,omitempty"`
	// Deletes removes edges (weights are ignored). Deleting an edge that
	// does not exist is an error: a versioned mutation API must fail loudly
	// rather than silently diverge from what the client believes the graph
	// contains.
	Deletes []Edge `json:"deletes,omitempty"`
}

// Empty reports whether the batch contains no mutations.
func (b MutationBatch) Empty() bool { return len(b.Inserts) == 0 && len(b.Deletes) == 0 }

// Size returns the number of mutations in the batch.
func (b MutationBatch) Size() int { return len(b.Inserts) + len(b.Deletes) }

// Endpoints returns every vertex named by the batch, deduplicated. This is
// the "touched" set consumed by UpdateFragments and the incremental
// planners: any structural change is confined to the adjacency of these
// vertices.
func (b MutationBatch) Endpoints() []VID {
	out := make([]VID, 0, 2*b.Size())
	for _, e := range b.Deletes {
		out = append(out, e.Src, e.Dst)
	}
	for _, e := range b.Inserts {
		out = append(out, e.Src, e.Dst)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// edgeKey identifies an edge for mutation matching: ordered endpoints for
// directed graphs, unordered for undirected ones.
func edgeKey(directed bool, src, dst VID) [2]VID {
	if !directed && dst < src {
		src, dst = dst, src
	}
	return [2]VID{src, dst}
}

// ApplyMutations applies the batch to a copy of the graph and returns the
// new graph (version+1, unfrozen — callers freeze before sharing) together
// with the exact inverse batch: applying the inverse to the result restores
// a graph with equal arrays and therefore an equal fingerprint (the version,
// which keeps counting, is not part of it). The receiver is never modified,
// so it is safe to mutate "from" a frozen shared instance. The vertex set is
// fixed: edges must stay within [0, NumVertices). Cost is one sequential copy
// of the CSR arrays plus O(|B| log |B| + Σ deg(Endpoints)): see spliceCSR.
//
// A frozen receiver also hands its fingerprint's row sum forward, corrected
// by the old and new hashes of exactly the rows the batch names, so the
// result's Freeze re-hashes no row; an unfrozen receiver has no sum to trust
// and the result is hashed in full when frozen.
//
// Semantics per operation (deletes first, then inserts):
//   - delete (u,v): removes the edge, all parallel copies included; an
//     absent edge is an error.
//   - insert (u,v,w): adds the edge; if (u,v) already exists — including
//     via a delete in this same batch — the insert replaces its weight.
func (g *Graph) ApplyMutations(b MutationBatch) (*Graph, MutationBatch, error) {
	for _, e := range b.Deletes {
		if int(e.Src) >= g.n || int(e.Dst) >= g.n {
			return nil, MutationBatch{}, fmt.Errorf("graph: delete (%d,%d) out of range for n=%d", e.Src, e.Dst, g.n)
		}
	}
	for _, e := range b.Inserts {
		if int(e.Src) >= g.n || int(e.Dst) >= g.n {
			return nil, MutationBatch{}, fmt.Errorf("graph: insert (%d,%d) out of range for n=%d", e.Src, e.Dst, g.n)
		}
	}

	// Last insert of a key wins within one batch, like a sequential replay.
	ins := make(map[[2]VID]Edge, len(b.Inserts))
	insOrder := make([][2]VID, 0, len(b.Inserts))
	for _, e := range b.Inserts {
		k := edgeKey(g.directed, e.Src, e.Dst)
		if _, dup := ins[k]; !dup {
			insOrder = append(insOrder, k)
		}
		ins[k] = e
	}

	// prior is the copy of edge k that the batch replaces, for the inverse.
	// Parallel copies collapse to the smallest weight: the inverse restores
	// one edge, matching the "delete removes all copies" semantics.
	prior := func(k [2]VID) (Edge, bool) {
		w, ok := g.EdgeWeight(k[0], k[1])
		return Edge{k[0], k[1], w}, ok
	}
	// Every named key replaces all arcs between its endpoints by the
	// inserted one, or by nothing: fwd rewrites cell (src,dst), rev its
	// mirror (the in-CSR's, or an undirected edge's second arc).
	var fwd, rev []arcOp
	rewrite := func(k [2]VID) {
		e, add := ins[k]
		fwd = append(fwd, arcOp{k[0], k[1], e.W, add})
		if g.directed || k[0] != k[1] {
			rev = append(rev, arcOp{k[1], k[0], e.W, add})
		}
	}

	var inverse MutationBatch
	// Pure deletions (not re-inserted in the same batch): restore the edge.
	deleted := make(map[[2]VID]bool, len(b.Deletes))
	for _, e := range b.Deletes {
		k := edgeKey(g.directed, e.Src, e.Dst)
		old, ok := prior(k)
		if !ok {
			return nil, MutationBatch{}, fmt.Errorf("%w: delete (%d,%d): no such edge", ErrNoSuchEdge, k[0], k[1])
		}
		if _, reinserted := ins[k]; reinserted || deleted[k] {
			continue
		}
		deleted[k] = true // a repeated delete restores the edge once
		inverse.Inserts = append(inverse.Inserts, old)
		rewrite(k)
	}
	// Inserts: replacements restore the old weight; fresh edges are deleted.
	for _, k := range insOrder {
		if old, ok := prior(k); ok {
			inverse.Inserts = append(inverse.Inserts, old)
		} else {
			inverse.Deletes = append(inverse.Deletes, Edge{Src: ins[k].Src, Dst: ins[k].Dst})
		}
		rewrite(k)
	}

	ng := &Graph{n: g.n, directed: g.directed, labels: g.labels, version: g.version + 1}
	var dOut, dIn uint64
	if g.directed {
		ng.outIndex, ng.outTo, ng.outW, dOut = spliceCSR(sideOut, g.outIndex, g.outTo, g.outW, fwd)
		ng.inIndex, ng.inTo, ng.inW, dIn = spliceCSR(sideIn, g.inIndex, g.inTo, g.inW, rev)
	} else {
		ng.outIndex, ng.outTo, ng.outW, dOut = spliceCSR(sideOut, g.outIndex, g.outTo, g.outW, append(fwd, rev...))
		ng.inIndex, ng.inTo, ng.inW = ng.outIndex, ng.outTo, ng.outW
	}
	if g.frozen {
		ng.rowSum, ng.carried = g.rowSum+dOut+dIn, true
	}
	return ng, inverse, nil
}

// arcOp rewrites one (row, col) cell of a CSR: every stored copy of the arc
// is dropped and, when add is set, a single one with weight w takes its place.
type arcOp struct {
	row, col VID
	w        float64
	add      bool
}

// spliceCSR returns a copy of the CSR with ops applied (at most one op per
// cell). Rows no op names are copied in bulk, a memcpy per gap between named
// rows; a named row is merged with its ops in one walk, which keeps it sorted
// by (target, weight) because an op's arc lands where the copies it replaces
// stood. Cost is O(|V| + |E|) sequential copying plus O(Σ deg(named rows)).
//
// The last result is what the splice did to this side's fingerprint term:
// Σ rowHash over the named rows as they are now, minus the same as they were.
func spliceCSR(side uint64, idx []int64, to []VID, ws []float64, ops []arcOp) ([]int64, []VID, []float64, uint64) {
	slices.SortFunc(ops, func(a, b arcOp) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.col, b.col))
	})
	nIdx := make([]int64, len(idx))
	nTo := make([]VID, len(to)+len(ops)) // cut to size once the drops are known
	nW := make([]float64, len(ws)+len(ops))

	from, k := int64(0), int64(0) // arcs [0,from) of the old CSR are placed in [0,k)
	row := 0                      // rows [0,row) have their new index entries
	// fill copies the arcs up to end and closes the rows up to upTo; the
	// first of them may be a merged row whose tail the copy completes.
	fill := func(upTo int, end int64) {
		k += int64(copy(nTo[k:], to[from:end]))
		copy(nW[k-(end-from):], ws[from:end])
		for shift := k - end; row < upTo; row++ {
			nIdx[row+1] = idx[row+1] + shift
		}
		from = end
	}
	for i := 0; i < len(ops); {
		r := int(ops[i].row)
		fill(r, idx[r]) // everything before row r, verbatim
		for end := idx[r+1]; i < len(ops) && int(ops[i].row) == r; i++ {
			op := ops[i]
			for ; from < end && to[from] < op.col; from, k = from+1, k+1 {
				nTo[k], nW[k] = to[from], ws[from]
			}
			for from < end && to[from] == op.col {
				from++
			}
			if op.add {
				nTo[k], nW[k] = op.col, op.w
				k++
			}
		}
	}
	fill(len(idx)-1, int64(len(to)))

	var delta uint64
	for i := 0; i < len(ops); {
		r := ops[i].row
		for i < len(ops) && ops[i].row == r {
			i++
		}
		lo, hi, nLo, nHi := idx[r], idx[r+1], nIdx[r], nIdx[r+1]
		delta += rowHash(side, r, nTo[nLo:nHi], nW[nLo:nHi]) - rowHash(side, r, to[lo:hi], ws[lo:hi])
	}
	return nIdx, nTo[:k], nW[:k], delta
}

// ErrNoSuchEdge is returned by ApplyMutations when a delete names an edge
// that does not exist in the graph.
var ErrNoSuchEdge = fmt.Errorf("graph: no such edge")

// UpdateFragments derives the fragment partition of newG from the previous
// version's fragments by copy-on-write: only the fragments owning an
// endpoint of a mutated edge are re-derived (patched from their parent, see
// Fragment.patch, concurrently); every other fragment is a shallow copy
// sharing all of its arrays with the old version (an arc lives only in the
// fragments owning one of its endpoints, so no other fragment's local CSR,
// ghost set or replica table can have changed). The old fragments stay
// fully usable — jobs pinned to the previous version keep running over them.
//
// touched is the set of vertices whose adjacency may differ between the two
// versions (MutationBatch.Endpoints, or a union of them across versions). It
// returns the new fragments plus the ids of the workers re-derived.
func UpdateFragments(oldFrags []*Fragment, newG *Graph, touched []VID) ([]*Fragment, []int, error) {
	if len(oldFrags) == 0 {
		return nil, nil, fmt.Errorf("graph: no fragments to update")
	}
	owner := oldFrags[0].owner
	if len(owner) != newG.n {
		return nil, nil, fmt.Errorf("graph: owner assignment has %d entries, want %d (mutations cannot change the vertex set)", len(owner), newG.n)
	}
	numWorkers := oldFrags[0].numWorkers
	dirty := make([]bool, numWorkers)
	for _, v := range touched {
		if int(v) >= len(owner) {
			return nil, nil, fmt.Errorf("graph: touched vertex %d out of range for n=%d", v, newG.n)
		}
		dirty[owner[v]] = true
	}
	touched = slices.Compact(slices.Sorted(slices.Values(touched)))

	out := make([]*Fragment, numWorkers)
	var derived []int
	for i, f := range oldFrags {
		if dirty[i] {
			derived = append(derived, i)
			continue
		}
		cp := *f
		out[i] = &cp
	}
	fillMissing(out, func(i int) *Fragment { return oldFrags[i].patch(newG, touched) })
	return out, derived, nil
}

// Churn draws a deterministic churn batch against g: up to k deletes of
// existing arcs and up to k fresh inserts (weights 1–9), the same batch for
// the same graph, seed and k. k is clamped to the arc count, and the insert
// draw gives up after 64k tries, so a graph with fewer than k fresh arcs (a
// complete one) gets fewer inserts instead of a draw that never ends.
func Churn(g *Graph, seed int64, k int) MutationBatch {
	r := rand.New(rand.NewSource(seed))
	var edges []Edge
	for v := 0; v < g.NumVertices(); v++ {
		adj, ws := g.OutNeighbors(VID(v)), g.OutWeights(VID(v))
		for i, u := range adj {
			edges = append(edges, Edge{Src: VID(v), Dst: u, W: ws[i]})
		}
	}
	k = min(k, len(edges))
	var b MutationBatch
	seen := map[[2]VID]bool{}
	for _, i := range r.Perm(len(edges))[:k] {
		e := edges[i]
		if seen[[2]VID{e.Src, e.Dst}] {
			continue
		}
		seen[[2]VID{e.Src, e.Dst}] = true
		b.Deletes = append(b.Deletes, Edge{Src: e.Src, Dst: e.Dst})
	}
	n := g.NumVertices()
	for tries := 0; len(b.Inserts) < k && tries < 64*k; tries++ {
		u, v := VID(r.Intn(n)), VID(r.Intn(n))
		if u == v || g.HasEdge(u, v) || seen[[2]VID{u, v}] {
			continue
		}
		seen[[2]VID{u, v}] = true
		b.Inserts = append(b.Inserts, Edge{Src: u, Dst: v, W: float64(1 + r.Intn(9))})
	}
	return b
}
