package graph

import (
	"fmt"
	"sort"
)

// The constructions the linear write-path kernels replaced, kept verbatim as
// test oracles: the map-based fragment builder (hash sets for ghosts and arc
// de-duplication, an arc list re-sorted into CSR) and the edge-list
// ApplyMutations. kernels_test.go holds the new kernels to them field for
// field.

// oracleBuildFragment is the former buildFragment; the only change is that
// its global->local map is also written out as the dense Fragment.index.
func oracleBuildFragment(g *Graph, owner []uint16, numWorkers, worker int) *Fragment {
	w := uint16(worker)
	// Collect owned vertices and the ghosts induced by their edges.
	var owned []VID
	ghostSet := map[VID]struct{}{}
	for v := 0; v < g.n; v++ {
		if owner[v] != w {
			continue
		}
		owned = append(owned, VID(v))
		for _, u := range g.OutNeighbors(VID(v)) {
			if owner[u] != w {
				ghostSet[u] = struct{}{}
			}
		}
		for _, u := range g.InNeighbors(VID(v)) {
			if owner[u] != w {
				ghostSet[u] = struct{}{}
			}
		}
	}
	ghosts := make([]VID, 0, len(ghostSet))
	for u := range ghostSet {
		ghosts = append(ghosts, u)
	}
	sort.Slice(ghosts, func(i, j int) bool { return ghosts[i] < ghosts[j] })

	f := &Fragment{
		worker:     worker,
		numWorkers: numWorkers,
		directed:   g.directed,
		numOwned:   len(owned),
		locals:     append(append([]VID{}, owned...), ghosts...),
		owner:      owner,
		globalN:    g.n,
	}
	index := make(map[VID]uint32, len(f.locals))
	f.index = make([]uint32, g.n)
	for v := range f.index {
		f.index[v] = noLocal
	}
	for l, v := range f.locals {
		index[v] = uint32(l)
		f.index[v] = uint32(l)
	}
	if g.labels != nil {
		f.labels = make([]int32, len(f.locals))
		for l, v := range f.locals {
			f.labels[l] = g.labels[v]
		}
	}

	// Localized arcs of E_i: every arc with at least one owned endpoint.
	var arcs []oracleLocalArc
	seen := map[[2]VID]struct{}{}
	addArcsOf := func(v VID) {
		lv := index[v]
		for i, u := range g.OutNeighbors(v) {
			if owner[v] != w && owner[u] != w {
				continue
			}
			lu, ok := index[u]
			if !ok {
				continue // neighbor of a ghost outside this fragment
			}
			key := [2]VID{v, u}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			arcs = append(arcs, oracleLocalArc{lv, lu, g.OutWeights(v)[i]})
		}
	}
	for _, v := range f.locals {
		addArcsOf(v)
	}
	// For undirected graphs the Graph CSR already stores both directions, so
	// the arc set above is symmetric where both endpoints are local.

	nl := len(f.locals)
	f.outIndex, f.outTo, f.outW = oracleLocalCSR(nl, arcs, false)
	f.inIndex, f.inTo, f.inW = oracleLocalCSR(nl, arcs, true)

	// Replica routing tables for owned vertices.
	f.repOutIdx, f.repOut = oracleReplicas(f, g, owned, w, true)
	if g.directed {
		f.repInIdx, f.repIn = oracleReplicas(f, g, owned, w, false)
	} else {
		f.repInIdx, f.repIn = f.repOutIdx, f.repOut
	}
	return f
}

type oracleLocalArc struct {
	src, dst uint32
	w        float64
}

func oracleLocalCSR(n int, arcs []oracleLocalArc, reverse bool) ([]int64, []uint32, []float64) {
	index := make([]int64, n+1)
	for _, a := range arcs {
		k := a.src
		if reverse {
			k = a.dst
		}
		index[k+1]++
	}
	for i := 0; i < n; i++ {
		index[i+1] += index[i]
	}
	to := make([]uint32, len(arcs))
	ws := make([]float64, len(arcs))
	cursor := make([]int64, n)
	for _, a := range arcs {
		k, other := a.src, a.dst
		if reverse {
			k, other = a.dst, a.src
		}
		p := index[k] + cursor[k]
		cursor[k]++
		to[p] = other
		ws[p] = a.w
	}
	for v := 0; v < n; v++ {
		lo, hi := index[v], index[v+1]
		oracleSortLocalAdj(to[lo:hi], ws[lo:hi])
	}
	return index, to, ws
}

func oracleSortLocalAdj(to []uint32, w []float64) {
	sort.Sort(&oracleLocalAdjSorter{to, w})
}

type oracleLocalAdjSorter struct {
	to []uint32
	w  []float64
}

func (s *oracleLocalAdjSorter) Len() int { return len(s.to) }
func (s *oracleLocalAdjSorter) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}
func (s *oracleLocalAdjSorter) Less(i, j int) bool {
	if s.to[i] != s.to[j] {
		return s.to[i] < s.to[j]
	}
	return s.w[i] < s.w[j]
}

// oracleReplicas computes, for each owned vertex, the sorted set of remote
// workers owning its out-neighbors (outDir) or in-neighbors (!outDir).
func oracleReplicas(f *Fragment, g *Graph, owned []VID, w uint16, outDir bool) ([]int32, []uint16) {
	idx := make([]int32, len(f.locals)+1)
	var flat []uint16
	var set [256]bool // numWorkers <= 256 in this repo
	for l, v := range owned {
		var nbrs []VID
		if outDir {
			nbrs = g.OutNeighbors(v)
		} else {
			nbrs = g.InNeighbors(v)
		}
		var touched []uint16
		for _, u := range nbrs {
			o := f.owner[u]
			if o != w && !set[o] {
				set[o] = true
				touched = append(touched, o)
			}
		}
		sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
		flat = append(flat, touched...)
		for _, o := range touched {
			set[o] = false
		}
		idx[l+1] = int32(len(flat))
	}
	// Ghost entries keep empty ranges.
	for l := len(owned); l < len(f.locals); l++ {
		idx[l+1] = idx[l]
	}
	return idx, flat
}

// logicalEdges reconstructs the builder-level edge list from the CSR: every
// arc for a directed graph; each undirected edge once (smaller endpoint
// first, self-loops included) for an undirected one.
func (g *Graph) logicalEdges() []Edge {
	out := make([]Edge, 0, len(g.outTo))
	for v := 0; v < g.n; v++ {
		adj, ws := g.OutNeighbors(VID(v)), g.OutWeights(VID(v))
		for i, u := range adj {
			if !g.directed && u < VID(v) {
				continue // the (u,v) arc carries this undirected edge
			}
			out = append(out, Edge{VID(v), u, ws[i]})
		}
	}
	return out
}

// oracleApplyMutations is the edge-list ApplyMutations the CSR splice
// replaced: logicalEdges -> per-edge map probes -> Builder -> sort per vertex.
func (g *Graph) oracleApplyMutations(b MutationBatch) (*Graph, MutationBatch, error) {
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

	dels := make(map[[2]VID]bool, len(b.Deletes))
	for _, e := range b.Deletes {
		dels[edgeKey(g.directed, e.Src, e.Dst)] = true
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

	// One pass over the old edge list: record the prior copy of every edge
	// the batch names (for the inverse), keep everything the batch does not
	// replace or delete.
	nb := NewBuilder(g.n, g.directed)
	oldCopy := make(map[[2]VID]Edge, len(dels)+len(ins))
	for _, e := range g.logicalEdges() {
		k := edgeKey(g.directed, e.Src, e.Dst)
		_, inserted := ins[k]
		if dels[k] || inserted {
			if _, seen := oldCopy[k]; !seen {
				// Parallel copies collapse: the inverse restores one edge,
				// matching the "delete removes all copies" semantics.
				oldCopy[k] = e
			}
			continue
		}
		nb.AddWeighted(e.Src, e.Dst, e.W)
	}
	for k := range dels {
		if _, ok := oldCopy[k]; !ok {
			return nil, MutationBatch{}, fmt.Errorf("%w: delete (%d,%d): no such edge", ErrNoSuchEdge, k[0], k[1])
		}
	}

	var inverse MutationBatch
	// Pure deletions (not re-inserted in the same batch): restore the edge.
	for _, e := range b.Deletes {
		k := edgeKey(g.directed, e.Src, e.Dst)
		if old, ok := oldCopy[k]; ok {
			if _, reinserted := ins[k]; !reinserted {
				inverse.Inserts = append(inverse.Inserts, old)
				delete(oldCopy, k) // emit each restored edge once
			}
		}
	}
	// Inserts: replacements restore the old weight; fresh edges are deleted.
	for _, k := range insOrder {
		e := ins[k]
		nb.AddWeighted(e.Src, e.Dst, e.W)
		if old, ok := oldCopy[k]; ok {
			inverse.Inserts = append(inverse.Inserts, old)
		} else {
			inverse.Deletes = append(inverse.Deletes, Edge{Src: e.Src, Dst: e.Dst})
		}
	}

	if g.labels != nil {
		for v, l := range g.labels {
			if l != 0 {
				nb.SetLabel(VID(v), l)
			}
		}
		if len(g.labels) > 0 {
			nb.SetLabel(0, g.labels[0]) // force the labeled state even if all labels are 0
		}
	}
	ng, err := nb.Build()
	if err != nil {
		return nil, MutationBatch{}, err
	}
	ng.version = g.version + 1
	return ng, inverse, nil
}
