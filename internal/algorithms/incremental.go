package algorithms

import (
	"math"

	"argan/internal/ace"
	"argan/internal/graph"
)

// Incremental re-convergence planners: given two graph versions and the
// fixpoint computed on the old one, build the ace.WarmState a program
// re-converges from on the new version, re-seeding the scheduler only at
// the vertices a mutation can actually affect. Each planner encodes the
// retract-and-repush rule of its program's algebra:
//
//   - Δ-PageRank (sum fold with an inverse): the converged state satisfies
//     Ψ = b + A·rank − rank, which is linear in the transition matrix A, so
//     after a mutation the exact pending delta is Ψ′ = Ψ + (A′−A)·rank.
//     The planner retracts d·rank[u]/deg_old(u) from every old out-neighbor
//     of a rewired source u (via Invert) and pushes d·rank[u]/deg_new(u) to
//     every new one. No history is replayed — linearity makes the
//     correction exact regardless of how the old fixpoint was reached.
//   - SSSP/BFS (min fold, idempotent): a deleted arc can strand distances
//     that used it as a support. The planner conservatively marks dirty
//     every vertex whose distance was justified by a removed arc, cascades
//     dirtiness along still-justified arcs of the new graph, resets dirty
//     distances to +Inf, and re-activates their clean upstream frontier
//     (plus the tails of inserted arcs, which can only improve distances).
//   - WCC (min fold, idempotent): a deleted arc can split a component, and
//     stale minimum labels cannot be retracted under a lattice join, so the
//     planner resets every vertex of a deletion-affected component to its
//     self-label and re-floods; insert endpoints are activated so merged
//     components exchange minima.
//
// Programs that are neither invertible nor idempotent cannot restart from a
// stale Ψ without double counting; ace.CanIncrement gates callers into a
// full recompute instead.

// diffArcs compares the out-adjacency of the touched vertices across two
// graph versions and returns the arcs present only in the old graph
// (removed) and only in the new one (added). A weight change appears as a
// removed arc plus an added arc. touched must contain every vertex whose
// adjacency may differ (MutationBatch.Endpoints guarantees this); for
// undirected graphs both endpoints of an edge are touched, so both arc
// directions are reported.
func diffArcs(oldG, newG *graph.Graph, touched []graph.VID) (removed, added []graph.Edge) {
	for _, u := range touched {
		oa, ow := oldG.OutNeighbors(u), oldG.OutWeights(u)
		na, nw := newG.OutNeighbors(u), newG.OutWeights(u)
		i, j := 0, 0
		// Adjacency is sorted by (dst, weight) — a sorted-merge diff.
		for i < len(oa) || j < len(na) {
			switch {
			case j == len(na) || (i < len(oa) && (oa[i] < na[j] || (oa[i] == na[j] && ow[i] < nw[j]))):
				removed = append(removed, graph.Edge{Src: u, Dst: oa[i], W: ow[i]})
				i++
			case i == len(oa) || na[j] < oa[i] || (na[j] == oa[i] && nw[j] < ow[i]):
				added = append(added, graph.Edge{Src: u, Dst: na[j], W: nw[j]})
				j++
			default: // same dst, same weight: arc survived
				i++
				j++
			}
		}
	}
	return removed, added
}

// sameAdjacency reports whether a vertex has the same out-neighbor multiset
// in both graphs, ignoring weights (Δ-PageRank is weight-blind).
func sameAdjacency(oldG, newG *graph.Graph, u graph.VID) bool {
	oa, na := oldG.OutNeighbors(u), newG.OutNeighbors(u)
	if len(oa) != len(na) {
		return false
	}
	for i := range oa {
		if oa[i] != na[i] {
			return false
		}
	}
	return true
}

// WarmPageRank plans the Δ-PageRank warm start: psi and ranks are the prior
// fixpoint's pending deltas and accumulated ranks (gap.Result Psi/Values),
// both global-vertex indexed over the old graph. eps <= 0 means
// DefaultPREps. The returned state's Aux carries the rank array for
// PageRank.Setup to restore.
func WarmPageRank(oldG, newG *graph.Graph, touched []graph.VID, psi, ranks []float64, eps float64) *ace.WarmState[float64] {
	if eps <= 0 {
		eps = DefaultPREps
	}
	values := append([]float64(nil), psi...)
	for _, u := range touched {
		if sameAdjacency(oldG, newG, u) {
			continue // weight-only change: PR's transition row is unchanged
		}
		r := ranks[u]
		if oldDeg := oldG.OutDegree(u); oldDeg > 0 {
			contrib := Damping * r / float64(oldDeg)
			for _, v := range oldG.OutNeighbors(u) {
				values[v] = subDelta(values[v], contrib) // retract the stale push
			}
		}
		if newDeg := newG.OutDegree(u); newDeg > 0 {
			contrib := Damping * r / float64(newDeg)
			for _, v := range newG.OutNeighbors(u) {
				values[v] += contrib // re-push over the new row
			}
		}
	}
	active := make([]bool, len(values))
	for v, d := range values {
		active[v] = math.Abs(d) >= eps
	}
	return &ace.WarmState[float64]{Values: values, Active: active, Aux: ranks}
}

// WarmSSSP plans the SSSP warm start from the prior distances (Inf =
// unreachable) for the same source. KickStarter-style conservative
// invalidation: a removed arc (u,v,w) dirties v if dist[v] was justified by
// it; dirtiness cascades along arcs of the new graph that still justify
// their head's old distance; dirty vertices reset to +Inf and their clean
// finite in-neighbors (plus tails of added arcs) re-activate.
func WarmSSSP(oldG, newG *graph.Graph, touched []graph.VID, dist []float64, src graph.VID) *ace.WarmState[float64] {
	removed, added := diffArcs(oldG, newG, touched)
	dirty := make([]bool, len(dist))
	var queue []graph.VID
	mark := func(v graph.VID) {
		if !dirty[v] && v != src && !math.IsInf(dist[v], 1) {
			dirty[v] = true
			queue = append(queue, v)
		}
	}
	for _, e := range removed {
		if !math.IsInf(dist[e.Src], 1) && dist[e.Dst] == dist[e.Src]+e.W {
			mark(e.Dst)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		adj, ws := newG.OutNeighbors(p), newG.OutWeights(p)
		for i, x := range adj {
			if dist[x] == dist[p]+ws[i] {
				mark(x) // x's old distance leaned on a now-dirty support
			}
		}
	}

	values := append([]float64(nil), dist...)
	active := make([]bool, len(dist))
	for v := range dirty {
		if !dirty[v] {
			continue
		}
		values[v] = Inf
		// The clean finite upstream frontier recomputes the dirty region.
		for _, p := range newG.InNeighbors(graph.VID(v)) {
			if !dirty[p] && !math.IsInf(values[p], 1) {
				active[p] = true
			}
		}
	}
	for _, e := range added {
		if !dirty[e.Src] && !math.IsInf(values[e.Src], 1) {
			active[e.Src] = true // an added arc can only improve its head
		}
	}
	return &ace.WarmState[float64]{Values: values, Active: active}
}

// WarmBFS is WarmSSSP over unit-weight int32 hop counts (bfsInf =
// unreachable).
func WarmBFS(oldG, newG *graph.Graph, touched []graph.VID, dist []int32, src graph.VID) *ace.WarmState[int32] {
	removed, added := diffArcs(oldG, newG, touched)
	dirty := make([]bool, len(dist))
	var queue []graph.VID
	mark := func(v graph.VID) {
		if !dirty[v] && v != src && dist[v] != bfsInf {
			dirty[v] = true
			queue = append(queue, v)
		}
	}
	for _, e := range removed {
		if dist[e.Src] != bfsInf && dist[e.Dst] == dist[e.Src]+1 {
			mark(e.Dst)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, x := range newG.OutNeighbors(p) {
			if dist[x] == dist[p]+1 {
				mark(x)
			}
		}
	}

	values := append([]int32(nil), dist...)
	active := make([]bool, len(dist))
	for v := range dirty {
		if !dirty[v] {
			continue
		}
		values[v] = bfsInf
		for _, p := range newG.InNeighbors(graph.VID(v)) {
			if !dirty[p] && values[p] != bfsInf {
				active[p] = true
			}
		}
	}
	for _, e := range added {
		if !dirty[e.Src] && values[e.Src] != bfsInf {
			active[e.Src] = true
		}
	}
	return &ace.WarmState[int32]{Values: values, Active: active}
}

// WarmWCC plans the WCC warm start from the prior component labels. Min
// labels cannot be retracted under a lattice join, so every component that
// lost an edge is reset wholesale to self-labels and re-flooded; endpoints
// of inserted arcs are activated so merging components exchange minima.
// An old arc between a reset and a clean vertex is impossible (adjacent
// vertices shared a component, whose label is affected), so the reset
// region's frontier is exactly the insert endpoints.
func WarmWCC(oldG, newG *graph.Graph, touched []graph.VID, labels []uint32) *ace.WarmState[uint32] {
	removed, added := diffArcs(oldG, newG, touched)
	affected := make(map[uint32]bool, 2*len(removed))
	for _, e := range removed {
		affected[labels[e.Src]] = true
		affected[labels[e.Dst]] = true
	}

	values := make([]uint32, len(labels))
	active := make([]bool, len(labels))
	for v, l := range labels {
		if affected[l] {
			values[v] = uint32(v)
			active[v] = true
		} else {
			values[v] = l
		}
	}
	for _, e := range added {
		active[e.Src] = true
		active[e.Dst] = true
	}
	return &ace.WarmState[uint32]{Values: values, Active: active}
}
