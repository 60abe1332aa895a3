package algorithms

import (
	"math"

	"argan/internal/ace"
	"argan/internal/graph"
)

// Incremental re-convergence planners: given two graph versions and the
// fixpoint computed on the old one, build the ace.WarmState a program
// re-converges from on the new version. Each planner does work in
// proportion to what the mutation breaks, not to the graph, and keeps one
// contract: every value it leaves clean is an upper bound that some path of
// the new graph reaches, and every vertex whose value may still improve is
// active or is reached by an update of one that is.
//
//   - Δ-PageRank (sum fold with an inverse): the converged state satisfies
//     Ψ = b + A·rank − rank, which is linear in the transition matrix A, so
//     after a mutation the exact pending delta is Ψ′ = Ψ + (A′−A)·rank.
//     The planner retracts d·rank[u]/deg_old(u) from every old out-neighbor
//     of a rewired source u (via Invert) and pushes d·rank[u]/deg_new(u) to
//     every new one. No history is replayed — linearity makes the
//     correction exact regardless of how the old fixpoint was reached.
//   - SSSP/BFS (min fold, idempotent): KickStarter's trimming. A distance
//     stays valid while a tight in-arc (dist[p]+w == dist[v]) from a valid,
//     strictly closer vertex still supports it. Only the heads of removed
//     tight arcs lose a support, so only they, and then the tight
//     out-neighbours of every vertex found unsupported, are examined, in
//     increasing old distance. Unsupported vertices reset to +Inf and their
//     clean finite in-neighbours re-activate, as do the tails of inserted
//     arcs, which can only improve their heads.
//   - WCC (min fold, idempotent): a stale minimum label cannot be retracted
//     under a lattice join, but a deletion rarely splits its component. For
//     each removed arc a bidirectional search asks whether its endpoints are
//     still weakly connected in the new graph; only a component some
//     deletion really split is reset wholesale to self-labels and
//     re-flooded. Endpoints of inserted arcs are activated so merging
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
// unreachable) for the same source by trimming; see warmTight.
func WarmSSSP(oldG, newG *graph.Graph, touched []graph.VID, dist []float64, src graph.VID) *ace.WarmState[float64] {
	return warmTight(oldG, newG, touched, dist, src, Inf, func(w float64) float64 { return w })
}

// WarmBFS is WarmSSSP over unit-weight int32 hop counts (bfsInf =
// unreachable).
func WarmBFS(oldG, newG *graph.Graph, touched []graph.VID, dist []int32, src graph.VID) *ace.WarmState[int32] {
	return warmTight(oldG, newG, touched, dist, src, bfsInf, func(float64) int32 { return 1 })
}

// warmTight is the trimming planner shared by SSSP and BFS; weight maps an
// arc's weight to the program's step. A vertex stays clean while some
// clean, strictly closer in-neighbour p still reaches it over a tight arc
// of newG, dist[p]+w == dist[v]. The guard is strict because a zero-weight
// cycle would otherwise support itself after its last real support is
// gone. Candidates — first the heads of removed tight arcs — pop in
// increasing old distance, so every strictly closer vertex is decided
// before one is judged and no decision is revisited; an unsupported
// candidate becomes dirty and makes its tight out-neighbours candidates.
// Every clean value then ends a chain of clean supports back to src in
// newG, so it is reachable; dirty values reset to inf.
func warmTight[V int32 | float64](oldG, newG *graph.Graph, touched []graph.VID, dist []V, src graph.VID, inf V, weight func(float64) V) *ace.WarmState[V] {
	removed, added := diffArcs(oldG, newG, touched)
	const (
		seen  uint8 = 1 + iota // a candidate, queued or judged clean
		dirty                  // judged unsupported
	)
	state := make([]uint8, len(dist))
	var cand ace.Heap
	push := func(v graph.VID) {
		if state[v] == 0 && v != src && dist[v] != inf {
			state[v] = seen
			cand.Push(ace.Item{P: float64(dist[v]), ID: v})
		}
	}
	// Candidates are finite, so a strictly closer p is finite too.
	supported := func(v graph.VID) bool {
		ws := newG.InWeights(v)
		for i, p := range newG.InNeighbors(v) {
			if state[p] != dirty && dist[p] < dist[v] && dist[p]+weight(ws[i]) == dist[v] {
				return true
			}
		}
		return false
	}
	for _, e := range removed {
		if dist[e.Src] != inf && dist[e.Src]+weight(e.W) == dist[e.Dst] {
			push(e.Dst)
		}
	}
	var dirtied []graph.VID
	for len(cand) > 0 {
		v := cand.Pop().ID
		if supported(v) {
			continue
		}
		state[v] = dirty
		dirtied = append(dirtied, v)
		ws := newG.OutWeights(v)
		for i, x := range newG.OutNeighbors(v) {
			if dist[v]+weight(ws[i]) == dist[x] {
				push(x) // x may have leaned on v
			}
		}
	}

	values := append([]V(nil), dist...)
	active := make([]bool, len(dist))
	for _, v := range dirtied {
		values[v] = inf
		// The clean finite upstream frontier recomputes the dirty region.
		for _, p := range newG.InNeighbors(v) {
			if state[p] != dirty && dist[p] != inf {
				active[p] = true
			}
		}
	}
	for _, e := range added {
		if state[e.Src] != dirty && dist[e.Src] != inf {
			active[e.Src] = true // an added arc can only improve its head
		}
	}
	return &ace.WarmState[V]{Values: values, Active: active}
}

// WarmWCC plans the WCC warm start from the prior component labels. A
// removed arc resets nothing while its endpoints stay weakly connected in
// newG; a component some removed arc really split is reset wholesale to
// self-labels and re-flooded. Resetting only the side that lost the
// minimum would not do: with two bridges of one chain A–B–D deleted in one
// batch and the minimum in A, either search may exhaust B and leave D with
// a label it no longer reaches. When every removed arc of a component has
// its endpoints still connected, every old path survives through newG, so
// the component's label is still a member's. Endpoints of inserted arcs
// are activated so merging components exchange minima; an arc between a
// reset and a clean vertex can only be an inserted one, so that frontier
// is covered too.
func WarmWCC(oldG, newG *graph.Graph, touched []graph.VID, labels []uint32) *ace.WarmState[uint32] {
	removed, added := diffArcs(oldG, newG, touched)
	values := append([]uint32(nil), labels...)
	active := make([]bool, len(labels))
	var search *weakSearch // built, with split, on the first removed arc
	var split []bool       // by label: some removed arc disconnected the component
	for _, e := range removed {
		if !newG.Directed() && e.Dst < e.Src {
			continue // the mirror arc of an undirected edge: same question
		}
		if search == nil {
			search = &weakSearch{g: newG, mark: make([]uint32, len(labels))}
			split = make([]bool, len(labels))
		}
		if l := labels[e.Src]; !split[l] && !search.connected(e.Src, e.Dst) {
			split[l] = true
		}
	}
	if split != nil {
		for v, l := range labels {
			if split[l] {
				values[v] = uint32(v)
				active[v] = true
			}
		}
	}
	for _, e := range added {
		active[e.Src] = true
		active[e.Dst] = true
	}
	return &ace.WarmState[uint32]{Values: values, Active: active}
}

// weakSearch answers whether two vertices are weakly connected in g by a
// bidirectional breadth-first search over out- and in-adjacency that
// always expands the smaller frontier. A connected pair stops when the
// frontiers meet, a disconnected one when the smaller side is exhausted, so
// no budget is needed. mark holds generation stamps (gen for u's side,
// gen+1 for v's), reused across the searches of one planner call.
type weakSearch struct {
	g     *graph.Graph
	mark  []uint32
	gen   uint32
	front [2][]graph.VID
	next  []graph.VID
}

func (s *weakSearch) connected(u, v graph.VID) bool {
	if u == v {
		return true
	}
	s.gen += 2
	s.mark[u], s.mark[v] = s.gen, s.gen+1
	s.front[0] = append(s.front[0][:0], u)
	s.front[1] = append(s.front[1][:0], v)
	for {
		i := 0
		if len(s.front[1]) < len(s.front[0]) {
			i = 1
		}
		if len(s.front[i]) == 0 {
			return false
		}
		own, far := s.gen+uint32(i), s.gen+uint32(1-i)
		next := s.next[:0]
		for _, x := range s.front[i] {
			nbrs := [2][]graph.VID{s.g.OutNeighbors(x)}
			if s.g.Directed() {
				nbrs[1] = s.g.InNeighbors(x)
			}
			for _, adj := range nbrs {
				for _, y := range adj {
					switch s.mark[y] {
					case far:
						return true
					case own:
					default:
						s.mark[y] = own
						next = append(next, y)
					}
				}
			}
		}
		s.front[i], s.next = next, s.front[i]
	}
}
