package serve

import (
	"fmt"
	"math"
	"math/rand"

	"argan/internal/graph"
)

// MutateRequest is one atomic edge-mutation batch against a dataset served
// by the resident service. Deletes apply before inserts (a delete+insert of
// one edge is a weight replacement); deleting an absent edge fails the
// whole batch.
type MutateRequest struct {
	// Scale selects the dataset instance (default 0.25, matching JobSpec).
	Scale float64 `json:"scale,omitempty"`
	// ExpectVersion, when set, is an optimistic-concurrency guard: the
	// batch applies only if the dataset is still at this version; otherwise
	// the request fails with graph.ErrVersionMismatch (HTTP 412). Absent
	// means apply unconditionally.
	ExpectVersion *uint64      `json:"expect_version,omitempty"`
	Inserts       []graph.Edge `json:"inserts,omitempty"`
	Deletes       []graph.Edge `json:"deletes,omitempty"`
}

// MutateResult reports one applied batch.
type MutateResult struct {
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	OldVersion uint64  `json:"old_version"`
	NewVersion uint64  `json:"new_version"`
	Inserts    int     `json:"inserts"`
	Deletes    int     `json:"deletes"`
	// RebuiltFragments / SharedFragments count fragment partitions across
	// the cached worker counts: "rebuilt" ones own a mutated endpoint and are
	// re-derived (patched from the previous version's), shared ones are
	// carried over from the previous version by copy-on-write.
	RebuiltFragments int `json:"rebuilt_fragments"`
	SharedFragments  int `json:"shared_fragments"`
}

// DatasetInfo describes one materialized dataset version.
type DatasetInfo struct {
	Dataset  string  `json:"dataset"`
	Scale    float64 `json:"scale"`
	Version  uint64  `json:"version"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
}

// Mutate applies one edge batch to a dataset, bumping its version. Jobs
// already dispatched keep computing over the version they pinned; jobs
// submitted after Mutate returns see the new one. A draining service
// refuses mutations the same way it refuses jobs.
func (s *Service) Mutate(dataset string, req MutateRequest) (*MutateResult, error) {
	if dataset == "" {
		return nil, fmt.Errorf("dataset is required")
	}
	if req.Scale <= 0 {
		req.Scale = 0.25
	}
	b := graph.MutationBatch{Inserts: req.Inserts, Deletes: req.Deletes}
	if b.Empty() {
		return nil, fmt.Errorf("empty mutation batch")
	}
	// Every app assumes non-negative finite weights: on a negative cycle the
	// SSSP reference and engine never settle. Refused before the WAL sees
	// the batch; replay stays permissive so older logs still open.
	for _, e := range b.Inserts {
		if !(e.W >= 0) || math.IsInf(e.W, 1) {
			return nil, fmt.Errorf("insert (%d,%d): weight %v is not finite and non-negative", e.Src, e.Dst, e.W)
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.mu.Unlock()

	res, err := s.data.mutate(dataset, req.Scale, b, req.ExpectVersion)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.mutations++
	s.mutatedEdges += int64(b.Size())
	s.mu.Unlock()
	return res, nil
}

// Datasets lists the datasets the service has materialized, with their
// current versions.
func (s *Service) Datasets() []DatasetInfo { return s.data.versions() }

// Churn applies one synthetic edge-churn batch to a dataset: ops operations
// drawn deterministically from seed against the current version, half
// deleting existing arcs and half inserting fresh ones. It drives live
// re-convergence demos and storm drills (arganrun serve -churn) without the
// caller needing graph access.
func (s *Service) Churn(dataset string, scale float64, seed int64, ops int) (*MutateResult, error) {
	if scale <= 0 {
		scale = 0.25
	}
	if ops < 2 {
		ops = 2
	}
	p, err := s.data.pin(dataset, scale, s.cfg.MaxWorkersPerJob)
	if err != nil {
		return nil, err
	}
	b := synthChurn(p.g, seed, ops)
	// Guard on the drawn-against version: if a concurrent writer moved the
	// dataset, the batch's deletes may name arcs that no longer exist.
	expect := p.version
	return s.Mutate(dataset, MutateRequest{
		Scale: scale, ExpectVersion: &expect,
		Inserts: b.Inserts, Deletes: b.Deletes,
	})
}

// synthChurn draws a deterministic churn batch against g: ops/2 deletes of
// existing arcs and ops/2 fresh inserts.
func synthChurn(g *graph.Graph, seed int64, ops int) graph.MutationBatch {
	r := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		adj, ws := g.OutNeighbors(graph.VID(v)), g.OutWeights(graph.VID(v))
		for i, u := range adj {
			edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: u, W: ws[i]})
		}
	}
	k := ops / 2
	if k > len(edges) {
		k = len(edges)
	}
	var b graph.MutationBatch
	seen := map[[2]graph.VID]bool{}
	for _, i := range r.Perm(len(edges))[:k] {
		e := edges[i]
		if seen[[2]graph.VID{e.Src, e.Dst}] {
			continue
		}
		seen[[2]graph.VID{e.Src, e.Dst}] = true
		b.Deletes = append(b.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
	}
	n := g.NumVertices()
	for tries := 0; len(b.Inserts) < k && tries < 64*k; tries++ {
		u, v := graph.VID(r.Intn(n)), graph.VID(r.Intn(n))
		if u == v || g.HasEdge(u, v) || seen[[2]graph.VID{u, v}] {
			continue
		}
		seen[[2]graph.VID{u, v}] = true
		b.Inserts = append(b.Inserts, graph.Edge{Src: u, Dst: v, W: float64(1 + r.Intn(9))})
	}
	return b
}
