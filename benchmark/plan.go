package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"argan/internal/core"
	"argan/internal/graph"
)

// The four apps of a round, in issue order. They are interleaved inside every
// round so machine drift hits every latency class equally.
var apps = []string{"pr", "sssp", "bfs", "wcc"}

// Workload is one traffic mix. See README.md for why each exists.
type Workload struct {
	Name string
	Why  string
	// Datasets lists the preloaded datasets; one closed-loop client drives
	// each, so len(Datasets) is the client count.
	Datasets []string
	// Workers is the worker pool each job asks for.
	Workers int
	// Verify asks the service to check every job against its sequential
	// reference (increments are always verified, whatever this says).
	Verify bool
	// MutateFrac is the share of the dataset's arcs one timed-round mutate
	// rewrites: 0 = no writes in rounds (static), pointMutate = a 2-op
	// batch, otherwise that fraction of the arcs.
	MutateFrac float64
}

// pointMutate marks a 1-delete + 1-insert batch.
const pointMutate = -1

// historyMutates is how many WAL records the state directory holds when the
// server is killed, on every workload: static workloads write them as point
// mutates right after the cold start, churn workloads reach the count with
// their warm-up and first timed rounds. A fixed history keeps recover_s
// comparable between runs whose timed phases fit different round counts.
const historyMutates = 24

var workloads = []Workload{
	{
		Name:     "cold-static",
		Why:      "same version every job, so every job is a cold full gap.RunLive run on 2 workers; an engine or granularity change shows here and nowhere else",
		Datasets: []string{"LJ"}, Workers: 2,
	},
	{
		Name:     "churn-point",
		Why:      "a guarded 2-op mutate before every round, so all jobs are verified warm increments: CheckFrozen, the per-version reference, apply/freeze/fragments and the WAL dominate, the engine idles",
		Datasets: []string{"LJ"}, Workers: 2, MutateFrac: pointMutate,
	},
	{
		Name:     "churn-bulk",
		Why:      "each mutate rewrites 1% of the arcs: large touched sets, every fragment rebuilt, 50 KB WAL frames, wide re-floods; splits delta-proportional tricks from batching tricks",
		Datasets: []string{"LJ"}, Workers: 2, MutateFrac: 0.01,
	},
	{
		Name:     "two-tenants",
		Why:      "two closed-loop clients on two datasets with verified 1-worker jobs: admission, locks and process-global state contended, no inter-worker messaging, cached references",
		Datasets: []string{"LJ", "DP"}, Workers: 1, Verify: true,
	},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w Workload) churn() bool { return w.MutateFrac != 0 }

// Generator derives every seeded input of a run: one SSSP/BFS source per
// dataset and an endless stream of mutation batches per dataset. It keeps a
// shadow graph per dataset, advanced with graph.ApplyMutations after every
// batch, so each delete names an arc that exists at the version the batch
// applies to. The server only ever sees the generated requests.
type Generator struct {
	w      Workload
	rng    map[string]*rand.Rand
	shadow map[string]*graph.Graph
	source map[string]int
	// frags is each base dataset partitioned the way the server's preload
	// partitions it; point batches consult it for vertex ownership.
	frags map[string][]*graph.Fragment
	// LoadMS and FragsMS time the generator's own first graph.LoadDataset
	// and core.Env.Fragments calls per dataset: the two layers under
	// setup_s, reported by traced runs.
	LoadMS, FragsMS Sample
}

// serverWorkers is the server's -max-workers: the worker count its preload
// partitions every dataset for.
const serverWorkers = 2

// sourcePool is how many of the highest-out-degree vertices the seed picks
// the SSSP/BFS source from.
const sourcePool = 64

func NewGenerator(w Workload, seed int64, scale float64) (*Generator, error) {
	g := &Generator{
		w:      w,
		rng:    make(map[string]*rand.Rand),
		shadow: make(map[string]*graph.Graph),
		source: make(map[string]int),
		frags:  make(map[string][]*graph.Fragment),
	}
	for i, name := range w.Datasets {
		t0 := time.Now()
		base, err := graph.LoadDataset(name, scale)
		if err != nil {
			return nil, err
		}
		g.LoadMS.Add(msSince(t0))
		t0 = time.Now()
		if g.frags[name], err = (core.Env{Workers: serverWorkers}).Fragments(base); err != nil {
			return nil, err
		}
		g.FragsMS.Add(msSince(t0))
		g.shadow[name] = base
		// One stream per dataset, so a two-client run draws the same batches
		// whichever client gets scheduled first.
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		g.rng[name] = r
		g.source[name] = pickSource(base, r)
	}
	return g, nil
}

// pickSource draws one vertex from the sourcePool highest out-degrees (ties
// broken by vertex id, so the pool itself does not depend on the seed).
func pickSource(g *graph.Graph, r *rand.Rand) int {
	n := g.NumVertices()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.OutDegree(graph.VID(ids[a])), g.OutDegree(graph.VID(ids[b]))
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	pool := sourcePool
	if pool > n {
		pool = n
	}
	return ids[r.Intn(pool)]
}

// Source is the seeded SSSP/BFS source vertex of a dataset.
func (g *Generator) Source(dataset string) int { return g.source[dataset] }

// Shadow is the generator's copy of a dataset at the version the next batch
// will apply to.
func (g *Generator) Shadow(dataset string) *graph.Graph { return g.shadow[dataset] }

// Batch is one generated mutate request.
type Batch struct {
	Dataset string `json:"dataset"`
	// Expect is the version the batch was drawn against; it travels as the
	// request's expect_version guard.
	Expect  uint64       `json:"expect_version"`
	Deletes []graph.Edge `json:"deletes"`
	Inserts []graph.Edge `json:"inserts"`
}

// NextHistory draws the i-th point mutate of a static workload's history,
// taking the datasets in turn. A point batch is 1 delete + 1 insert whose
// insert starts in another worker's partition than its delete, so that it
// makes the server rebuild both fragments; left to chance, one batch in eight
// would touch a single fragment and cost two thirds as much, and the low
// percentiles of the mutate latency would measure the seed's luck.
func (g *Generator) NextHistory(i int) (Batch, error) {
	return g.next(g.w.Datasets[i%len(g.w.Datasets)], 2)
}

// NextRound draws the batch a timed round of this workload starts with.
func (g *Generator) NextRound(dataset string) (Batch, error) {
	ops := 2
	if g.w.MutateFrac > 0 {
		ops = int(g.w.MutateFrac * float64(g.shadow[dataset].NumEdges()))
		if ops < 2 {
			ops = 2
		}
	}
	return g.next(dataset, ops)
}

func (g *Generator) next(dataset string, ops int) (Batch, error) {
	cur, r := g.shadow[dataset], g.rng[dataset]
	n := cur.NumVertices()
	b := Batch{Dataset: dataset, Expect: cur.Version()}
	named := make(map[[2]graph.VID]bool, ops)
	for len(b.Deletes) < ops/2 {
		u := graph.VID(r.Intn(n))
		adj := cur.OutNeighbors(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[r.Intn(len(adj))]
		if named[[2]graph.VID{u, v}] {
			continue
		}
		named[[2]graph.VID{u, v}] = true
		b.Deletes = append(b.Deletes, graph.Edge{Src: u, Dst: v})
	}
	owner := g.frags[dataset][0].OwnerOf
	for len(b.Inserts) < ops-ops/2 {
		u, v := graph.VID(r.Intn(n)), graph.VID(r.Intn(n))
		if u == v || named[[2]graph.VID{u, v}] || cur.HasEdge(u, v) {
			continue
		}
		if ops == 2 && owner(u) == owner(b.Deletes[0].Src) {
			continue
		}
		named[[2]graph.VID{u, v}] = true
		b.Inserts = append(b.Inserts, graph.Edge{Src: u, Dst: v, W: float64(1 + r.Intn(100))})
	}
	next, _, err := cur.ApplyMutations(graph.MutationBatch{Inserts: b.Inserts, Deletes: b.Deletes})
	if err != nil {
		return Batch{}, fmt.Errorf("advance shadow %s: %w", dataset, err)
	}
	next.Freeze()
	g.shadow[dataset] = next
	return b, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
