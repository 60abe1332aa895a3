package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"argan/internal/core"
	"argan/internal/durable"
	"argan/internal/graph"
)

// dataCache loads each (dataset, scale) once, freezes it with a structural
// fingerprint, and shares one immutable fragment partition per worker count
// across every job that runs over it. Sequential reference answers are
// cached the same way, so verification costs one sequential pass per unique
// (query, version), not per job.
//
// Datasets evolve: Service.Mutate applies a graph.MutationBatch under the
// per-dataset version counter, producing a fresh frozen graph at version+1
// with copy-on-write fragment partitions (graph.UpdateFragments re-derives
// (patches) only the partitions owning a mutated endpoint). Jobs pin the
// version current at dispatch — everything they can reach is immutable by
// construction, so tenants running over version k are undisturbed by the
// swap to k+1. Completed fixpoints are retained per query key and used to
// warm-start re-convergence on later versions (see job.go).
//
// Sharing frozen fragments is what makes a resident service cheaper than
// per-request processes — but it also means no job may mutate them. A
// graph.Fragment has no mutating method, so no job can, and
// graph.CheckFrozen trips loudly (typed ErrFrozenMutated /
// ErrVersionMismatch) if a writer slips through to the graph anyway.
// Mutations never touch a shared graph in place; they copy.

type dsKey struct {
	dataset string
	scale   float64
}

type refKey struct {
	app     string
	source  int
	eps     float64
	version uint64
}

// warmKey identifies a query whose fixpoint is retained for incremental
// re-convergence. Worker count is deliberately absent: warm state is stored
// as global-vertex arrays, so a 2-worker job can resume a fixpoint a
// 4-worker job computed.
type warmKey struct {
	app    string
	source int
	eps    float64
}

// warmEntry is one retained fixpoint: the version and graph it was computed
// on plus the program's global-vertex state (values = Output view, psi =
// raw Ψ — Δ-PageRank's parked residual deltas live there).
type warmEntry struct {
	version uint64
	g       *graph.Graph
	values  any
	psi     any
}

// mutRecord logs one applied batch: the version it created and the vertices
// whose adjacency it touched. Warm starts bridging versions (a, b] union
// these touched sets; a bridge that falls off the bounded log forces a
// flagged full recompute.
type mutRecord struct {
	version uint64
	touched []graph.VID
}

// maxMutLog bounds the per-dataset mutation log. 128 batches of history is
// far more than any live warm entry can lag behind (entries refresh on
// every completed job), while keeping a hot dataset's log at worst a few MB.
const maxMutLog = 128

// dsState is the versioned state of one (dataset, scale): the current
// frozen graph, its fragment partitions per worker count, the mutation log,
// retained fixpoints and sequential references. All fields are guarded by
// mu; the graphs and fragments handed out under it are immutable.
//
// When the service is durable (Config.StateDir), the state also owns the
// dataset's WAL: mutate appends+fsyncs each batch before swapping the new
// version in, and the warm generation counters track which retained
// fixpoints the snapshot flusher still owes to disk.
type dsState struct {
	mu    sync.Mutex
	g     *graph.Graph
	frags map[int]*entry[[]*graph.Fragment]
	log   []mutRecord
	warm  map[warmKey]*warmEntry
	refs  map[refKey]*entry[any]

	// Durable fields. key/wal/rec are set once during the state fill (before
	// the state is shared) and immutable after; warmGen/warmFlushed/warmHits
	// are guarded by mu like the cache itself.
	key         string       // "NAME@SCALE" store identity ("" = ephemeral)
	wal         *durable.WAL // nil when ephemeral
	rec         dsRecovery   // what startup recovery replayed for this dataset
	warmGen     uint64       // bumped by storeWarm
	warmFlushed uint64       // warmGen as of the last persisted snapshot
	warmHits    int64        // jobs that re-converged from a retained fixpoint
}

// noteWarmHit counts one job that seeded from a retained fixpoint, feeding
// the argan_dataset_warm_hits_total family.
func (ds *dsState) noteWarmHit() {
	ds.mu.Lock()
	ds.warmHits++
	ds.mu.Unlock()
}

type dataCache struct {
	mu     sync.Mutex
	graphs map[string]*entry[*graph.Graph]
	states map[dsKey]*entry[*dsState]

	// store is the durable state directory (nil = ephemeral service). Set
	// once before the cache is shared.
	store *durable.Store
}

// entry is a once-per-key fill slot: concurrent requesters block on the
// first loader instead of duplicating the build. done publishes the fill
// for readers that must not block on a slow loader (metrics collection,
// dataset listings): a false load means "still loading, skip".
type entry[T any] struct {
	once sync.Once
	done atomic.Bool
	val  T
	err  error
}

func newDataCache() dataCache {
	return dataCache{
		graphs: make(map[string]*entry[*graph.Graph]),
		states: make(map[dsKey]*entry[*dsState]),
	}
}

func (c *dataCache) graph(dataset string, scale float64) (*graph.Graph, error) {
	key := fmt.Sprintf("%s@%g", dataset, scale)
	c.mu.Lock()
	e := c.graphs[key]
	if e == nil {
		e = &entry[*graph.Graph]{}
		c.graphs[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		// LoadDataset memoizes and freezes internally (fingerprinted), so
		// this is the single base build for the server's lifetime.
		e.val, e.err = graph.LoadDataset(dataset, scale)
		e.done.Store(true)
	})
	return e.val, e.err
}

// dsName is the durable-store identity of a (dataset, scale); %g keeps the
// round trip through parseDSKey exact.
func dsName(dataset string, scale float64) string {
	return fmt.Sprintf("%s@%g", dataset, scale)
}

// state returns the versioned state for a (dataset, scale), loading the
// base graph (version 0) on first touch.
func (c *dataCache) state(dataset string, scale float64) (*dsState, error) {
	key := dsKey{dataset, scale}
	c.mu.Lock()
	e := c.states[key]
	if e == nil {
		e = &entry[*dsState]{}
		c.states[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer e.done.Store(true)
		g, err := c.graph(dataset, scale)
		if err != nil {
			e.err = err
			return
		}
		ds := &dsState{
			g:     g,
			frags: make(map[int]*entry[[]*graph.Fragment]),
			warm:  make(map[warmKey]*warmEntry),
			refs:  make(map[refKey]*entry[any]),
		}
		if c.store != nil {
			// Durable service: open the dataset's WAL, replay it on top of
			// the deterministic base, and reseed the warm cache from the
			// snapshot — one recovery path whether the state is touched at
			// startup (Open enumerates the store) or on first request.
			ds.key = dsName(dataset, scale)
			if err := ds.recoverDurable(c.store); err != nil {
				e.err = fmt.Errorf("recover %s: %w", ds.key, err)
				return
			}
		}
		e.val = ds
	})
	return e.val, e.err
}

// pinned is a job's immutable snapshot of a dataset at dispatch time: the
// graph and fragments of one version, plus the state handle for warm
// lookups. A concurrent Mutate swaps ds.g/ds.frags to the next version but
// never modifies what a pinned job holds.
type pinned struct {
	g       *graph.Graph
	frags   []*graph.Fragment
	version uint64
	ds      *dsState
}

// pin resolves the current version of a dataset for the given worker count,
// building (and caching) the fragment partition on first use per version.
func (c *dataCache) pin(dataset string, scale float64, workers int) (pinned, error) {
	ds, err := c.state(dataset, scale)
	if err != nil {
		return pinned{}, err
	}
	ds.mu.Lock()
	g := ds.g
	e := ds.frags[workers]
	if e == nil {
		e = &entry[[]*graph.Fragment]{}
		ds.frags[workers] = e
	}
	ds.mu.Unlock()
	if err := g.CheckFrozen(); err != nil {
		// The frozen-fragment safety net: a writer that mutated the shared
		// graph in place (instead of copying through ApplyMutations) is
		// detected before any job computes over poisoned data.
		return pinned{}, fmt.Errorf("dataset %s@%g: %w", dataset, scale, err)
	}
	e.once.Do(func() {
		env := core.Env{Workers: workers}
		e.val, e.err = env.Fragments(g)
	})
	if e.err != nil {
		return pinned{}, e.err
	}
	return pinned{g: g, frags: e.val, version: g.Version(), ds: ds}, nil
}

// mutate applies one batch to the current version of a dataset, swapping in
// the new graph and COW-updated fragment partitions. expect, when non-nil,
// is an optimistic-concurrency guard: the mutation only applies if the
// current version matches (mismatch returns graph.ErrVersionMismatch).
// Returns the old/new versions plus re-derived (patched) and shared fragment
// counts summed over the cached worker counts.
func (c *dataCache) mutate(dataset string, scale float64, b graph.MutationBatch, expect *uint64) (*MutateResult, error) {
	ds, err := c.state(dataset, scale)
	if err != nil {
		return nil, err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()

	old := ds.g
	if expect != nil && *expect != old.Version() {
		return nil, fmt.Errorf("%w: dataset %s@%g is at version %d, request expects %d",
			graph.ErrVersionMismatch, dataset, scale, old.Version(), *expect)
	}
	if err := old.CheckFrozen(); err != nil {
		return nil, fmt.Errorf("dataset %s@%g: %w", dataset, scale, err)
	}
	ng, _, err := old.ApplyMutations(b)
	if err != nil {
		return nil, err
	}
	ng.Freeze()

	touched := b.Endpoints()
	res := &MutateResult{
		Dataset: dataset, Scale: scale,
		OldVersion: old.Version(), NewVersion: ng.Version(),
		Inserts: len(b.Inserts), Deletes: len(b.Deletes),
	}
	nfrags := make(map[int]*entry[[]*graph.Fragment], len(ds.frags))
	for workers, e := range ds.frags {
		if e.err != nil {
			continue // a failed partition build is not carried forward
		}
		// Force the fill if a pin is racing us: entry.once makes this the
		// same value the pinned job got.
		e.once.Do(func() {
			env := core.Env{Workers: workers}
			e.val, e.err = env.Fragments(ds.g)
		})
		if e.err != nil {
			continue
		}
		nfs, derived, err := graph.UpdateFragments(e.val, ng, touched)
		if err != nil {
			return nil, err
		}
		ne := &entry[[]*graph.Fragment]{val: nfs}
		ne.once.Do(func() {}) // mark filled
		ne.done.Store(true)
		nfrags[workers] = ne
		res.RebuiltFragments += len(derived)
		res.SharedFragments += workers - len(derived)
	}
	if ds.wal != nil {
		// Durability point: the batch is appended and fsynced as the LAST
		// fallible step before the in-memory swap. An append failure leaves
		// both memory and disk at the old version; once Append returns, the
		// acknowledged version is provably on disk. The frozen fingerprint
		// rides along so restart replay can verify each reconstructed
		// version bit-for-bit.
		fp, _ := ng.FrozenFingerprint()
		if err := ds.wal.Append(durable.Record{Version: ng.Version(), Fingerprint: fp, Batch: b}); err != nil {
			return nil, fmt.Errorf("dataset %s@%g: wal append: %w", dataset, scale, err)
		}
	}
	ds.g = ng
	ds.frags = nfrags
	ds.log = append(ds.log, mutRecord{version: ng.Version(), touched: touched})
	if len(ds.log) > maxMutLog {
		ds.log = ds.log[len(ds.log)-maxMutLog:]
	}
	return res, nil
}

// warmFor returns the retained fixpoint for a query key together with the
// union of vertices touched between its version and the pinned one. A nil
// entry with empty fallback means a cold first run; a nil entry with a
// fallback reason means a fixpoint existed but cannot be bridged (the job
// must full-recompute and flag it).
func (ds *dsState) warmFor(wk warmKey, version uint64) (*warmEntry, []graph.VID, string) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	e := ds.warm[wk]
	if e == nil {
		return nil, nil, ""
	}
	if e.version == version {
		// Same version: nothing changed, so a warm start would trivially
		// return the retained values without exercising the engine (and
		// without honoring per-job fault plans). Run cold instead — the
		// incremental path only engages across a real version bump.
		return nil, nil, ""
	}
	if e.version > version {
		// The fixpoint is from a newer version than the pinned graph (a
		// mutate landed between pin and warm lookup, then a faster job
		// refreshed the entry). Re-converging backwards is unsound.
		return nil, nil, fmt.Sprintf("fixpoint at version %d is newer than pinned version %d", e.version, version)
	}
	seen := make(map[graph.VID]struct{})
	var touched []graph.VID
	need := e.version + 1
	for _, rec := range ds.log {
		if rec.version <= e.version || rec.version > version {
			continue
		}
		if rec.version != need {
			break // hole in the retained log
		}
		need++
		for _, v := range rec.touched {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				touched = append(touched, v)
			}
		}
	}
	if need != version+1 {
		return nil, nil, fmt.Sprintf("mutation log no longer covers versions %d..%d", e.version+1, version)
	}
	return e, touched, ""
}

// storeWarm retains a completed fixpoint for later warm starts, never
// regressing to an older version.
func (ds *dsState) storeWarm(wk warmKey, e *warmEntry) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if cur := ds.warm[wk]; cur == nil || cur.version <= e.version {
		ds.warm[wk] = e
		// The snapshot flusher owes this state to disk now; the generation
		// counter (not a bool) means a store landing mid-flush keeps the
		// dataset dirty instead of being masked by the flush completing.
		ds.warmGen++
	}
}

// reference returns the cached sequential answer for a (query, version),
// computing it on first use. The stored value's concrete type is
// app-dependent; the typed runners in job.go assert it back.
func (ds *dsState) reference(key refKey, compute func() any) any {
	ds.mu.Lock()
	e := ds.refs[key]
	if e == nil {
		e = &entry[any]{}
		ds.refs[key] = e
		// References for superseded versions are dead weight: keep only the
		// entries still reachable by pinned jobs (a small trailing window).
		for k := range ds.refs {
			if k.version+4 <= key.version {
				delete(ds.refs, k)
			}
		}
	}
	ds.mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// dsHandle pairs a materialized state with its cache key.
type dsHandle struct {
	key dsKey
	ds  *dsState
}

// materialized snapshots the filled dataset states, sorted by (dataset,
// scale) so every consumer — the API listing, the metric families, the
// snapshot flusher — iterates deterministically.
func (c *dataCache) materialized() []dsHandle {
	c.mu.Lock()
	keys := make([]dsKey, 0, len(c.states))
	for k := range c.states {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dataset != keys[j].dataset {
			return keys[i].dataset < keys[j].dataset
		}
		return keys[i].scale < keys[j].scale
	})
	out := make([]dsHandle, 0, len(keys))
	for _, k := range keys {
		e := c.states[k]
		if !e.done.Load() || e.val == nil {
			continue // still loading or failed
		}
		out = append(out, dsHandle{key: k, ds: e.val})
	}
	c.mu.Unlock()
	return out
}

// versions lists the datasets the cache has materialized, for the API.
func (c *dataCache) versions() []DatasetInfo {
	var out []DatasetInfo
	for _, h := range c.materialized() {
		h.ds.mu.Lock()
		out = append(out, DatasetInfo{
			Dataset: h.key.dataset, Scale: h.key.scale,
			Version:  h.ds.g.Version(),
			Vertices: h.ds.g.NumVertices(), Edges: h.ds.g.NumEdges(),
		})
		h.ds.mu.Unlock()
	}
	return out
}

// dsMetric is one dataset's sample for the per-dataset metric families.
type dsMetric struct {
	dataset  string
	scale    float64
	version  uint64
	warmHits int64
}

// dsMetrics samples every materialized dataset for /metrics, in the same
// deterministic order as versions().
func (c *dataCache) dsMetrics() []dsMetric {
	var out []dsMetric
	for _, h := range c.materialized() {
		h.ds.mu.Lock()
		out = append(out, dsMetric{
			dataset: h.key.dataset, scale: h.key.scale,
			version: h.ds.g.Version(), warmHits: h.ds.warmHits,
		})
		h.ds.mu.Unlock()
	}
	return out
}
