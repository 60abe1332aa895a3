// Package argan is the public API of Argan-Go, a reproduction of "Graph
// Computation with Adaptive Granularity" (ICDE 2024): a parallel graph
// engine built on the ACE programming model (graph-centric computation
// decomposed into per-vertex update functions) and the GAP parallel model
// (asynchronous execution whose computation/communication granularity is
// adjusted at runtime by maximizing computation effectiveness).
//
// # Quick start
//
//	g := argan.PowerLaw(argan.GenConfig{N: 100_000, M: 1_400_000, Directed: true, Seed: 1, MaxW: 100})
//	env := argan.Env{Workers: 16}
//	res, err := argan.SSSP(g, 0, env, env.DefaultConfig())
//	// res.Values[v] is the distance of v; res.Metrics carries the run's
//	// response time, staleness (T_w), communication (T_c) and adjustment
//	// (T_a) costs.
//
// Two drivers execute the same programs: the deterministic virtual-time
// cluster simulator (used by every experiment; see RunSim-based runners
// here) and a goroutine-per-worker live driver (LiveSSSP and friends).
//
// The engine, programming model, algorithms, baseline systems and the
// benchmark harness that regenerates every table and figure of the paper
// live under internal/; this package re-exports the surface a downstream
// user needs.
package argan

import (
	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/netsim"
	"argan/internal/obs"
	"argan/internal/partition"
)

// Graph construction and generation.
type (
	// Graph is an immutable CSR graph; build one with NewBuilder or a
	// generator.
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// VID is a vertex identifier (dense, 0-based).
	VID = graph.VID
	// GenConfig parameterizes the synthetic generators.
	GenConfig = graph.GenConfig
	// Fragment is one worker's share of a partitioned graph.
	Fragment = graph.Fragment
)

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder { return graph.NewBuilder(n, directed) }

// Generators (see internal/graph for details).
var (
	PowerLaw      = graph.PowerLaw
	Uniform       = graph.Uniform
	RMAT          = graph.RMAT
	Grid          = graph.Grid
	KnowledgeBase = graph.KnowledgeBase
	Chain         = graph.Chain
	Star          = graph.Star
	LoadDataset   = graph.LoadDataset
	DatasetNames  = graph.DatasetNames
	ReadEdgeList  = graph.ReadEdgeList
	WriteEdgeList = graph.WriteEdgeList
	ReadBinary    = graph.ReadBinary
	WriteBinary   = graph.WriteBinary
	// RelabelByDegree reorders vertex ids in descending degree order; with
	// it the id-priority coloring is exactly Welsh–Powell.
	RelabelByDegree = graph.RelabelByDegree
	// ComputeStats measures size, degree skew, tail exponent and giant
	// component of a graph.
	ComputeStats = graph.ComputeStats
)

// GraphStats summarizes structural graph properties.
type GraphStats = graph.Stats

// Partitioners.
type (
	// Partitioner assigns vertices to workers.
	Partitioner = partition.Partitioner
	// HashPartitioner spreads vertices by hashed id (the default).
	HashPartitioner = partition.Hash
	// RangePartitioner slices the id space contiguously.
	RangePartitioner = partition.Range
	// GreedyPartitioner is the LDG-style streaming partitioner.
	GreedyPartitioner = partition.Greedy
)

// Engine configuration.
type (
	// Env describes the (simulated) cluster.
	Env = core.Env
	// Config parameterizes one engine run.
	Config = gap.Config
	// Metrics is the accounting of a run (response time, T_w, T_c, T_a, φ).
	Metrics = gap.Metrics
	// Mode selects the parallel model.
	Mode = gap.Mode
	// AdaptPolicy selects the granularity-adjustment algorithm.
	AdaptPolicy = adapt.Policy
	// Query carries per-run inputs (source vertex, threshold, pattern).
	Query = ace.Query
	// CostModel is the interconnect cost function T_B.
	CostModel = netsim.CostModel
)

// Parallel models (BSP, AP and AAP are special cases of GAP, §II-B).
const (
	ModeGAP         = gap.ModeGAP
	ModeBSP         = gap.ModeBSP
	ModeBSPVC       = gap.ModeBSPVC
	ModeAPGC        = gap.ModeAPGC
	ModeAPVC        = gap.ModeAPVC
	ModeAAP         = gap.ModeAAP
	ModePowerSwitch = gap.ModePowerSwitch
)

// Granularity-adjustment policies (§III).
const (
	AdaptFixed = adapt.PolicyFixed
	AdaptGA    = adapt.PolicyGA
	AdaptGAwD  = adapt.PolicyGAwD
)

// Typed results.
type (
	// FloatResult is a per-vertex float64 answer plus metrics.
	FloatResult = core.Result[float64]
	// IntResult is a per-vertex int32 answer plus metrics.
	IntResult = core.Result[int32]
	// SimSet is graph simulation's per-vertex pattern bitmask.
	SimSet = algorithms.SimSet
)

// Built-in applications under the virtual-time driver.
var (
	// SSSP computes single-source shortest paths (parallelized Dijkstra).
	SSSP = core.SSSP
	// BFS computes hop distances.
	BFS = core.BFS
	// WCC labels weakly connected components.
	WCC = core.WCC
	// Color computes a greedy coloring (parallelized Welsh–Powell).
	Color = core.Color
	// PageRank computes Δ-based accumulative PageRank.
	PageRank = core.PageRank
	// CoreDecomposition computes per-vertex coreness.
	CoreDecomposition = core.CoreDecomposition
	// Simulation computes the graph-simulation relation of a pattern.
	Simulation = core.Simulation
	// RandomPattern samples a labeled query pattern from a graph.
	RandomPattern = algorithms.RandomPattern
)

// MSTEdge is one selected minimum-spanning-forest edge.
type MSTEdge = algorithms.MSTEdge

// MST computes the minimum spanning forest with parallel Borůvka: one ACE
// query per round over the environment's fragments, hooking at the
// coordinator. It returns the forest edges, total weight and round count.
func MST(g *Graph, env Env, cfg Config) ([]MSTEdge, float64, int, error) {
	frags, err := env.Fragments(g)
	if err != nil {
		return nil, 0, 0, err
	}
	return core.MST(g, frags, cfg)
}

// The ACE programming model, re-exported so downstream users can write
// their own programs (§IV: model the batch algorithm as fixpoint
// iterations of per-vertex update functions, and the engine runs it at any
// granularity under any parallel model).
type (
	// Program is a user-defined ACE program over status variables of type V.
	Program[V any] interface{ ace.Program[V] }
	// Ctx is the engine-provided context update functions work through.
	Ctx[V any] = ace.Ctx[V]
	// Factory builds one program instance per worker.
	Factory[V any] func() Program[V]
	// Category classifies the staleness behaviour (CategoryI/II/III).
	Category = ace.Category
	// DepKind declares the inputs Y_xv of the update function.
	DepKind = ace.DepKind
)

// Staleness categories (§III-C) and dependency kinds for user programs.
const (
	CategoryI   = ace.CategoryI
	CategoryII  = ace.CategoryII
	CategoryIII = ace.CategoryIII

	DepIn   = ace.DepIn
	DepOut  = ace.DepOut
	DepSelf = ace.DepSelf
	DepBoth = ace.DepBoth
)

// Run executes a user-defined ACE program over g under the virtual-time
// driver, returning per-vertex outputs (indexed by global id) and metrics.
func Run[V any](g *Graph, env Env, cfg Config, factory Factory[V], q Query) ([]V, Metrics, error) {
	frags, err := env.Fragments(g)
	if err != nil {
		return nil, Metrics{}, err
	}
	res, err := gap.RunSim(frags, func() ace.Program[V] { return factory() }, q, cfg)
	if err != nil {
		return nil, Metrics{}, err
	}
	return res.Values, res.Metrics, nil
}

// RunSequential executes a user-defined ACE program sequentially over the
// whole graph — the §IV batch algorithm A the program was derived from.
// Use it as the ground truth when validating a new program.
func RunSequential[V any](g *Graph, factory Factory[V], q Query) ([]V, error) {
	out, _, err := gap.RunSequential(g, func() ace.Program[V] { return factory() }, q)
	return out, err
}

// Tracer is the observability hook accepted by Config.Tracer and
// LiveConfig.Tracer; Recorder is the ring-buffered implementation that
// exports Chrome traces (Perfetto-loadable) and CSV time series and serves
// live progress snapshots. See internal/obs for the event model.
type (
	Tracer       = obs.Tracer
	Recorder     = obs.Recorder
	TraceStatus  = obs.Status
	WorkerStatus = obs.WorkerStatus
)

// NewRecorder builds a trace recorder for the given worker count (workers
// beyond it are added lazily); eventsPerWorker <= 0 selects the default
// per-worker ring capacity.
func NewRecorder(workers, eventsPerWorker int) *Recorder {
	return obs.NewRecorder(workers, eventsPerWorker)
}

// LiveConfig parameterizes the goroutine-based driver.
type LiveConfig = gap.LiveConfig

// LiveMetrics summarizes a live (goroutine) run.
type LiveMetrics = gap.LiveMetrics

// LiveSSSP runs SSSP under the goroutine-per-worker driver.
func LiveSSSP(g *Graph, src VID, workers int, cfg LiveConfig) ([]float64, *LiveMetrics, error) {
	frags, err := (Env{Workers: workers}).Fragments(g)
	if err != nil {
		return nil, nil, err
	}
	res, m, err := gap.RunLive(frags, algorithms.NewSSSP(), Query{Source: src}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Values, m, nil
}

// LivePageRank runs Δ-PageRank under the goroutine-per-worker driver.
func LivePageRank(g *Graph, eps float64, workers int, cfg LiveConfig) ([]float64, *LiveMetrics, error) {
	frags, err := (Env{Workers: workers}).Fragments(g)
	if err != nil {
		return nil, nil, err
	}
	res, m, err := gap.RunLive(frags, algorithms.NewPageRank(), Query{Eps: eps}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Values, m, nil
}
