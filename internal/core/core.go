// Package core is the Argan engine facade: it assembles the graph
// substrate, partitioner, network model, GAP runtime and adaptive
// granularity into one entry point, and exposes typed runners for the
// built-in graph applications.
package core

import (
	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/netsim"
	"argan/internal/partition"
)

// Env describes the (simulated) cluster a query runs on.
type Env struct {
	// Workers is the number of workers n (default 16).
	Workers int
	// Partitioner splits the graph (default partition.Hash).
	Partitioner partition.Partitioner
	// Net is the interconnect model (default netsim.DefaultCostModel).
	Net *netsim.Network
	// Hetero is the execution-noise amplitude modeling a multi-tenant
	// cluster (default 0; the benchmark harness uses 1.2).
	Hetero float64
}

func (e Env) withDefaults() Env {
	if e.Workers <= 0 {
		e.Workers = 16
	}
	if e.Partitioner == nil {
		e.Partitioner = partition.Hash{}
	}
	if e.Net == nil {
		e.Net = netsim.NewNetwork(netsim.DefaultCostModel(), 1)
	}
	return e
}

// Fragments partitions g according to the environment.
func (e Env) Fragments(g *graph.Graph) ([]*graph.Fragment, error) {
	e = e.withDefaults()
	return partition.Partition(g, e.Partitioner, e.Workers)
}

// Config returns the engine configuration for this environment merged with
// the given mode/adaptation choice.
func (e Env) Config(mode gap.Mode, policy adapt.Policy) gap.Config {
	e = e.withDefaults()
	return gap.Config{Mode: mode, Adapt: policy, Net: e.Net, Hetero: e.Hetero}
}

// DefaultConfig is the Argan default: GAP with GAwD adjustment.
func (e Env) DefaultConfig() gap.Config { return e.Config(gap.ModeGAP, adapt.PolicyGAwD) }

// Result pairs a typed per-vertex answer with run metrics.
type Result[V any] struct {
	Values  []V
	Metrics gap.Metrics
}

func run[V any](g *graph.Graph, env Env, cfg gap.Config, factory ace.Factory[V], q ace.Query) (*Result[V], error) {
	frags, err := env.Fragments(g)
	if err != nil {
		return nil, err
	}
	res, err := gap.RunSim(frags, factory, q, cfg)
	if err != nil {
		return nil, err
	}
	return &Result[V]{Values: res.Values, Metrics: res.Metrics}, nil
}

// SSSP computes single-source shortest paths (parallelized Dijkstra) from
// src. Unreachable vertices get +Inf.
func SSSP(g *graph.Graph, src graph.VID, env Env, cfg gap.Config) (*Result[float64], error) {
	return run(g, env, cfg, algorithms.NewSSSP(), ace.Query{Source: src})
}

// BFS computes hop distances from src (MaxInt32 when unreachable).
func BFS(g *graph.Graph, src graph.VID, env Env, cfg gap.Config) (*Result[int32], error) {
	return run(g, env, cfg, algorithms.NewBFS(), ace.Query{Source: src})
}

// WCC labels weakly connected components by their minimum vertex id.
func WCC(g *graph.Graph, env Env, cfg gap.Config) (*Result[uint32], error) {
	return run(g, env, cfg, algorithms.NewWCC(), ace.Query{})
}

// Color computes a greedy graph coloring (parallelized Welsh–Powell with id
// priority).
func Color(g *graph.Graph, env Env, cfg gap.Config) (*Result[int32], error) {
	return run(g, env, cfg, algorithms.NewColor(), ace.Query{})
}

// PageRank computes Δ-based accumulative PageRank with pending-delta
// threshold eps (algorithms.DefaultPREps when <= 0).
func PageRank(g *graph.Graph, eps float64, env Env, cfg gap.Config) (*Result[float64], error) {
	return run(g, env, cfg, algorithms.NewPageRank(), ace.Query{Eps: eps})
}

// CoreDecomposition computes the coreness of every vertex (h-index
// iteration).
func CoreDecomposition(g *graph.Graph, env Env, cfg gap.Config) (*Result[int32], error) {
	return run(g, env, cfg, algorithms.NewCore(), ace.Query{})
}

// Simulation computes the graph-simulation relation of the labeled pattern.
func Simulation(g *graph.Graph, pattern *graph.Graph, env Env, cfg gap.Config) (*Result[algorithms.SimSet], error) {
	return run(g, env, cfg, algorithms.NewSim(), ace.Query{Pattern: pattern})
}

// Outcome is one sim run of an application: its metrics and its answer.
type Outcome struct {
	gap.Metrics
	// Summary renders the answer through its row's algorithms.App.Summary;
	// k bounds the vertices it lists.
	Summary func(k int) string
}

// Job is one application of algorithms' table bound for sim runs: the query
// fields it reads and its run over pre-built fragments. The benchmark harness
// and the CLI drive every app through this type, so they need not be generic
// over the programs' value types.
type Job struct {
	Reads algorithms.Reads
	Run   func(frags []*graph.Fragment, q ace.Query, cfg gap.Config) (Outcome, error)
}

func jobOf[V any](naive bool) func(*algorithms.App[V]) (Job, error) {
	return func(app *algorithms.App[V]) (Job, error) {
		factory := app.Factory
		if naive && app.Naive != nil {
			factory = app.Naive
		}
		return Job{Reads: app.Reads, Run: func(frags []*graph.Fragment, q ace.Query, cfg gap.Config) (Outcome, error) {
			res, err := gap.RunSim(frags, factory, q, cfg)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Metrics: res.Metrics, Summary: func(k int) string { return app.Summary(res.Values, q, k) }}, nil
		}}, nil
	}
}

// JobFor resolves an application of algorithms' table to a Job. naive selects
// the row's variant for the synchronous vertex-centric systems, where it has
// one.
func JobFor(app string, naive bool) (Job, error) {
	return algorithms.Dispatch(app,
		jobOf[float64](naive), jobOf[int32](naive), jobOf[uint32](naive), jobOf[algorithms.SimSet](naive))
}
