// Package core is the Argan engine facade: it assembles the graph
// substrate, partitioner, network model, GAP runtime and adaptive
// granularity into one entry point, and exposes typed runners for the
// built-in graph applications.
package core

import (
	"fmt"

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

// Job runs an application over pre-built fragments and returns only the
// metrics; the benchmark harness drives everything through this type so it
// can be generic over the value types of the programs.
type Job func(frags []*graph.Fragment, q ace.Query, cfg gap.Config) (gap.Metrics, error)

func jobOf[V any](factory ace.Factory[V]) Job {
	return func(frags []*graph.Fragment, q ace.Query, cfg gap.Config) (gap.Metrics, error) {
		res, err := gap.RunSim(frags, factory, q, cfg)
		if err != nil {
			return gap.Metrics{}, err
		}
		return res.Metrics, nil
	}
}

// LiveJob is Job's counterpart under the live driver: one run under cfg,
// returning the driver metrics and the number of vertices that differ from
// the application's sequential reference.
type LiveJob func(cfg gap.LiveConfig) (*gap.LiveMetrics, int, error)

func liveJobOf[V any](g *graph.Graph, frags []*graph.Fragment, source int, eps float64) func(*algorithms.LiveApp[V]) (LiveJob, error) {
	return func(app *algorithms.LiveApp[V]) (LiveJob, error) {
		if err := app.CheckSource(source, g.NumVertices()); err != nil {
			return nil, err
		}
		q := ace.Query{Source: graph.VID(source), Eps: eps}
		want := app.Ref(g, q)
		return func(cfg gap.LiveConfig) (*gap.LiveMetrics, int, error) {
			res, lm, err := gap.RunLive(frags, app.Factory, q, cfg)
			if err != nil {
				return nil, 0, err
			}
			return lm, app.Wrong(res.Values, want), nil
		}, nil
	}
}

// LiveJobFor resolves a live application (algorithms.LiveAppNames) to a
// LiveJob over g's fragments, computing the sequential reference once.
func LiveJobFor(app string, g *graph.Graph, frags []*graph.Fragment, source int, eps float64) (LiveJob, error) {
	return algorithms.DispatchLive(app,
		liveJobOf[float64](g, frags, source, eps), liveJobOf[int32](g, frags, source, eps), liveJobOf[uint32](g, frags, source, eps))
}

// Apps lists the application names accepted by JobFor, in the paper's
// order.
func Apps() []string { return []string{"sssp", "color", "pr", "core", "sim"} }

// JobFor resolves an application name to a Job. naiveColor selects the
// symmetric greedy coloring used by the vertex-centric competitors.
func JobFor(app string, naiveColor bool) (Job, error) {
	switch app {
	case "sssp":
		return jobOf(algorithms.NewSSSP()), nil
	case "bellman-ford":
		return jobOf(algorithms.NewBellmanFord()), nil
	case "bfs":
		return jobOf(algorithms.NewBFS()), nil
	case "wcc":
		return jobOf(algorithms.NewWCC()), nil
	case "color":
		if naiveColor {
			return jobOf(algorithms.NewNaiveColor()), nil
		}
		return jobOf(algorithms.NewColor()), nil
	case "pr":
		return jobOf(algorithms.NewPageRank()), nil
	case "core":
		return jobOf(algorithms.NewCore()), nil
	case "sim":
		return jobOf(algorithms.NewSim()), nil
	}
	return nil, fmt.Errorf("core: unknown application %q", app)
}
