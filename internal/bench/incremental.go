package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/gap"
	"argan/internal/graph"
)

// incWorkers is the live worker count for the incremental experiment; like
// perf, the live driver spawns real goroutines so this stays small.
const incWorkers = 4

// incChurnFrac is the per-round churn: 1% of the arcs are mutated (half
// deleted, half replaced by fresh inserts), matching the acceptance setup.
const incChurnFrac = 0.01

// incRatioTarget is the acceptance bar: re-convergence from the retained
// fixpoint must cost less than this fraction of a full recompute's wall
// clock for PageRank and SSSP.
const incRatioTarget = 0.25

// IncrementalRound is one churn round of one application: the full
// recompute on the new version versus re-convergence from the previous
// version's fixpoint, both best-of-reps, both verified against the
// sequential reference on the new version.
type IncrementalRound struct {
	Version          uint64  `json:"version"`
	ChurnOps         int     `json:"churn_ops"`
	TouchedVertices  int     `json:"touched_vertices"`
	RebuiltFragments int     `json:"rebuilt_fragments"`
	RecomputeMS      float64 `json:"recompute_ms"`
	IncrementalMS    float64 `json:"incremental_ms"`
	Ratio            float64 `json:"ratio"`
	Verified         bool    `json:"verified"`
}

// IncrementalAppResult aggregates one application across the churn chain.
type IncrementalAppResult struct {
	App         string             `json:"app"`
	ColdMS      float64            `json:"cold_ms"`
	Rounds      []IncrementalRound `json:"rounds"`
	MeanRatio   float64            `json:"mean_ratio"`
	RatioTarget float64            `json:"ratio_target"`
	// Enforced marks the apps whose MeanRatio is an acceptance bar
	// (PageRank and SSSP); the others are reported for the record.
	Enforced bool `json:"enforced"`
	RatioMet bool `json:"ratio_met"`
}

// IncrementalReport is the machine-readable result, written to
// Options.JSONPath (BENCH_incremental.json in CI).
type IncrementalReport struct {
	Experiment string  `json:"experiment"`
	Vertices   int     `json:"vertices"`
	Arcs       int     `json:"arcs"`
	Workers    int     `json:"workers"`
	ChurnFrac  float64 `json:"churn_frac"`
	Rounds     int     `json:"rounds"`
	Reps       int     `json:"reps"`

	Apps []IncrementalAppResult `json:"apps"`
}

// incVersion is one version of the evolving benchmark graph: the frozen
// graph, its COW-updated fragments, and the batch that produced it.
type incVersion struct {
	g        *graph.Graph
	frags    []*graph.Fragment
	touched  []graph.VID
	rebuilt  int
	churnOps int
}

// incVersions builds the evolving chain v0..v_rounds once, shared by every
// application: each step applies one churn batch and COW-updates the
// fragment partitions.
func incVersions(nv, rounds int) ([]incVersion, error) {
	g := graph.PowerLaw(graph.GenConfig{
		N: nv, M: 12 * nv, Directed: true, Alpha: 2.5, Seed: 7, MaxW: 100, Labels: 16,
	})
	env := core.Env{Workers: incWorkers}
	frags, err := env.Fragments(g)
	if err != nil {
		return nil, err
	}
	vs := []incVersion{{g: g, frags: frags}}
	for r := 0; r < rounds; r++ {
		cur := vs[len(vs)-1]
		b := graph.Churn(cur.g, int64(1000+r), max(1, int(float64(cur.g.NumEdges())*incChurnFrac/2)))
		ng, _, err := cur.g.ApplyMutations(b)
		if err != nil {
			return nil, err
		}
		touched := b.Endpoints()
		nfs, rebuilt, err := graph.UpdateFragments(cur.frags, ng, touched)
		if err != nil {
			return nil, err
		}
		vs = append(vs, incVersion{
			g: ng, frags: nfs, touched: touched,
			rebuilt: len(rebuilt), churnOps: b.Size(),
		})
	}
	return vs, nil
}

// measureIncremental runs one application down the version chain: a cold
// fixpoint on v0, then per round a full recompute and a warm re-convergence
// (planner included in the timed window), both best-of-reps. The warm run's
// answer is verified against the sequential reference on that version, and
// its fixpoint becomes the prior for the next round — so the chain measures
// repeated increments, not one.
func measureIncremental[V any](vs []incVersion, reps int, q ace.Query, cfg gap.LiveConfig,
	enforced bool) func(*algorithms.App[V]) (IncrementalAppResult, error) {
	return func(app *algorithms.App[V]) (IncrementalAppResult, error) {
		ar := IncrementalAppResult{App: app.Name, RatioTarget: incRatioTarget, Enforced: enforced}
		timed := func(run func() (*gap.Result[V], error)) (*gap.Result[V], float64, error) {
			var best float64
			var last *gap.Result[V]
			for k := 0; k < reps; k++ {
				t0 := time.Now()
				res, err := run()
				if err != nil {
					return last, 0, err
				}
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if best == 0 || ms < best {
					best = ms
				}
				last = res
			}
			return last, best, nil
		}

		prior, cold, err := timed(func() (*gap.Result[V], error) {
			res, _, err := gap.RunLive(vs[0].frags, app.Factory, q, cfg)
			return res, err
		})
		if err != nil {
			return ar, fmt.Errorf("%s cold: %w", app.Name, err)
		}
		ar.ColdMS = cold
		if wrong := app.Wrong(prior.Values, app.Ref(vs[0].g, q)); wrong > 0 {
			return ar, fmt.Errorf("%s cold fixpoint diverged: %d wrong", app.Name, wrong)
		}

		var sumRatio float64
		for i := 1; i < len(vs); i++ {
			v := vs[i]
			_, recompute, err := timed(func() (*gap.Result[V], error) {
				res, _, err := gap.RunLive(v.frags, app.Factory, q, cfg)
				return res, err
			})
			if err != nil {
				return ar, fmt.Errorf("%s recompute v%d: %w", app.Name, i, err)
			}
			warm, inc, err := timed(func() (*gap.Result[V], error) {
				wq := q
				wq.Warm = app.Warm(vs[i-1].g, v.g, v.touched, prior.Psi, prior.Values, q)
				res, _, err := gap.RunLive(v.frags, app.Factory, wq, cfg)
				return res, err
			})
			if err != nil {
				return ar, fmt.Errorf("%s incremental v%d: %w", app.Name, i, err)
			}
			wrong := app.Wrong(warm.Values, app.Ref(v.g, q))
			round := IncrementalRound{
				Version: v.g.Version(), ChurnOps: v.churnOps,
				TouchedVertices: len(v.touched), RebuiltFragments: v.rebuilt,
				RecomputeMS: recompute, IncrementalMS: inc,
				Ratio: inc / recompute, Verified: wrong == 0,
			}
			ar.Rounds = append(ar.Rounds, round)
			if wrong > 0 {
				return ar, fmt.Errorf("%s increment to v%d diverged from sequential reference: %d wrong", app.Name, i, wrong)
			}
			sumRatio += round.Ratio
			prior = warm
		}
		ar.MeanRatio = sumRatio / float64(len(ar.Rounds))
		ar.RatioMet = ar.MeanRatio < ar.RatioTarget
		return ar, nil
	}
}

// Incremental benchmarks re-convergence over an evolving power-law graph:
// a chain of 1%-churn batches applied through ApplyMutations + COW fragment
// updates, each version solved both from scratch and from the previous
// fixpoint via the per-application warm planners. Every warm answer is
// verified against the sequential reference on its version; the acceptance
// bar is incremental < 25% of recompute wall clock for PageRank and SSSP.
func Incremental(o Options) error {
	o = o.withDefaults()
	nv := int(20000 * o.Scale * 10)
	if nv < 4000 {
		nv = 4000
	}
	reps := o.Queries
	if reps < 3 {
		reps = 3
	}
	const rounds = 3
	vs, err := incVersions(nv, rounds)
	if err != nil {
		return err
	}
	g0 := vs[0].g
	rep := IncrementalReport{
		Experiment: "incremental",
		Vertices:   g0.NumVertices(), Arcs: g0.NumEdges(),
		Workers: incWorkers, ChurnFrac: incChurnFrac,
		Rounds: rounds, Reps: reps,
	}
	cfg := gap.LiveConfig{Mode: gap.ModeGAP, CheckEvery: 64}
	q := ace.Query{Source: pickSource(g0), Eps: 1e-3}

	fmt.Fprintf(o.Out, "== incremental: re-convergence after %.0f%% churn vs full recompute (power-law |V|=%d, arcs=%d, n=%d, reps=%d) ==\n",
		100*incChurnFrac, g0.NumVertices(), g0.NumEdges(), incWorkers, reps)

	// PageRank and SSSP carry the acceptance bar; BFS and WCC are reported
	// for the record.
	for _, a := range []struct {
		app      string
		enforced bool
	}{{"pr", true}, {"sssp", true}, {"bfs", false}, {"wcc", false}} {
		res, err := algorithms.DispatchLive(a.app,
			measureIncremental[float64](vs, reps, q, cfg, a.enforced),
			measureIncremental[int32](vs, reps, q, cfg, a.enforced),
			measureIncremental[uint32](vs, reps, q, cfg, a.enforced))
		if err != nil {
			return err
		}
		rep.Apps = append(rep.Apps, res)
	}

	fmt.Fprintf(o.Out, "%-6s %10s %12s %14s %8s %8s\n", "app", "cold ms", "recompute ms", "incremental ms", "ratio", "met")
	for _, a := range rep.Apps {
		var rms, ims float64
		for _, r := range a.Rounds {
			rms += r.RecomputeMS
			ims += r.IncrementalMS
		}
		met := "-"
		if a.Enforced {
			met = fmt.Sprintf("%v", a.RatioMet)
		}
		fmt.Fprintf(o.Out, "%-6s %10.1f %12.1f %14.1f %7.1f%% %8s\n",
			a.App, a.ColdMS, rms/float64(len(a.Rounds)), ims/float64(len(a.Rounds)), 100*a.MeanRatio, met)
	}

	if o.JSONPath != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.JSONPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "wrote %s\n", o.JSONPath)
	}
	for _, a := range rep.Apps {
		if a.Enforced && !a.RatioMet {
			return fmt.Errorf("%w: incremental: %s mean ratio %.1f%% misses the %.0f%% target",
				ErrGate, a.App, 100*a.MeanRatio, 100*incRatioTarget)
		}
	}
	return nil
}
