// Package bench regenerates every table and figure of the paper's
// evaluation (§VI): Table I's execution traces, Fig. 4's granularity-
// adjustment study, Fig. 5's cross-system comparison, and Fig. 6's
// parallel-model/scalability study. Each experiment is addressable by the
// paper's label ("fig6a", ...) and prints the same rows/series the paper
// reports. Absolute numbers are virtual cost units of the simulated
// cluster; the shapes (who wins, by what factor, where crossovers fall) are
// the reproduction target.
package bench

import (
	"errors"
	"fmt"
	"io"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/obs"
	"argan/internal/systems"
)

// Options tunes an experiment run.
type Options struct {
	// Out receives the rendered rows (defaults to io.Discard-like noop if
	// nil users pass os.Stdout from the CLI).
	Out io.Writer
	// Scale shrinks the dataset stand-ins further (1 = the default reduced
	// size, see internal/graph). Quick mode uses a small scale so the whole
	// suite runs in seconds.
	Scale float64
	// Workers overrides the per-figure default worker counts (nil keeps
	// them).
	Workers []int
	// Hetero is the execution-noise amplitude of the simulated cluster.
	Hetero float64
	// Queries is the number of query repetitions averaged per point (the
	// paper uses 5).
	Queries int
	// Trace, when non-nil, is called once per measured trial with a label
	// like "Argan/sssp/n=16/rep0" and returns the tracer to attach to that
	// trial's engine run (return nil to leave the trial untraced). Use it
	// to capture per-trial obs.Recorder exports while regenerating a
	// figure.
	Trace func(trial string) obs.Tracer
	// JSONPath, when non-empty, makes experiments with machine-readable
	// results ("memory" and "incremental") write them to this
	// file in addition to the rendered rows.
	JSONPath string
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	if o.Hetero == 0 {
		o.Hetero = 1.2
	}
	if o.Queries <= 0 {
		o.Queries = 1
	}
	return o
}

// Quick returns the options used by the test suite and root benchmarks:
// small stand-ins, few workers, one query per point.
func Quick(out io.Writer) Options {
	return Options{Out: out, Scale: 0.08, Workers: []int{8, 16, 32}, Queries: 1}
}

// Full returns options close to the paper's setup (slow: minutes).
func Full(out io.Writer) Options {
	return Options{Out: out, Scale: 1, Workers: []int{16, 32, 64, 128}, Queries: 3}
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: SSSP traces under BSP/AAP/AP/GAP", Table1},
		{"fig4a", "Fig 4a: GAwD response time vs discretization k", Fig4a},
		{"fig4b", "Fig 4b: estimated T_w vs real T_w*", Fig4b},
		{"fig4c", "Fig 4c: response composition GAwD/GA/FG+/FG-", Fig4c},
		{"fig5", "Fig 5: all systems, all applications (TW)", Fig5},
		{"fig6a", "Fig 6a: SSSP on LJ vs n", figSweep("fig6a", "sssp", "LJ")},
		{"fig6b", "Fig 6b: SSSP on FS vs n", figSweep("fig6b", "sssp", "FS")},
		{"fig6c", "Fig 6c: SSSP on TW vs n", figSweep("fig6c", "sssp", "TW")},
		{"fig6d", "Fig 6d: Color on HW vs n", figSweep("fig6d", "color", "HW")},
		{"fig6e", "Fig 6e: Color on LJ vs n", figSweep("fig6e", "color", "LJ")},
		{"fig6f", "Fig 6f: PR on FS vs n", figSweep("fig6f", "pr", "FS")},
		{"fig6g", "Fig 6g: PR on TW vs n", figSweep("fig6g", "pr", "TW")},
		{"fig6h", "Fig 6h: PR on UK vs n", figSweep("fig6h", "pr", "UK")},
		{"fig6i", "Fig 6i: Core on HW vs n", figSweep("fig6i", "core", "HW")},
		{"fig6j", "Fig 6j: Core on FS vs n", figSweep("fig6j", "core", "FS")},
		{"fig6k", "Fig 6k: Sim on DP vs n", figSweep("fig6k", "sim", "DP")},
		{"fig6l", "Fig 6l: scalability vs |G|", Fig6l},
		{"ablation", "Extension: per-rule ablation of GAP (R1/R2/R3/tuner)", Ablation},
		{"faults", "Extension: crash-recovery and link-fault overhead sweep", FaultSweep},
		{"memory", "Extension: wall-clock vs memory cap — spill tier, backpressure, degradation ladder", Memory},
		{"incremental", "Extension: re-convergence after 1% churn vs full recompute (evolving graphs)", Incremental},
	}
}

// ErrGate marks an experiment failure that is a missed measurement target —
// a comparison whose outcome depends on wall-clock scheduling — not a wrong
// answer. The rows are complete when it is returned. arganbench exits
// non-zero on it (the CI bench job's gate); the test suite only logs it, so
// tier-1 gives the same verdict on every machine.
var ErrGate = errors.New("bench: measurement gate missed")

// ByID resolves an experiment label.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// --- shared plumbing ------------------------------------------------------

var sourceCache = map[*graph.Graph]graph.VID{}

// pickSource returns a deterministic high-coverage SSSP/BFS source,
// mirroring the paper's "each source reaches more than 90% of vertices".
func pickSource(g *graph.Graph) graph.VID {
	if v, ok := sourceCache[g]; ok {
		return v
	}
	best, bestReach := graph.VID(0), -1
	for try := 0; try < 8; try++ {
		v := graph.VID((try * 2654435761) % g.NumVertices())
		reach := 0
		for _, d := range algorithms.SeqBFS(g, v) {
			if d >= 0 {
				reach++
			}
		}
		if reach > bestReach {
			best, bestReach = v, reach
		}
		if reach >= g.NumVertices()*9/10 {
			break
		}
	}
	sourceCache[g] = best
	return best
}

// trialQuery is repetition rep's query over g, of the fields reads holds: a
// high-coverage source varied across repetitions, ε = 1e-3, and a seeded
// random pattern.
func trialQuery(reads algorithms.Reads, g *graph.Graph, rep int) ace.Query {
	return reads.Query(func() graph.VID {
		return graph.VID((int(pickSource(g)) + rep*7919) % g.NumVertices())
	}, 1e-3, func() *graph.Graph { return algorithms.RandomPattern(g, 4, 5, int64(42+rep)) })
}

// runPoint measures one (system, app, graph, n) point, averaged over
// repetitions. A non-convergent run (oscillating Color) returns ok=false.
func runPoint(o Options, sys systems.System, app string, g *graph.Graph, n int) (resp float64, m gap.Metrics, ok bool, err error) {
	env := core.Env{Workers: n, Hetero: o.Hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return 0, m, false, err
	}
	job, err := sys.Job(app)
	if err != nil {
		return 0, m, false, err
	}
	var total float64
	for rep := 0; rep < o.Queries; rep++ {
		q := trialQuery(job.Reads, g, rep)
		cfg := sys.Config(env.DefaultConfig())
		if o.Trace != nil {
			cfg.Tracer = o.Trace(fmt.Sprintf("%s/%s/n=%d/rep%d", sys.Name, app, n, rep))
		}
		out, err := job.Run(frags, q, cfg)
		if err != nil {
			return 0, m, false, err
		}
		if !out.Converged {
			return 0, out.Metrics, false, nil
		}
		total += out.RespTime
		m = out.Metrics
	}
	return total / float64(o.Queries), m, true, nil
}

// figSweep builds a Fig. 6 panel: one application on one dataset, response
// time vs n for the Grape-family systems.
func figSweep(id, app, dataset string) func(Options) error {
	return func(o Options) error {
		o = o.withDefaults()
		g, err := graph.LoadDataset(dataset, o.Scale)
		if err != nil {
			return err
		}
		ns := o.Workers
		if ns == nil {
			ns = []int{16, 32, 64, 128}
		}
		syss := systems.GrapeFamily()
		fmt.Fprintf(o.Out, "== %s: %s over %s (|V|=%d, arcs=%d) — response time vs n ==\n",
			id, app, dataset, g.NumVertices(), g.NumEdges())
		fmt.Fprintf(o.Out, "%-8s", "n")
		for _, s := range syss {
			fmt.Fprintf(o.Out, "%14s", s.Name)
		}
		fmt.Fprintln(o.Out)
		resp := make([][]float64, len(ns)) // [nIdx][sysIdx]; <0 means NA
		for i, n := range ns {
			resp[i] = make([]float64, len(syss))
			fmt.Fprintf(o.Out, "%-8d", n)
			for j, s := range syss {
				r, _, ok, err := runPoint(o, s, app, g, n)
				if err != nil {
					return err
				}
				if !ok {
					resp[i][j] = -1
					fmt.Fprintf(o.Out, "%14s", "NA")
					continue
				}
				resp[i][j] = r
				fmt.Fprintf(o.Out, "%14.0f", r)
			}
			fmt.Fprintln(o.Out)
		}
		// Paper-style summaries: Argan's average speedup over each
		// baseline, and its self-speedup from the smallest to the largest n.
		fmt.Fprintf(o.Out, "avg speedup of Argan:")
		for j := 1; j < len(syss); j++ {
			sum, cnt := 0.0, 0
			for i := range ns {
				if resp[i][0] > 0 && resp[i][j] > 0 {
					sum += resp[i][j] / resp[i][0]
					cnt++
				}
			}
			if cnt > 0 {
				fmt.Fprintf(o.Out, "  %.2fx vs %s", sum/float64(cnt), syss[j].Name)
			}
		}
		fmt.Fprintln(o.Out)
		if first, last := resp[0][0], resp[len(ns)-1][0]; first > 0 && last > 0 {
			fmt.Fprintf(o.Out, "Argan self-speedup n=%d -> n=%d: %.2fx\n", ns[0], ns[len(ns)-1], first/last)
		}
		return nil
	}
}
