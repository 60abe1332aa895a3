package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/graph"
)

// recWorkers is the live worker count of the recovery experiment.
const recWorkers = 4

// RecoveryModeResult is the measured cost of surviving one mid-run crash
// under one recovery strategy.
type RecoveryModeResult struct {
	Mode          string  `json:"mode"`
	Reps          int     `json:"reps"`
	Updates       []int64 `json:"updates"`
	UpdatesMedian float64 `json:"updates_median"`
	// LostWorkRatio is (median updates - fault-free updates) / fault-free
	// updates: the fraction of the computation redone because of the crash.
	// Global rollback re-executes every worker's post-checkpoint work;
	// localized recovery re-executes only the victim's.
	LostWorkRatio float64   `json:"lost_work_ratio"`
	RecoveryMS    []float64 `json:"recovery_ms"`
	// RecoveryMSMedian is the median detection-to-respawn latency (local
	// mode only; global recoveries park the whole cluster instead and
	// report 0).
	RecoveryMSMedian float64 `json:"recovery_ms_median"`
	EpochsTotal      int64   `json:"epochs_total"`
	ReplayedTotal    int64   `json:"replayed_total"`
	CrashesTotal     int64   `json:"crashes_total"`
}

// RecoveryReport is the machine-readable result of the recovery experiment,
// written to Options.JSONPath (BENCH_recovery.json in CI).
type RecoveryReport struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	Vertices   int     `json:"vertices"`
	Arcs       int     `json:"arcs"`

	// BaselineUpdates is the fault-free update count U0 the lost-work
	// ratios are measured against (median over reps).
	BaselineUpdates float64 `json:"baseline_updates"`
	// CrashAfterUpdates is the victim's update-count trigger — an
	// update-count trigger (not a wall-clock one) keeps the crash point
	// machine-independent.
	CrashAfterUpdates int64 `json:"crash_after_updates"`

	Modes []RecoveryModeResult `json:"modes"`

	// LocalBeatsGlobal is the acceptance bar: localized recovery must lose
	// strictly less healthy-worker work than global rollback.
	LocalBeatsGlobal bool `json:"local_beats_global"`
}

func medianI64(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

func medianF64(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Recovery measures what one mid-run crash costs under global rollback
// versus localized recovery: async live PageRank on the HW stand-in, a
// deterministic update-count-triggered crash of one worker, and the redone
// work (total updates over the fault-free baseline) plus the
// detection-to-respawn latency per strategy. The acceptance bar is that
// localized recovery loses strictly less healthy-worker work than global
// rollback.
func Recovery(o Options) error {
	o = o.withDefaults()
	g, err := graph.LoadDataset("HW", o.Scale)
	if err != nil {
		return err
	}
	env := core.Env{Workers: recWorkers, Hetero: o.Hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return err
	}
	reps := o.Queries
	if reps < 3 {
		reps = 3
	}
	prq := ace.Query{Eps: 1e-3}
	cfgBase := gap.LiveConfig{
		Mode:            gap.ModeGAP,
		CheckEvery:      16,
		CheckpointEvery: 15 * 1e6, // 15ms: several checkpoints per run
	}

	rep := RecoveryReport{
		Experiment: "recovery",
		Dataset:    "HW",
		Scale:      o.Scale,
		Workers:    recWorkers,
		Vertices:   g.NumVertices(),
		Arcs:       g.NumEdges(),
	}

	// Fault-free baseline: the update count every faulted run is charged
	// against.
	var base []int64
	for k := 0; k < reps; k++ {
		_, lm, err := gap.RunLive(frags, algorithms.NewPageRank(), prq, cfgBase)
		if err != nil {
			return fmt.Errorf("recovery baseline: %v", err)
		}
		base = append(base, lm.Updates)
	}
	rep.BaselineUpdates = medianI64(base)
	// Crash one worker mid-computation: roughly half-way through its share
	// of the baseline updates.
	rep.CrashAfterUpdates = int64(rep.BaselineUpdates / float64(recWorkers) / 2)
	if rep.CrashAfterUpdates < 1 {
		rep.CrashAfterUpdates = 1
	}
	plan := &fault.Plan{Crashes: []fault.Crash{
		{Worker: 1, AfterUpdates: rep.CrashAfterUpdates, Restart: 10},
	}}

	fmt.Fprintf(o.Out, "== recovery: one crash during async live PageRank over HW (|V|=%d, arcs=%d, n=%d, reps=%d) ==\n",
		g.NumVertices(), g.NumEdges(), recWorkers, reps)
	fmt.Fprintf(o.Out, "fault-free updates (median): %.0f; crash: worker 1 after %d updates, restart 10ms\n",
		rep.BaselineUpdates, rep.CrashAfterUpdates)
	fmt.Fprintf(o.Out, "%-8s %14s %12s %12s %8s %10s\n",
		"mode", "updates(med)", "lost-work", "recov ms", "epochs", "replayed")

	for _, mode := range []string{gap.RecoveryGlobal, gap.RecoveryLocal} {
		r := RecoveryModeResult{Mode: mode, Reps: reps}
		for k := 0; k < reps; k++ {
			cfg := cfgBase
			cfg.Recovery = mode
			cfg.Faults = plan
			cfg.HeartbeatTimeout = 40 * 1e6 // 40ms
			_, lm, err := gap.RunLive(frags, algorithms.NewPageRank(), prq, cfg)
			if err != nil {
				return fmt.Errorf("recovery %s rep %d: %v", mode, k, err)
			}
			if lm.Recovery != mode {
				return fmt.Errorf("recovery %s: run fell back to %q", mode, lm.Recovery)
			}
			r.Updates = append(r.Updates, lm.Updates)
			r.RecoveryMS = append(r.RecoveryMS, lm.RecoveryMS)
			r.EpochsTotal += lm.Epochs
			r.ReplayedTotal += lm.Replayed
			r.CrashesTotal += lm.Crashes
		}
		r.UpdatesMedian = medianI64(r.Updates)
		r.LostWorkRatio = (r.UpdatesMedian - rep.BaselineUpdates) / rep.BaselineUpdates
		r.RecoveryMSMedian = medianF64(r.RecoveryMS)
		rep.Modes = append(rep.Modes, r)
		fmt.Fprintf(o.Out, "%-8s %14.0f %11.1f%% %12.2f %8d %10d\n",
			r.Mode, r.UpdatesMedian, 100*r.LostWorkRatio, r.RecoveryMSMedian,
			r.EpochsTotal, r.ReplayedTotal)
	}

	lost := func(mode string) float64 {
		for _, r := range rep.Modes {
			if r.Mode == mode {
				return r.LostWorkRatio
			}
		}
		return math.NaN()
	}
	rep.LocalBeatsGlobal = lost(gap.RecoveryLocal) < lost(gap.RecoveryGlobal)
	fmt.Fprintf(o.Out, "local loses less healthy-worker work than global: %v\n", rep.LocalBeatsGlobal)

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
	if !rep.LocalBeatsGlobal {
		return fmt.Errorf("%w: recovery: localized recovery lost %.1f%% vs global %.1f%% — local must lose strictly less",
			ErrGate, 100*lost(gap.RecoveryLocal), 100*lost(gap.RecoveryGlobal))
	}
	return nil
}
