package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/mem"
	"argan/internal/serve"
)

// memWorkers is the live worker count of the memory experiment.
const memWorkers = 4

// MemoryCapResult is one point on the wall-clock-versus-memory-cap curve:
// async live PageRank with one mid-run crash, executed under a governor
// budget of CapBytes.
type MemoryCapResult struct {
	CapBytes int64 `json:"cap_bytes"`
	// CapFrac is CapBytes over the unbounded peak — 0.25 means the run had
	// a quarter of the RAM the ungoverned run actually used.
	CapFrac float64 `json:"cap_frac"`
	Reps    int     `json:"reps"`

	WallMS       []float64 `json:"wall_ms"`
	WallMSMedian float64   `json:"wall_ms_median"`
	// Slowdown is WallMSMedian over the unbounded median — the price of
	// running in CapFrac of the memory.
	Slowdown float64 `json:"slowdown"`

	PeakBytes        int64 `json:"peak_bytes"` // worst accounted peak across reps
	SpilledBytes     int64 `json:"spilled_bytes"`
	ReplayedFromDisk int64 `json:"replayed_from_disk"`
	ForcedCkpts      int64 `json:"forced_ckpts"`
	Throttles        int64 `json:"throttles"`
	LogPeakBytes     int64 `json:"log_peak_bytes"`
	CrashesTotal     int64 `json:"crashes_total"`
	RecoveriesTotal  int64 `json:"recoveries_total"`

	WrongVertices int  `json:"wrong_vertices"`
	Completed     bool `json:"completed"`
}

// MemoryAppResult verifies one application end-to-end at a quarter of its
// own unbounded peak, with a crash in the middle.
type MemoryAppResult struct {
	App           string  `json:"app"`
	UnboundedPeak int64   `json:"unbounded_peak_bytes"`
	CapBytes      int64   `json:"cap_bytes"`
	WallMS        float64 `json:"wall_ms"`
	SpilledBytes  int64   `json:"spilled_bytes"`
	ForcedCkpts   int64   `json:"forced_ckpts"`
	WrongVertices int     `json:"wrong_vertices"`
	Completed     bool    `json:"completed"`
}

// MemoryReport is the machine-readable result of the memory experiment,
// written to Options.JSONPath (BENCH_memory.json in CI).
type MemoryReport struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	Vertices   int     `json:"vertices"`
	Arcs       int     `json:"arcs"`

	// UnboundedPeakBytes is the governor high-water mark of the ungoverned
	// (budget 0, measure-only) crash run — the caps are fractions of it.
	UnboundedPeakBytes int64   `json:"unbounded_peak_bytes"`
	UnboundedWallMS    float64 `json:"unbounded_wall_ms"`
	CrashAfterUpdates  int64   `json:"crash_after_updates"`

	Caps []MemoryCapResult `json:"caps"`
	Apps []MemoryAppResult `json:"apps"`

	// OOMs counts runs aborted by memory exhaustion. The whole point of
	// the governor is that this stays zero at every cap.
	OOMs int `json:"ooms"`
	// CompletedAtQuarterPeak is the acceptance bar: every application
	// finishes bit-correct (PageRank within its tolerance) at a budget at
	// least 4x below its unbounded peak, with zero OOMs.
	CompletedAtQuarterPeak bool `json:"completed_at_quarter_peak"`
	// SpilledReplayObserved records that at least one capped run replayed
	// messages out of spilled log entries after its crash.
	SpilledReplayObserved bool `json:"spilled_replay_observed"`
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

// Memory measures graceful degradation under a shrinking memory budget:
// async live PageRank with one mid-run crash and localized recovery, first
// ungoverned (budget 0: accounting only) to find the true peak, then at
// 1/2, 1/4 and 1/8 of that peak with the full ladder armed — spillable
// logs and checkpoints, forced early checkpoints and sender backpressure.
// The governor accounts only per-run state; the shared fragments are never
// paged. Every capped run must still converge to the
// reference answer; the report is the wall-clock-versus-cap curve plus a
// per-application verification at a quarter of each app's own peak.
func Memory(o Options) error {
	o = o.withDefaults()
	g, err := graph.LoadDataset("HW", o.Scale)
	if err != nil {
		return err
	}
	env := core.Env{Workers: memWorkers, Hetero: o.Hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return err
	}
	spillDir, err := os.MkdirTemp("", "arganbench-mem-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)

	reps := o.Queries
	if reps < 3 {
		reps = 3
	}
	runs := make(map[string]serve.LiveJob)
	for _, name := range algorithms.LiveAppNames() {
		if runs[name], err = serve.LiveJobFor(name, g, frags, 0, 1e-3); err != nil {
			return err
		}
	}
	runPR := runs["pr"]
	cfgBase := gap.LiveConfig{
		Mode:             gap.ModeGAP,
		CheckEvery:       16,
		CheckpointEvery:  15 * 1e6, // 15ms: several checkpoints per run
		HeartbeatTimeout: 40 * 1e6,
	}

	rep := MemoryReport{
		Experiment: "memory",
		Dataset:    "HW",
		Scale:      o.Scale,
		Workers:    memWorkers,
		Vertices:   g.NumVertices(),
		Arcs:       g.NumEdges(),
	}

	fmt.Fprintf(o.Out, "== memory: live PageRank + one crash under shrinking budgets (|V|=%d, arcs=%d, n=%d, reps=%d) ==\n",
		g.NumVertices(), g.NumEdges(), memWorkers, reps)

	// Derive the crash trigger from one fault-free run: roughly half-way
	// through the victim's share of the updates.
	{
		lm, wrong, err := runPR(cfgBase)
		if err != nil {
			return fmt.Errorf("memory fault-free probe: %v", err)
		}
		if wrong > 0 {
			return fmt.Errorf("memory fault-free probe: %d wrong vertices", wrong)
		}
		rep.CrashAfterUpdates = lm.Updates / memWorkers / 2
		if rep.CrashAfterUpdates < 1 {
			rep.CrashAfterUpdates = 1
		}
	}
	plan := &fault.Plan{Crashes: []fault.Crash{
		{Worker: 1, AfterUpdates: rep.CrashAfterUpdates, Restart: 10},
	}}

	// Ungoverned pass, crash armed: a budget-0 governor accounts every
	// structure but never sheds, so its Peak is what the crashed run really
	// needs — the caps below are fractions of it, and its wall clock is the
	// denominator of the slowdown column (same workload, only the budget
	// differs).
	var wallU []float64
	for k := 0; k < reps; k++ {
		gov := mem.NewGovernor(0, spillDir)
		cfg := cfgBase
		cfg.Mem = gov
		p := *plan
		p.Seed = int64(k)
		cfg.Faults = &p
		lm, wrong, err := runPR(cfg)
		gov.Close()
		if err != nil {
			return fmt.Errorf("memory ungoverned rep %d: %v", k, err)
		}
		if wrong > 0 {
			return fmt.Errorf("memory ungoverned rep %d: %d wrong vertices", k, wrong)
		}
		if lm.MemPeakBytes > rep.UnboundedPeakBytes {
			rep.UnboundedPeakBytes = lm.MemPeakBytes
		}
		wallU = append(wallU, float64(lm.WallTime)/1e6)
	}
	rep.UnboundedWallMS = medianF64(wallU)
	fmt.Fprintf(o.Out, "unbounded peak %d bytes, wall %.1fms (median); crash: worker 1 after %d updates, restart 10ms\n",
		rep.UnboundedPeakBytes, rep.UnboundedWallMS, rep.CrashAfterUpdates)
	fmt.Fprintf(o.Out, "%-8s %12s %10s %9s %10s %8s %9s %7s\n",
		"cap", "bytes", "wall(med)", "slowdown", "spilled", "forced", "throttle", "wrong")

	for _, frac := range []float64{0.5, 0.25, 0.125} {
		cap := int64(float64(rep.UnboundedPeakBytes) * frac)
		if cap < 1 {
			cap = 1
		}
		r := MemoryCapResult{CapBytes: cap, CapFrac: frac, Reps: reps, Completed: true}
		for k := 0; k < reps; k++ {
			gov := mem.NewGovernor(cap, spillDir)
			cfg := cfgBase
			cfg.Mem = gov
			p := *plan
			p.Seed = int64(k)
			cfg.Faults = &p
			lm, wrong, err := runPR(cfg)
			gov.Close()
			if err != nil {
				return fmt.Errorf("memory cap %.3f rep %d: %v", frac, k, err)
			}
			r.WallMS = append(r.WallMS, float64(lm.WallTime)/1e6)
			if lm.MemPeakBytes > r.PeakBytes {
				r.PeakBytes = lm.MemPeakBytes
			}
			r.SpilledBytes += lm.SpilledBytes
			r.ReplayedFromDisk += lm.ReplayedFromDisk
			r.ForcedCkpts += lm.ForcedCkpts
			r.Throttles += lm.Throttles
			if lm.LogPeakBytes > r.LogPeakBytes {
				r.LogPeakBytes = lm.LogPeakBytes
			}
			r.CrashesTotal += lm.Crashes
			r.RecoveriesTotal += lm.Recoveries
			r.WrongVertices += wrong
		}
		r.WallMSMedian = medianF64(r.WallMS)
		if rep.UnboundedWallMS > 0 {
			r.Slowdown = r.WallMSMedian / rep.UnboundedWallMS
		}
		if r.ReplayedFromDisk > 0 {
			rep.SpilledReplayObserved = true
		}
		rep.Caps = append(rep.Caps, r)
		fmt.Fprintf(o.Out, "%-8.3f %12d %9.1fms %8.2fx %10d %8d %9d %7d\n",
			frac, cap, r.WallMSMedian, r.Slowdown, r.SpilledBytes,
			r.ForcedCkpts, r.Throttles, r.WrongVertices)
	}

	// Per-application verification: each live app at a quarter of its own
	// ungoverned peak, with the crash plan armed.
	wrongTotal := 0
	for _, r := range rep.Caps {
		wrongTotal += r.WrongVertices
	}
	for _, name := range algorithms.LiveAppNames() {
		run := runs[name]
		// Measure this app's own unbounded footprint first…
		gov := mem.NewGovernor(0, spillDir)
		cfg := cfgBase
		cfg.Mem = gov
		lm, _, err := run(cfg)
		gov.Close()
		if err != nil {
			return fmt.Errorf("memory app %s ungoverned: %v", name, err)
		}
		ar := MemoryAppResult{App: name, UnboundedPeak: lm.MemPeakBytes}
		ar.CapBytes = ar.UnboundedPeak / 4
		if ar.CapBytes < 1 {
			ar.CapBytes = 1
		}
		after := lm.Updates / memWorkers / 2
		if after < 1 {
			after = 1
		}
		// …then rerun crashed at a quarter of it.
		gov = mem.NewGovernor(ar.CapBytes, spillDir)
		cfg = cfgBase
		cfg.Mem = gov
		cfg.Faults = &fault.Plan{Crashes: []fault.Crash{
			{Worker: 1, AfterUpdates: after, Restart: 10},
		}}
		lm, wrong, err := run(cfg)
		gov.Close()
		if err != nil {
			return fmt.Errorf("memory app %s capped: %v", name, err)
		}
		ar.WallMS = float64(lm.WallTime) / 1e6
		ar.SpilledBytes = lm.SpilledBytes
		ar.ForcedCkpts = lm.ForcedCkpts
		ar.WrongVertices = wrong
		ar.Completed = true
		wrongTotal += wrong
		rep.Apps = append(rep.Apps, ar)
		fmt.Fprintf(o.Out, "app %-4s at peak/4 (%d bytes): wall %.1fms, spilled %d, forced ckpts %d, wrong %d\n",
			name, ar.CapBytes, ar.WallMS, ar.SpilledBytes, ar.ForcedCkpts, ar.WrongVertices)
	}

	quarterOK := false
	for _, r := range rep.Caps {
		if r.CapFrac <= 0.25 && r.Completed {
			quarterOK = true
		}
	}
	rep.CompletedAtQuarterPeak = quarterOK && wrongTotal == 0 && rep.OOMs == 0
	fmt.Fprintf(o.Out, "every app correct at >=4x below its unbounded peak, zero OOMs: %v (spilled replay observed: %v)\n",
		rep.CompletedAtQuarterPeak, rep.SpilledReplayObserved)

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
	// A wrong vertex or an OOM is a defect on any machine; how far below the
	// peak a run still completes depends on the box and is a gate.
	if wrongTotal > 0 || rep.OOMs > 0 {
		return fmt.Errorf("memory: governed execution diverged: %d wrong vertices, %d OOMs", wrongTotal, rep.OOMs)
	}
	if !quarterOK {
		return fmt.Errorf("%w: memory: no cap at or below a quarter of the unbounded peak completed", ErrGate)
	}
	return nil
}
