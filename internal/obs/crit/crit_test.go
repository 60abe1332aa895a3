package crit_test

import (
	"bytes"
	"math"
	"testing"

	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/obs"
	"argan/internal/obs/crit"
	"argan/internal/partition"
)

// syntheticTrace crafts a two-worker trace with known bucket shares over the
// window [0, 100]:
//
//	worker 0: LocalEval [0,40] containing spill [10,20]; throttle [50,60]
//	          → compute 30, spill 10, throttle 10, wait 50
//	worker 1: replay [0,100] → replay 100; flush at t=8 wakes worker 0? no —
//	          worker 0 has a MarkBusy at 50 so the critical path test can
//	          walk 0 → 1.
func syntheticTrace() *obs.Recorder {
	rec := obs.NewRecorder(2, 0)
	rec.SpanBegin(0, obs.PhaseLocalEval, 0)
	rec.SpanBegin(0, obs.PhaseSpill, 10)
	rec.SpanEnd(0, obs.PhaseSpill, 20)
	rec.SpanEnd(0, obs.PhaseLocalEval, 40)
	rec.Mark(0, obs.MarkBusy, 50)
	rec.SpanBegin(0, obs.PhaseThrottle, 50)
	rec.SpanEnd(0, obs.PhaseThrottle, 60)
	rec.SpanBegin(1, obs.PhaseReplay, 0)
	rec.Count(1, obs.CounterFlushes, 45, 1)
	rec.SpanEnd(1, obs.PhaseReplay, 100)
	return rec
}

func TestAttributeSynthetic(t *testing.T) {
	r := crit.Analyze(syntheticTrace())
	if r.Wall != 100 {
		t.Fatalf("wall = %v, want 100", r.Wall)
	}
	w0 := r.Workers[0].Buckets
	want0 := map[int]float64{
		crit.BucketCompute: 30, crit.BucketSpill: 10,
		crit.BucketThrottle: 10, crit.BucketWait: 50,
	}
	for b, want := range want0 {
		if math.Abs(w0[b]-want) > 1e-9 {
			t.Errorf("worker 0 bucket %s = %v, want %v", crit.BucketNames()[b], w0[b], want)
		}
	}
	w1 := r.Workers[1].Buckets
	if math.Abs(w1[crit.BucketReplay]-100) > 1e-9 {
		t.Errorf("worker 1 replay = %v, want 100", w1[crit.BucketReplay])
	}
	for _, w := range r.Workers {
		if math.Abs(w.Coverage-1) > 1e-9 {
			t.Errorf("worker %d coverage = %v, want 1", w.Worker, w.Coverage)
		}
	}
	if r.Straggler != 1 {
		t.Errorf("straggler = %d, want 1 (busy 100 vs 50)", r.Straggler)
	}
	// Critical path: worker 1 finishes last at 100 with no wakeup, so the
	// chain is just worker 1 back to the trace start.
	if len(r.Chain) == 0 || r.Chain[len(r.Chain)-1] != 1 {
		t.Errorf("chain = %v, want to end at worker 1", r.Chain)
	}
}

// TestCriticalPathWalk builds an explicit sender→wakeup chain:
// worker 0 computes [0,10] and flushes at 10; worker 1 wakes at 12,
// computes [12,50], finishing last.
func TestCriticalPathWalk(t *testing.T) {
	rec := obs.NewRecorder(2, 0)
	rec.SpanBegin(0, obs.PhaseLocalEval, 0)
	rec.Count(0, obs.CounterFlushes, 10, 1)
	rec.SpanEnd(0, obs.PhaseLocalEval, 10)
	rec.Mark(1, obs.MarkBusy, 12)
	rec.SpanBegin(1, obs.PhaseLocalEval, 12)
	rec.SpanEnd(1, obs.PhaseLocalEval, 50)
	r := crit.Analyze(rec)
	if got, want := len(r.CriticalPath), 2; got != want {
		t.Fatalf("path length %d, want %d: %+v", got, want, r.CriticalPath)
	}
	if r.CriticalPath[0].Worker != 0 || r.CriticalPath[1].Worker != 1 {
		t.Fatalf("path workers = %+v, want 0 then 1", r.CriticalPath)
	}
	if r.CriticalPath[1].Note != "woken by worker 0" {
		t.Errorf("note = %q", r.CriticalPath[1].Note)
	}
	if got, want := r.Chain, []int{0, 1}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("chain = %v, want %v", got, want)
	}
}

func renderBoth(t *testing.T, r *crit.Report) (text, js []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	if err := r.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestReportDeterminismSim: two same-seed sim runs stamp identical virtual
// times, so their analysis must render byte-identically.
func TestReportDeterminismSim(t *testing.T) {
	run := func() *crit.Report {
		g, err := graph.LoadDataset("HW", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		frags, err := partition.Partition(g, partition.Hash{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(4, 0)
		cfg := gap.Config{Mode: gap.ModeGAP, Adapt: adapt.PolicyGAwD, Hetero: 0.8, Tracer: rec}
		if _, err := gap.RunSim(frags, algorithms.NewSSSP(), ace.Query{Source: 0}, cfg); err != nil {
			t.Fatal(err)
		}
		return crit.Analyze(rec)
	}
	ta, ja := renderBoth(t, run())
	tb, jb := renderBoth(t, run())
	if !bytes.Equal(ta, tb) {
		t.Error("text reports differ between identical sim runs")
	}
	if !bytes.Equal(ja, jb) {
		t.Error("JSON reports differ between identical sim runs")
	}
	if len(ta) == 0 || len(ja) == 0 {
		t.Fatal("empty report")
	}
}

// TestLivePageRankCoverage is the acceptance experiment: a 4-worker live
// PageRank over a power-law graph must attribute at least 95% of every
// worker's window, on repeated runs.
func TestLivePageRankCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("live run")
	}
	g, err := graph.LoadDataset("HW", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := partition.Partition(g, partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		rec := obs.NewRecorder(5, 0)
		cfg := gap.LiveConfig{Mode: gap.ModeGAP, Tracer: rec}
		if _, _, err := gap.RunLive(frags, algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg); err != nil {
			t.Fatal(err)
		}
		r := crit.Analyze(rec)
		if r.Wall <= 0 {
			t.Fatalf("rep %d: empty window", rep)
		}
		for _, w := range r.Workers {
			if w.Coverage < 0.95 || w.Coverage > 1.0001 {
				t.Errorf("rep %d: worker %d coverage %.4f outside [0.95, 1]", rep, w.Worker, w.Coverage)
			}
		}
		if r.Coverage < 0.95 {
			t.Errorf("rep %d: total coverage %.4f < 0.95", rep, r.Coverage)
		}
		if r.Straggler < 0 {
			t.Errorf("rep %d: no straggler named", rep)
		}
		if len(r.CriticalPath) == 0 {
			t.Errorf("rep %d: empty critical path", rep)
		}
		var total int
		for _, w := range r.Workers {
			total += w.Spans
		}
		if total == 0 {
			t.Errorf("rep %d: no spans parsed", rep)
		}
	}
}

// TestReportDroppedWarning: a wrapped ring must surface its drop count in
// both renderings.
func TestReportDroppedWarning(t *testing.T) {
	rec := obs.NewRecorder(1, 16)
	for i := 0; i < 100; i++ {
		rec.Count(0, obs.CounterUpdates, float64(i), 1)
	}
	r := crit.Analyze(rec)
	if r.Dropped == 0 {
		t.Fatal("expected drops")
	}
	text, js := renderBoth(t, r)
	if !bytes.Contains(text, []byte("WARNING")) {
		t.Error("text report lacks drop warning")
	}
	if !bytes.Contains(js, []byte(`"dropped"`)) {
		t.Error("JSON report lacks dropped field")
	}
}
