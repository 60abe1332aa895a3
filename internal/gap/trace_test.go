package gap

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
	"argan/internal/obs"
)

// tracedSim runs one traced sim-driver SSSP and returns its recorder.
func tracedSim(t *testing.T, seed int64, n int) (*obs.Recorder, *Result[float64]) {
	t.Helper()
	g := testGraph(true, seed)
	rec := obs.NewRecorder(n, 0)
	cfg := Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD, Hetero: 0.8, Tracer: rec}
	res, err := RunSim(frags(t, g, n), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func export(t *testing.T, rec *obs.Recorder) (trace, csv []byte) {
	t.Helper()
	var tb, cb bytes.Buffer
	if err := rec.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), cb.Bytes()
}

// TestSimTraceDeterminism: the sim driver stamps events with virtual time,
// so two runs with the same config and seed must export byte-identical
// Chrome traces and CSVs.
func TestSimTraceDeterminism(t *testing.T) {
	recA, resA := tracedSim(t, 7, 4)
	recB, resB := tracedSim(t, 7, 4)
	if resA.Metrics.RespTime != resB.Metrics.RespTime {
		t.Fatalf("runs diverged: %v vs %v", resA.Metrics.RespTime, resB.Metrics.RespTime)
	}
	traceA, csvA := export(t, recA)
	traceB, csvB := export(t, recB)
	if !bytes.Equal(traceA, traceB) {
		t.Error("chrome traces differ between identical runs")
	}
	if !bytes.Equal(csvA, csvB) {
		t.Error("CSV exports differ between identical runs")
	}
	// And a different seed must NOT reproduce the same trace (the test
	// would otherwise pass with an empty recorder).
	recC, _ := tracedSim(t, 8, 4)
	traceC, _ := export(t, recC)
	if bytes.Equal(traceA, traceC) {
		t.Error("different seeds produced identical traces")
	}
}

// TestSimTraceContent checks the acceptance shape: a valid Chrome trace
// with at least one span track per worker, and a CSV carrying per-worker η
// and φ series.
func TestSimTraceContent(t *testing.T) {
	const n = 4
	rec, _ := tracedSim(t, 7, n)
	trace, csv := export(t, rec)

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spanTracks := map[int]bool{}
	begins := map[int]int{}
	ends := map[int]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			spanTracks[e.Tid] = true
			begins[e.Tid]++
		case "E":
			ends[e.Tid]++
		}
	}
	for w := 0; w < n; w++ {
		if !spanTracks[w] {
			t.Errorf("worker %d has no span track", w)
		}
		if begins[w] != ends[w] {
			t.Errorf("worker %d: %d begins vs %d ends", w, begins[w], ends[w])
		}
	}

	etaWorkers := map[string]bool{}
	phiWorkers := map[string]bool{}
	for _, line := range strings.Split(string(csv), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 4 {
			continue
		}
		switch f[2] {
		case "eta":
			etaWorkers[f[1]] = true
		case "phi":
			phiWorkers[f[1]] = true
		}
	}
	if len(etaWorkers) != n {
		t.Errorf("eta series for %d workers, want %d", len(etaWorkers), n)
	}
	if len(phiWorkers) == 0 {
		t.Error("no phi series in CSV")
	}

	// The live progress view agrees with the run having done work.
	st := rec.Snapshot()
	if len(st.Workers) != n {
		t.Fatalf("snapshot has %d workers, want %d", len(st.Workers), n)
	}
	var upd int64
	for _, w := range st.Workers {
		upd += w.Updates
		if !w.Idle {
			t.Errorf("worker %d not idle after the run", w.Worker)
		}
	}
	if upd == 0 {
		t.Error("snapshot shows zero updates")
	}
}

// TestLiveTraceSane: the live driver emits wall-clock-stamped spans and
// counters that match its LiveMetrics totals.
func TestLiveTraceSane(t *testing.T) {
	g := testGraph(true, 3)
	rec := obs.NewRecorder(4, 0)
	res, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0},
		LiveConfig{Mode: ModeGAP, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.SeqSSSP(g, 0)
	for v, d := range want {
		if res.Values[v] != d {
			t.Fatalf("traced live run wrong: dist[%d] = %v, want %v", v, res.Values[v], d)
		}
	}
	st := rec.Snapshot()
	var upd int64
	for _, w := range st.Workers {
		upd += w.Updates
	}
	if upd != lm.Updates {
		t.Errorf("traced updates %d != LiveMetrics.Updates %d", upd, lm.Updates)
	}
	trace, _ := export(t, rec)
	var doc map[string]any
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("live trace not valid JSON: %v", err)
	}
}

// TestMetricsAvgZeroWorkers: regression for AvgTw/AvgTc/AvgTa returning NaN
// on a zero-value Metrics (no workers).
func TestMetricsAvgZeroWorkers(t *testing.T) {
	var m Metrics
	if got := m.AvgTw(); got != 0 {
		t.Errorf("AvgTw() = %v, want 0", got)
	}
	if got := m.AvgTc(); got != 0 {
		t.Errorf("AvgTc() = %v, want 0", got)
	}
	if got := m.AvgTa(); got != 0 {
		t.Errorf("AvgTa() = %v, want 0", got)
	}
	m.TotalTw, m.TotalTc, m.TotalTa = 10, 20, 30
	m.Workers = make([]WorkerMetrics, 4)
	if got := m.AvgTw(); got != 2.5 {
		t.Errorf("AvgTw() = %v, want 2.5", got)
	}
	if got := m.AvgTc(); got != 5 {
		t.Errorf("AvgTc() = %v, want 5", got)
	}
	if got := m.AvgTa(); got != 7.5 {
		t.Errorf("AvgTa() = %v, want 7.5", got)
	}
}

// TestSimTraceDisabledUnchanged: attaching a tracer must not change the
// simulated execution itself (virtual times are tracer-independent).
func TestSimTraceDisabledUnchanged(t *testing.T) {
	g := testGraph(true, 11)
	cfg := Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD}
	plain, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = obs.NewRecorder(4, 0)
	traced, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics.RespTime != traced.Metrics.RespTime {
		t.Errorf("tracing changed the run: resp %v vs %v", plain.Metrics.RespTime, traced.Metrics.RespTime)
	}
	if plain.Metrics.Updates != traced.Metrics.Updates {
		t.Errorf("tracing changed update count: %d vs %d", plain.Metrics.Updates, traced.Metrics.Updates)
	}
}
