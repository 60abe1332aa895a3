package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"argan/internal/obs"
)

// testRecorder builds a small deterministic two-worker trace.
func testRecorder() *obs.Recorder {
	rec := obs.NewRecorder(2, 0)
	rec.SpanBegin(0, obs.PhaseLocalEval, 0)
	rec.Count(0, obs.CounterUpdates, 1, 5)
	rec.Sample(0, obs.GaugeEta, 2, 64)
	rec.Sample(1, obs.GaugeEta, 2, 16)
	rec.Sample(0, obs.GaugePhi, 3, 0.5)
	rec.Sample(1, obs.GaugePhi, 3, 0.25)
	rec.Count(1, obs.CounterMsgsSent, 4, 7)
	rec.Mark(1, obs.MarkIdle, 5)
	rec.SpanEnd(0, obs.PhaseLocalEval, 6)
	return rec
}

func testHealth() Health {
	return Health{
		Running: true, Workers: 2, Idle: 1,
		MemStage: "ok",
		Sent:     9, Recv: 9, Updates: 12,
		ProgressAge: 50 * time.Millisecond, Watchdog: time.Second,
		UpdatedAt: time.Unix(0, 0),
	}
}

func testServer(t *testing.T) *Server {
	t.Helper()
	s := New()
	s.SetRecorder(testRecorder())
	s.SetHealth(func() Health { return testHealth() })
	s.SetRunInfo(map[string]string{"dataset": "hw", "algo": "pagerank", "bad key!": `quo"te`})
	if err := s.RegisterMetric(Metric{
		Name: "argan_soak_iterations_total", Help: "Soak iterations finished.", Type: "counter",
		Collect: func() []Sample { return []Sample{{Value: 3}} },
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWriteMetricsScrape is the golden scrape: the exposition must pass the
// strict lint, carry the expected series, and be byte-identical across
// scrapes of an idle recorder.
func TestWriteMetricsScrape(t *testing.T) {
	s := testServer(t)
	var a, b bytes.Buffer
	if err := s.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two scrapes of an idle recorder differ")
	}
	if err := Lint(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("self-lint failed: %v", err)
	}
	for _, want := range []string{
		`argan_updates_total{worker="0"} 5`,
		`argan_updates_total{worker="1"} 0`,
		`argan_msgs_sent_total{worker="1"} 7`,
		`argan_eta{worker="0"} 64`,
		`argan_eta{worker="1"} 16`,
		`argan_eta_spread 48`,
		`argan_phi_spread 0.25`,
		`argan_worker_idle{worker="1"} 1`,
		`argan_dropped_events_total{worker="0"} 0`,
		`argan_run_running 1`,
		`argan_run_workers 2`,
		`argan_run_info{mem_stage="ok"} 1`,
		`argan_run_config{algo="pagerank",bad_key_="quo\"te",dataset="hw"} 1`,
		`argan_soak_iterations_total 3`,
		`# TYPE argan_updates_total counter`,
		`# TYPE argan_eta gauge`,
	} {
		if !strings.Contains(a.String(), want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestParseSamplesRoundTrip(t *testing.T) {
	s := testServer(t)
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`argan_updates_total{worker="0"}`]; got != 5 {
		t.Fatalf("updates[0] = %v, want 5", got)
	}
	if got := m[`argan_eta_spread`]; got != 48 {
		t.Fatalf("eta_spread = %v, want 48", got)
	}
}

// TestLintRejects feeds the lint known-bad documents.
func TestLintRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":   "argan_x_total 1\n",
		"counter sans _total":  "# TYPE argan_x counter\nargan_x 1\n",
		"duplicate series":     "# TYPE a gauge\na{w=\"0\"} 1\na{w=\"0\"} 2\n",
		"dup reordered labels": "# TYPE a gauge\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n",
		"bad metric name":      "# TYPE a gauge\n0bad 1\n",
		"bad label name":       "# TYPE a gauge\na{0x=\"v\"} 1\n",
		"bad value":            "# TYPE a gauge\na one\n",
		"unterminated labels":  "# TYPE a gauge\na{x=\"v\" 1\n",
		"bad escape":           "# TYPE a gauge\na{x=\"\\q\"} 1\n",
		"second TYPE":          "# TYPE a gauge\n# TYPE a gauge\na 1\n",
		"interleaved family":   "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na{w=\"1\"} 2\n",
		"unknown type":         "# TYPE a foo\na 1\n",
	}
	for name, doc := range cases {
		if err := Lint(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: lint accepted %q", name, doc)
		}
	}
	good := "# HELP a Fine.\n# TYPE a gauge\na{x=\"quo\\\"te\"} +Inf\na 1e-3 1700000000\n"
	if err := Lint(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected valid doc: %v", err)
	}
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestEndpoints(t *testing.T) {
	s := testServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr
	if s.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", s.Addr(), addr)
	}

	code, body, hdr := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type %q", ct)
	}
	if err := Lint(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics lint: %v", err)
	}

	code, body, hdr = get(t, base+"/status")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/status: %d %q", code, hdr.Get("Content-Type"))
	}
	var doc struct {
		Health  *Health `json:"health"`
		Workers []struct {
			Worker   int              `json:"worker"`
			Phase    string           `json:"phase"`
			Counters map[string]int64 `json:"counters"`
		} `json:"workers"`
		Run map[string]string `json:"run"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if len(doc.Workers) != 2 || doc.Workers[0].Counters["updates"] != 5 {
		t.Fatalf("/status workers wrong: %+v", doc.Workers)
	}
	if doc.Health == nil || doc.Health.Workers != 2 || doc.Run["dataset"] != "hw" {
		t.Fatalf("/status health/run wrong: %s", body)
	}

	if code, _, _ = get(t, base+"/healthz"); code != 200 {
		t.Fatalf("/healthz: %d", code)
	}
	if code, _, _ = get(t, base+"/readyz"); code != 200 {
		t.Fatalf("/readyz: %d", code)
	}
	if code, _, _ = get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}

	// Wedged run: watchdog blown → liveness fails; unrecoverable → both fail.
	s.SetHealth(func() Health {
		h := testHealth()
		h.ProgressAge = 2 * time.Second
		return h
	})
	if code, body, _ = get(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz stuck run: %d %q", code, body)
	}
	s.SetHealth(func() Health {
		h := testHealth()
		h.Unrecoverable = true
		return h
	})
	if code, _, _ = get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz unrecoverable: %d", code)
	}

	// Detached plane: live but not ready.
	s.SetHealth(nil)
	if code, _, _ = get(t, base+"/healthz"); code != 200 {
		t.Fatalf("/healthz detached: %d", code)
	}
	if code, _, _ = get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz detached: %d", code)
	}
}

func TestRegisterMetricValidation(t *testing.T) {
	s := New()
	collect := func() []Sample { return nil }
	for _, m := range []Metric{
		{Name: "0bad", Type: "gauge", Collect: collect},
		{Name: "a_count", Type: "counter", Collect: collect},
		{Name: "a", Type: "histogram", Collect: collect},
		{Name: "a", Type: "gauge"},
	} {
		if err := s.RegisterMetric(m); err == nil {
			t.Errorf("RegisterMetric(%+v) accepted", m)
		}
	}
	ok := Metric{Name: "a", Type: "gauge", Collect: collect}
	if err := s.RegisterMetric(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterMetric(ok); err == nil {
		t.Error("duplicate registration accepted")
	}
}
