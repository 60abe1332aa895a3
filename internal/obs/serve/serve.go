// Package serve is the live telemetry plane of the GAP runtime: an HTTP
// server that exposes a running (or just-finished) traced run as
//
//	/metrics      Prometheus text exposition (format version 0.0.4)
//	/status       JSON dump of the recorder snapshot, health and run config
//	/healthz      liveness: 200 while the control plane reports progress
//	/readyz       readiness: 200 once a run (or a resident service) is attached,
//	              recoverable and not draining
//	/debug/pprof  the standard Go profiling endpoints
//
// The server is deliberately passive: it holds an *obs.Recorder (the same
// ring-buffered tracer the drivers already write to) and a health callback,
// and materializes everything at scrape time. Attaching it to a run costs
// nothing on the hot path — the drivers keep tracing exactly as before.
//
// One server outlives individual runs: arganrun starts it once and re-points
// SetRecorder/SetRunInfo at each soak iteration, so a scraper sees a
// continuous stream across iterations.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"regexp"
	"sync"
	"time"

	"argan/internal/obs"
)

// Sample is one labeled value of a registered Metric.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// Metric is a caller-registered metric family, evaluated at scrape time.
// Collect must be safe for concurrent calls and deterministic in sample
// order (the exposition preserves it).
type Metric struct {
	Name    string // full exposition name; counters must end in _total
	Help    string
	Type    string // "counter" or "gauge"
	Collect func() []Sample
}

var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Server is the telemetry-plane HTTP server. The zero value is not usable;
// call New. All Set*/Register* methods are safe to call while serving.
type Server struct {
	mu       sync.Mutex
	rec      *obs.Recorder
	healthFn func() obs.Health
	runInfo  map[string]string
	extras   []Metric
	names    map[string]bool
	mounts   map[string]http.Handler

	ln net.Listener
	hs *http.Server
}

// Client-facing hardening limits: a slow or malicious client may neither pin
// a connection forever (header/idle timeouts) nor stream an unbounded body
// into a mounted API handler.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
	// maxRequestBody bounds request bodies on every route, including
	// mounted API handlers (job specs are a few hundred bytes; 1 MiB is
	// generous). Oversized bodies fail the handler's read with an error
	// http.MaxBytesReader turns into a 413.
	maxRequestBody = 1 << 20
)

// New builds a server with no recorder or health source attached; every
// endpoint works from the start (an empty /metrics is still valid
// exposition).
func New() *Server {
	return &Server{names: make(map[string]bool)}
}

// SetRecorder points the plane at a run's recorder (nil detaches).
func (s *Server) SetRecorder(r *obs.Recorder) {
	s.mu.Lock()
	s.rec = r
	s.mu.Unlock()
}

// SetHealth installs the health callback backing /healthz, /readyz and the
// argan_run_* families. The callback is invoked once per request.
func (s *Server) SetHealth(fn func() obs.Health) {
	s.mu.Lock()
	s.healthFn = fn
	s.mu.Unlock()
}

// SetRunInfo replaces the run-configuration labels exported as
// argan_run_config and echoed in /status (the map is copied).
func (s *Server) SetRunInfo(info map[string]string) {
	cp := make(map[string]string, len(info))
	for k, v := range info {
		cp[k] = v
	}
	s.mu.Lock()
	s.runInfo = cp
	s.mu.Unlock()
}

// RegisterMetric adds a scrape-time metric family. It rejects malformed
// names, unknown types, counters without the _total suffix, and duplicates.
func (s *Server) RegisterMetric(m Metric) error {
	if !metricName.MatchString(m.Name) {
		return fmt.Errorf("serve: invalid metric name %q", m.Name)
	}
	switch m.Type {
	case "gauge":
	case "counter":
		if len(m.Name) < len("_total") || m.Name[len(m.Name)-len("_total"):] != "_total" {
			return fmt.Errorf("serve: counter %q must end in _total", m.Name)
		}
	default:
		return fmt.Errorf("serve: metric %q has unknown type %q", m.Name, m.Type)
	}
	if m.Collect == nil {
		return fmt.Errorf("serve: metric %q has no Collect", m.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.names[m.Name] {
		return fmt.Errorf("serve: metric %q already registered", m.Name)
	}
	s.names[m.Name] = true
	s.extras = append(s.extras, m)
	return nil
}

// Mount attaches an additional handler under the given pattern (ServeMux
// syntax, e.g. "/api/jobs" or "/api/jobs/"), letting a job service share the
// telemetry plane's listener, hardening limits and lifecycle. Mount before
// Handler/Start; patterns colliding with the built-in routes or each other
// return an error.
func (s *Server) Mount(pattern string, h http.Handler) error {
	if pattern == "" || pattern[0] != '/' {
		return fmt.Errorf("serve: mount pattern %q must start with /", pattern)
	}
	switch pattern {
	case "/metrics", "/status", "/healthz", "/readyz":
		return fmt.Errorf("serve: pattern %q collides with a built-in route", pattern)
	}
	if h == nil {
		return fmt.Errorf("serve: nil handler for %q", pattern)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mounts == nil {
		s.mounts = make(map[string]http.Handler)
	}
	if s.mounts[pattern] != nil {
		return fmt.Errorf("serve: pattern %q already mounted", pattern)
	}
	s.mounts[pattern] = h
	return nil
}

// Handler returns the plane's route table; useful for tests and for mounting
// under an existing server. Every route — built-in and mounted — reads its
// request body through a MaxBytesReader.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/status", s.status)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/readyz", s.readyz)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	s.mu.Lock()
	for pat, h := range s.mounts {
		mux.Handle(pat, h)
	}
	s.mu.Unlock()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		}
		mux.ServeHTTP(w, r)
	})
}

// Start listens on addr (":0" picks a free port) and serves in the
// background. It returns the resolved address. The server carries header and
// idle timeouts so a slow client cannot pin a connection forever.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	go hs.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the listening address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Close()
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// statusWorker is one worker's row in the /status document.
type statusWorker struct {
	Worker   int                `json:"worker"`
	T        float64            `json:"t"`
	Phase    string             `json:"phase"`
	Idle     bool               `json:"idle"`
	Dropped  int64              `json:"dropped,omitempty"`
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

type statusDoc struct {
	Run     map[string]string `json:"run,omitempty"`
	Health  *obs.Health       `json:"health,omitempty"`
	Dropped int64             `json:"dropped"`
	Workers []statusWorker    `json:"workers"`
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rec, hfn, info := s.rec, s.healthFn, s.runInfo
	s.mu.Unlock()
	doc := statusDoc{Run: info, Workers: []statusWorker{}}
	if hfn != nil {
		h := hfn()
		doc.Health = &h
	}
	if rec != nil {
		st := rec.Snapshot()
		doc.Dropped = st.Dropped
		for _, ws := range st.Workers {
			sw := statusWorker{
				Worker:   ws.Worker,
				T:        ws.T,
				Phase:    ws.Phase.String(),
				Idle:     ws.Idle,
				Dropped:  ws.Dropped,
				Counters: map[string]int64{},
			}
			for _, c := range obs.AllCounters() {
				sw.Counters[c.String()] = ws.Counters[c]
			}
			for _, g := range obs.AllGauges() {
				v := ws.Gauges[g]
				if !ws.GaugeKnown[g] || math.IsNaN(v) || math.IsInf(v, 0) {
					continue // ±Inf (η of FG⁺) is not valid JSON
				}
				if sw.Gauges == nil {
					sw.Gauges = map[string]float64{}
				}
				sw.Gauges[g.String()] = v
			}
			doc.Workers = append(doc.Workers, sw)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// healthz is liveness: it fails only while the run is demonstrably wedged —
// the control plane gave up on a worker, or the watchdog budget is blown
// with no progress. A failed-and-finished run is still "live" (the plane
// keeps serving its telemetry).
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	hfn := s.healthFn
	s.mu.Unlock()
	if hfn == nil {
		fmt.Fprintln(w, "ok: no run attached")
		return
	}
	h := hfn()
	if h.Unrecoverable {
		http.Error(w, "unhealthy: unrecoverable worker loss", http.StatusServiceUnavailable)
		return
	}
	if h.Running && h.Watchdog > 0 && h.ProgressAge > h.Watchdog {
		http.Error(w, fmt.Sprintf("unhealthy: no progress for %v (watchdog %v)", h.ProgressAge, h.Watchdog),
			http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ok: running=%v dead=%d/%d progress_age=%v\n", h.Running, h.Dead, h.Workers, h.ProgressAge)
}

// readyz is readiness: 200 once a run has been attached (started or already
// finished) or the attached health is a resident service's, the process is
// not draining and the cluster is recoverable.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	hfn := s.healthFn
	s.mu.Unlock()
	if hfn == nil {
		http.Error(w, "not ready: no run attached", http.StatusServiceUnavailable)
		return
	}
	h := hfn()
	if h.Draining {
		// A draining process finishes its in-flight work but must fall out
		// of load-balancer rotation immediately.
		http.Error(w, "not ready: draining", http.StatusServiceUnavailable)
		return
	}
	if !h.Resident && !h.Running && h.Completed+h.Failed == 0 {
		http.Error(w, "not ready: run not started", http.StatusServiceUnavailable)
		return
	}
	if h.Unrecoverable {
		http.Error(w, "not ready: unrecoverable worker loss", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}
