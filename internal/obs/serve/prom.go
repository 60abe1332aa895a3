package serve

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"argan/internal/obs"
)

// Prometheus text exposition (format 0.0.4) of a recorder snapshot.
//
// Naming scheme: every obs.Counter becomes argan_<counter>_total with a
// worker label; every obs.Gauge becomes argan_<gauge> (emitted only once
// sampled). Derived families — ring drops, η/φ spread, worker idleness —
// and the control-plane argan_run_* families ride alongside. Output is
// deterministic: families sort by name, samples keep worker/insertion
// order, floats render in shortest round-trip form.

type promSample struct {
	labels string // rendered `{k="v",...}` or ""
	value  float64
}

type family struct {
	name, help, typ string
	samples         []promSample
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel renders a label value per the exposition rules.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp renders HELP text (only \ and newline are escaped there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func workerLabel(i int) string { return `{worker="` + strconv.Itoa(i) + `"}` }

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var counterHelp = map[obs.Counter]string{
	obs.CounterUpdates:     "Update-function (f_xv) invocations.",
	obs.CounterMsgsSent:    "Messages shipped to peers.",
	obs.CounterBytesSent:   "Bytes shipped to peers.",
	obs.CounterMsgsRecv:    "Messages ingested from the incoming buffer.",
	obs.CounterFlushes:     "h_out batches flushed.",
	obs.CounterReplayed:    "Logged batches re-delivered by localized recovery.",
	obs.CounterRetransmits: "Dropped batches redelivered by the retransmit path.",
	obs.CounterForcedCkpts: "Checkpoints forced by retention or memory pressure.",
	obs.CounterEtaReseeds:  "Post-recovery granularity reseeds.",
}

var gaugeHelp = map[obs.Gauge]string{
	obs.GaugeEta:        "Granularity bound eta_i after the last adjustment.",
	obs.GaugePhi:        "Estimated computation effectiveness phi_i(eta).",
	obs.GaugeActive:     "Active-set size |H_i|.",
	obs.GaugeMailbox:    "Incoming-buffer depth.",
	obs.GaugeTwEst:      "Tuner-estimated staleness T_w.",
	obs.GaugeTwReal:     "Ground-truth staleness T_w (instrumented runs only).",
	obs.GaugeCandidates: "Granularity sweep candidates scanned.",
	obs.GaugeLogSize:    "Batches retained in the sender-side message log.",
	obs.GaugeAcksOut:    "Outstanding survivor undo acknowledgements.",
	obs.GaugeMemUsed:    "Governor-accounted RAM bytes.",
	obs.GaugeMemSpilled: "Governed bytes resident on the spill tier.",
	obs.GaugeMemStage:   "Memory degradation stage (0 ok, 1 ckpt, 2 throttle).",
	obs.GaugeMemPeak:    "High-water mark of governor-accounted bytes.",
}

func helpOr(m string, ok bool, fallback string) string {
	if ok && m != "" {
		return m
	}
	return fallback
}

// families materializes every family at scrape time.
func (s *Server) families() []family {
	s.mu.Lock()
	rec, hfn, info := s.rec, s.healthFn, s.runInfo
	extras := append([]Metric(nil), s.extras...)
	s.mu.Unlock()

	var fams []family
	add := func(f family) {
		if len(f.samples) > 0 {
			fams = append(fams, f)
		}
	}

	if rec != nil {
		st := rec.Snapshot()
		for _, c := range obs.AllCounters() {
			f := family{
				name: "argan_" + c.String() + "_total",
				help: helpOr(counterHelp[c], true, "GAP runtime counter."),
				typ:  "counter",
			}
			for _, w := range st.Workers {
				f.samples = append(f.samples, promSample{workerLabel(w.Worker), float64(w.Counters[c])})
			}
			add(f)
		}
		for _, g := range obs.AllGauges() {
			f := family{
				name: "argan_" + g.String(),
				help: helpOr(gaugeHelp[g], true, "GAP runtime gauge."),
				typ:  "gauge",
			}
			for _, w := range st.Workers {
				if w.GaugeKnown[g] {
					f.samples = append(f.samples, promSample{workerLabel(w.Worker), w.Gauges[g]})
				}
			}
			add(f)
		}
		drop := family{
			name: "argan_dropped_events_total",
			help: "Trace events evicted by ring-buffer wraparound (telemetry is lossy when > 0).",
			typ:  "counter",
		}
		idle := family{name: "argan_worker_idle", help: "Worker is at f_term with an empty mailbox (0/1).", typ: "gauge"}
		for _, w := range st.Workers {
			drop.samples = append(drop.samples, promSample{workerLabel(w.Worker), float64(w.Dropped)})
			idle.samples = append(idle.samples, promSample{workerLabel(w.Worker), boolGauge(w.Idle)})
		}
		add(drop)
		add(idle)
		// Cross-worker spread of the adaptive-granularity gauges: the load
		// imbalance signal the straggler analyzer keys on.
		addSpread := func(name, help string, get func(obs.WorkerStatus) (float64, bool)) {
			lo, hi, any := 0.0, 0.0, false
			for _, w := range st.Workers {
				v, ok := get(w)
				if !ok {
					continue
				}
				if !any || v < lo {
					lo = v
				}
				if !any || v > hi {
					hi = v
				}
				any = true
			}
			if any {
				add(family{name: name, help: help, typ: "gauge",
					samples: []promSample{{"", hi - lo}}})
			}
		}
		addSpread("argan_eta_spread", "Max-min spread of eta_i across workers.",
			func(w obs.WorkerStatus) (float64, bool) { return w.Eta, w.HasEta })
		addSpread("argan_phi_spread", "Max-min spread of phi_i across workers.",
			func(w obs.WorkerStatus) (float64, bool) { return w.Phi, w.HasPhi })
	}

	if hfn != nil {
		h := hfn()
		one := func(name, help, typ string, v float64) {
			add(family{name: name, help: help, typ: typ, samples: []promSample{{"", v}}})
		}
		one("argan_run_running", "A live run is currently executing (0/1).", "gauge", boolGauge(h.Running))
		one("argan_run_draining", "Process is draining: no new runs admitted (0/1).", "gauge", boolGauge(h.Draining))
		one("argan_runs_completed_total", "Runs finished successfully under this plane.", "counter", float64(h.Completed))
		one("argan_runs_failed_total", "Runs finished in failure under this plane.", "counter", float64(h.Failed))
		one("argan_run_workers", "Cluster size of the current run.", "gauge", float64(h.Workers))
		one("argan_run_workers_idle", "Workers at f_term with empty mailboxes.", "gauge", float64(h.Idle))
		one("argan_run_workers_dead", "Workers with stale heartbeats, not yet restored.", "gauge", float64(h.Dead))
		one("argan_run_unrecoverable", "Control plane gave up on a worker (0/1).", "gauge", boolGauge(h.Unrecoverable))
		one("argan_run_msgs_sent_total", "Termination-ledger messages sent this run.", "counter", float64(h.Sent))
		one("argan_run_msgs_recv_total", "Termination-ledger messages received this run.", "counter", float64(h.Recv))
		one("argan_run_updates_total", "Update-function invocations this run.", "counter", float64(h.Updates))
		one("argan_run_progress_age_seconds", "Time since the watchdog last saw progress.", "gauge", h.ProgressAge.Seconds())
		one("argan_run_watchdog_seconds", "Configured stuck-run budget (0 = disabled).", "gauge", h.Watchdog.Seconds())
		one("argan_run_spilled_bytes", "Governed bytes currently on the spill tier.", "gauge", float64(h.SpilledBytes))
		if h.MemStage != "" {
			add(family{
				name: "argan_run_info", typ: "gauge",
				help: "Run mode labels; value is always 1.",
				samples: []promSample{{
					`{mem_stage="` + escapeLabel(h.MemStage) + `"}`, 1}},
			})
		}
	}

	if len(info) > 0 {
		keys := make([]string, 0, len(info))
		for k := range info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(sanitizeLabelName(k))
			b.WriteString(`="`)
			b.WriteString(escapeLabel(info[k]))
			b.WriteString(`"`)
		}
		b.WriteByte('}')
		add(family{name: "argan_run_config", typ: "gauge",
			help:    "Run configuration labels; value is always 1.",
			samples: []promSample{{b.String(), 1}}})
	}

	for _, m := range extras {
		f := family{name: m.Name, help: m.Help, typ: m.Type}
		for _, sm := range m.Collect() {
			f.samples = append(f.samples, promSample{renderLabels(sm.Labels), sm.Value})
		}
		add(f)
	}

	sort.SliceStable(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sanitizeLabelName maps an arbitrary key onto the exposition label-name
// alphabet.
func sanitizeLabelName(k string) string {
	if k == "" {
		return "key"
	}
	b := []byte(k)
	for i, c := range b {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

func renderLabels(ls map[string]string) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabel(ls[k]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteMetrics renders the full exposition document. The output always
// passes Lint; the scrape test enforces this.
func (s *Server) WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range s.families() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, sm := range f.samples {
			fmt.Fprintf(bw, "%s%s %s\n", f.name, sm.labels, ftoa(sm.value))
		}
	}
	return bw.Flush()
}
