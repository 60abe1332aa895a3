package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names and units; TestBenchmarkJSONMatches keeps them equal.
type metricDef struct {
	Name, Unit string
}

// gatedPercentile is the percentile the gated latency metrics report. On a
// shared box interference only ever adds time, so a low percentile is the
// estimate of the program's own cost the sandbox permits; the median and p90
// are reported per layer, unbounded. See README.md, "Why p10".
const gatedPercentile = 10

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pr_job_p10_ms", "ms"},
	{"sssp_job_p10_ms", "ms"},
	{"bfs_job_p10_ms", "ms"},
	{"wcc_job_p10_ms", "ms"},
	{"mutate_p10_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"recover_s", "s"},
	{"rss_peak_mb", "MB"},
}

// Value is one reported number with the sample count behind it (0 for a
// figure that is not a statistic of samples).
type Value struct {
	V float64
	N int
}

// Metrics maps metric name to value.
type Metrics map[string]Value

func (m Metrics) pct(name string, s *Sample, p float64) error {
	v, err := s.Percentile(p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m[name] = Value{v, s.N()}
	return nil
}

// meanClientPct is a per-client class as the mean over clients of each
// client's own percentile, so every tenant counts once whatever its share of
// the samples.
func meanClientPct(o *Outcome, class string, p float64) (Value, error) {
	sum, n := 0.0, 0
	for i, c := range o.S.Clients {
		v, err := c[class].Percentile(p)
		if err != nil {
			return Value{}, fmt.Errorf("client %d %s: %w", i, class, err)
		}
		sum += v
		n += c[class].N()
	}
	return Value{sum / float64(len(o.S.Clients)), n}, nil
}

func (m Metrics) clientPct(name string, o *Outcome, class string, p float64) error {
	v, err := meanClientPct(o, class, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m[name] = v
	return nil
}

// EndToEnd computes the gated metrics of a run.
func EndToEnd(o *Outcome) (Metrics, error) {
	m := Metrics{
		"setup_s":     {median(o.SetupS), len(o.SetupS)},
		"recover_s":   {minOf(o.RecoverS), len(o.RecoverS)},
		"rss_peak_mb": {o.HWMKB / 1024, 0},
	}
	for _, app := range apps {
		if err := m.clientPct(app+"_job_p10_ms", o, app+"_job_ms", gatedPercentile); err != nil {
			return nil, err
		}
	}
	if err := m.pct("mutate_p10_ms", &o.S.Mutate, gatedPercentile); err != nil {
		return nil, err
	}
	// Sustained closed-loop job rate with quiet neighbours, summed over
	// clients: each completes len(apps) jobs per round; mutate time is
	// excluded.
	rate, n := 0.0, 0
	for i, c := range o.S.Clients {
		ms, err := c["round_jobs_ms"].Percentile(gatedPercentile)
		if err != nil {
			return nil, fmt.Errorf("jobs_per_s: client %d: %w", i, err)
		}
		rate += float64(len(apps)) * 1000 / ms
		n += c["round_jobs_ms"].N()
	}
	m["jobs_per_s"] = Value{rate, n}
	return m, nil
}

// perLayerDefs lists the per-layer metrics: first those read from outside
// the server during the HTTP run, then those timed in-process by the traced
// replay.
func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	for _, a := range apps {
		add("ms", "client."+a+"_job_p50_ms", "client."+a+"_job_p90_ms")
	}
	add("ms", "client.mutate_p50_ms", "client.mutate_p90_ms", "http.job_overhead_p50_ms", "serve.queue_wait_p50_ms")
	for _, a := range apps {
		add("ms", "serve."+a+"_run_p50_ms", "serve."+a+"_overhead_p50_ms", "gap."+a+"_wall_p50_ms")
		add("count", "gap."+a+"_updates_p50", "gap."+a+"_msgs_p50")
	}
	add("ratio", "serve.incremental_share", "serve.fallback_share")
	add("count", "serve.shed_total", "serve.snapshots_total", "graph.rebuilt_fragments_per_mutate")
	add("B", "durable.wal_bytes_per_mutate")
	add("count", "durable.replayed_records", "durable.warm_reseeded")
	add("ms", "durable.replay_ms_per_record")
	add("s", "proc.cpu_s_per_round")
	add("MB", "proc.rss_end_mb")

	add("ms", "graph.load_dataset_ms", "core.fragments_build_ms", "graph.check_frozen_ms",
		"graph.apply_mutations_ms", "graph.freeze_ms", "graph.update_fragments_ms",
		"durable.wal_append_ms", "durable.wal_open_scan_ms", "durable.snapshot_write_ms", "durable.snapshot_read_ms")
	for _, a := range apps {
		add("ms", "algorithms.seq_"+a+"_ms", "algorithms.warm_"+a+"_plan_ms",
			"gap.runlive_cold_"+a+"_ms", "gap.runlive_warm_"+a+"_ms", "serve.inproc_"+a+"_job_ms")
	}
	add("ms", "serve.inproc_mutate_ms")
	add("ratio", "trace.coverage_job", "trace.coverage_mutate", "trace.overhead_ratio")
	return d
}

// PerLayer computes the per-layer metrics: the outside view from the HTTP
// run, merged with the in-process timings of the traced replay.
func PerLayer(o *Outcome, tr Metrics) (Metrics, error) {
	m := Metrics{}
	var err error
	pct := func(name, class string, p float64) {
		if e := m.clientPct(name, o, class, p); e != nil && err == nil {
			err = e
		}
	}
	s := o.S
	for _, a := range apps {
		pct("client."+a+"_job_p50_ms", a+"_job_ms", 50)
		pct("client."+a+"_job_p90_ms", a+"_job_ms", 90)
		pct("serve."+a+"_run_p50_ms", a+"_run_ms", 50)
		pct("serve."+a+"_overhead_p50_ms", a+"_overhead_ms", 50)
		pct("gap."+a+"_wall_p50_ms", a+"_wall_ms", 50)
		pct("gap."+a+"_updates_p50", a+"_updates", 50)
		pct("gap."+a+"_msgs_p50", a+"_msgs", 50)
	}
	pct("http.job_overhead_p50_ms", "http_overhead_ms", 50)
	pct("serve.queue_wait_p50_ms", "queue_wait_ms", 50)
	for name, p := range map[string]float64{"client.mutate_p50_ms": 50, "client.mutate_p90_ms": 90} {
		if e := m.pct(name, &s.Mutate, p); e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	jobs := math.Max(1, float64(s.TimedJobs))
	m["serve.incremental_share"] = Value{float64(s.Incremental) / jobs, s.TimedJobs}
	m["serve.fallback_share"] = Value{float64(s.Fallbacks) / jobs, s.TimedJobs}
	m["serve.shed_total"] = Value{float64(o.Stats.Shed), 0}
	m["serve.snapshots_total"] = Value{float64(o.Snapshots), 0}
	rebuilt := 0.0
	for _, v := range s.Rebuilt.vals {
		rebuilt += v
	}
	m["graph.rebuilt_fragments_per_mutate"] = Value{rebuilt / math.Max(1, float64(s.Rebuilt.N())), s.Rebuilt.N()}
	m["durable.wal_bytes_per_mutate"] = Value{float64(o.WALBytes) / math.Max(1, float64(o.Mutates)), o.Mutates}
	m["durable.replayed_records"] = Value{float64(o.Recovery.Records), 0}
	m["durable.warm_reseeded"] = Value{float64(o.Recovery.WarmReseeded), 0}
	m["durable.replay_ms_per_record"] = Value{
		(minOf(o.RecoverS) - median(o.SetupS)) * 1000 / math.Max(1, float64(o.Recovery.Records)), o.Recovery.Records}
	m["proc.cpu_s_per_round"] = Value{o.CPUS / math.Max(1, float64(o.Rounds)), o.Rounds}
	m["proc.rss_end_mb"] = Value{o.RSSEndKB / 1024, 0}
	for k, v := range tr {
		m[k] = v
	}
	// Tracing overhead: round job time with client spans on over the same
	// with spans off, from alternating rounds of one run. Each side has half
	// the rounds, which supports a median but not a p10.
	on, err := meanClientPct(o, "round_jobs_traced_ms", 50)
	if err != nil {
		return nil, err
	}
	off, err := meanClientPct(o, "round_jobs_untraced_ms", 50)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_ratio"] = Value{on.V / off.V, on.N + off.N}
	for _, d := range perLayerDefs() {
		if _, ok := m[d.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return m, nil
}
