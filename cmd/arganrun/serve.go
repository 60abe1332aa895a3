package main

// arganrun serve — the resident multi-tenant job service (internal/serve)
// behind the hardened telemetry server (internal/obs/serve): one process,
// one set of frozen datasets, many concurrent GAP jobs with admission
// control, per-job fault isolation, deadlines and graceful SIGTERM drain.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	obsserve "argan/internal/obs/serve"
	"argan/internal/serve"
)

// runServe is the testable body of the serve subcommand. It blocks until
// stop yields a signal (or closes), drains, and returns the exit code:
// 0 for a clean drain — including one that had to force stragglers — and
// 2 for flag errors, 1 for startup errors.
func runServe(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("arganrun serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address for the job API + telemetry plane")
	cores := fs.Int("cores", 0, "admission core-token budget (0 = 4)")
	queue := fs.Int("queue", 0, "admission queue depth; beyond it submissions shed with 429 (0 = 2x cores)")
	memBudget := fs.String("mem-budget", "", "total governed memory shared by concurrent jobs in `BYTES` (k/m/g suffixes; empty = ungoverned)")
	spillDir := fs.String("spill-dir", "", "directory for governed jobs' spill files (default: the OS temp dir)")
	maxWorkers := fs.Int("max-workers", 0, "per-job worker clamp (0 = 4, never above -cores)")
	deadline := fs.Duration("deadline", 0, "default per-job deadline from submission (0 = none)")
	watchdog := fs.Duration("watchdog", 0, "per-job stuck-run budget (0 = driver default 30s)")
	history := fs.Int("history", 0, "terminal jobs retained for status/result/metrics; older ones are evicted (0 = 512, negative = unbounded)")
	preload := fs.String("preload", "", "datasets to load and partition at startup, e.g. \"HW@0.05,LJ@0.1\"")
	churn := fs.String("churn", "", "apply synthetic edge-churn batches to `DATASET[@SCALE]` while serving, exercising live incremental re-convergence")
	churnEvery := fs.Duration("churn-every", 5*time.Second, "interval between synthetic churn batches")
	churnOps := fs.Int("churn-ops", 32, "edge operations per synthetic churn batch (half deletes, half inserts)")
	stateDir := fs.String("state-dir", "", "durable state `DIR`: per-dataset mutation WALs + warm-fixpoint snapshots, replayed to the last durable version on restart (empty = ephemeral)")
	snapEvery := fs.Duration("snapshot-every", 10*time.Second, "warm-fixpoint snapshot flush period under -state-dir (0 = only the final flush at drain)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs on SIGTERM before cancel-forcing them")
	drainOut := fs.String("drain-out", "", "write the drain stats JSON to `FILE` on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		fmt.Fprintf(stderr, "arganrun serve: -mem-budget: %v\n", err)
		return 2
	}

	svc, err := serve.Open(serve.Config{
		Cores: *cores, QueueDepth: *queue,
		MemBudget: budget, SpillDir: *spillDir,
		MaxWorkersPerJob: *maxWorkers,
		DefaultDeadline:  *deadline, Watchdog: *watchdog,
		MaxHistory: *history,
		StateDir:   *stateDir, SnapshotEvery: *snapEvery,
	})
	if err != nil {
		fmt.Fprintf(stderr, "arganrun serve: %v\n", err)
		return 1
	}
	cfg := svc.Config()
	if rec := svc.Recovery(); rec != nil {
		tail := ""
		if rec.TruncatedTail {
			tail = ", torn tail truncated"
		}
		fmt.Fprintf(stdout, "recovered     : %d datasets, %d wal records (%d bytes) replayed, %d warm fixpoints reseeded (%d skipped) in %.0f ms%s\n",
			rec.Datasets, rec.Records, rec.Bytes, rec.WarmReseeded, rec.WarmSkipped, rec.DurationMS, tail)
	}

	for _, spec := range strings.Split(*preload, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, scaleStr, _ := strings.Cut(spec, "@")
		scale := 0.25
		if scaleStr != "" {
			if scale, err = strconv.ParseFloat(scaleStr, 64); err != nil {
				fmt.Fprintf(stderr, "arganrun serve: -preload %q: bad scale %q\n", spec, scaleStr)
				return 2
			}
		}
		if err := svc.Preload(name, scale, cfg.MaxWorkersPerJob); err != nil {
			fmt.Fprintf(stderr, "arganrun serve: -preload %q: %v\n", spec, err)
			return 1
		}
		fmt.Fprintf(stdout, "preloaded     : %s@%g (%d fragments)\n", name, scale, cfg.MaxWorkersPerJob)
	}

	srv := obsserve.New()
	if err := svc.Attach(srv); err != nil {
		fmt.Fprintf(stderr, "arganrun serve: %v\n", err)
		return 1
	}
	srv.SetRunInfo(map[string]string{
		"driver": "service",
		"cores":  strconv.Itoa(cfg.Cores),
		"queue":  strconv.Itoa(cfg.QueueDepth),
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "arganrun serve: -addr %s: %v\n", *addr, err)
		return 1
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "job service   : http://%s/api/jobs (cores %d, queue %d)\n", bound, cfg.Cores, cfg.QueueDepth)
	fmt.Fprintf(stdout, "telemetry     : http://%s/metrics (also /status /healthz /readyz /debug/pprof)\n", bound)

	// Background writer: one synthetic churn batch per tick against the
	// named dataset. Jobs in flight keep their pinned version; later jobs
	// re-converge incrementally across the bumps.
	var churnStop, churnDone chan struct{}
	if *churn != "" {
		name, scaleStr, _ := strings.Cut(*churn, "@")
		scale := 0.25
		if scaleStr != "" {
			if scale, err = strconv.ParseFloat(scaleStr, 64); err != nil {
				fmt.Fprintf(stderr, "arganrun serve: -churn %q: bad scale %q\n", *churn, scaleStr)
				return 2
			}
		}
		if err := svc.Preload(name, scale, cfg.MaxWorkersPerJob); err != nil {
			fmt.Fprintf(stderr, "arganrun serve: -churn %q: %v\n", *churn, err)
			return 1
		}
		churnStop, churnDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(churnDone)
			tick := time.NewTicker(*churnEvery)
			defer tick.Stop()
			for seed := int64(1); ; seed++ {
				select {
				case <-churnStop:
					return
				case <-tick.C:
					// The drain latch is the authoritative gate: a SIGTERM can
					// flip it between the tick firing and the write landing, so
					// a refused batch during shutdown is a clean stop, not an
					// error to report.
					if svc.Draining() {
						return
					}
					mr, err := svc.Churn(name, scale, seed, *churnOps)
					if err != nil {
						if errors.Is(err, serve.ErrDraining) {
							return
						}
						fmt.Fprintf(stderr, "arganrun serve: churn: %v\n", err)
						continue
					}
					fmt.Fprintf(stdout, "churn         : %s@%g v%d -> v%d (+%d -%d edges, %d fragments rebuilt)\n",
						mr.Dataset, mr.Scale, mr.OldVersion, mr.NewVersion, mr.Inserts, mr.Deletes, mr.RebuiltFragments)
				}
			}
		}()
		fmt.Fprintf(stdout, "churn         : %s every %s, %d ops/batch\n", *churn, *churnEvery, *churnOps)
	}

	sig := <-stop
	if churnStop != nil {
		close(churnStop)
		<-churnDone
	}
	if sig != nil {
		fmt.Fprintf(stdout, "signal        : %v — draining (no new admissions)\n", sig)
	} else {
		fmt.Fprintf(stdout, "stop          : draining (no new admissions)\n")
	}
	stats := svc.Drain(*drainTimeout)
	fmt.Fprintf(stdout, "drained       : %d in-flight jobs finished in %.0fms (%d forced); lifetime %d done / %d failed / %d canceled\n",
		stats.Jobs, stats.WaitMS, stats.Forced, stats.Completed, stats.Failed, stats.Canceled)
	if *drainOut != "" {
		blob, _ := json.MarshalIndent(stats, "", "  ")
		if err := os.WriteFile(*drainOut, blob, 0o644); err != nil {
			fmt.Fprintf(stderr, "arganrun serve: -drain-out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "drain stats   : %s\n", *drainOut)
	}
	return 0
}
