package main

// Crash-durability drills for the resident service binary: the kill -9
// restart soak (real process, real SIGKILL, torn WAL tail, exact-version
// resume with a warm first job) and the churn-drain regression that pins
// the writer's clean stop on SIGTERM.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"argan/internal/fault"
	"argan/internal/graph"
	"argan/internal/serve"
)

// TestServeChurnDrainClean is the regression for the churn writer racing
// the drain latch: with a 1ms churn period, a SIGTERM lands between a tick
// firing and its batch being applied essentially every run. The writer
// must stop silently — no "churn:" errors on stderr — and exit 0.
func TestServeChurnDrainClean(t *testing.T) {
	for i := 0; i < 3; i++ {
		var stdout, stderr syncBuffer
		stop := make(chan os.Signal, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- runServe([]string{
				"-addr", "127.0.0.1:0", "-cores", "2",
				"-churn", "HW@0.02", "-churn-every", "1ms", "-churn-ops", "8",
				"-state-dir", t.TempDir(), "-snapshot-every", "0",
			}, &stdout, &stderr, stop)
		}()

		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(stdout.String(), "churn         : HW@0.02 v") {
			if time.Now().After(deadline) {
				t.Fatalf("churn never started; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
			}
			time.Sleep(time.Millisecond)
		}
		stop <- syscall.SIGTERM
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("exit code = %d; stderr:\n%s", code, stderr.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("drain never completed under 1ms churn")
		}
		if s := stderr.String(); strings.Contains(s, "churn:") {
			t.Fatalf("churn writer reported errors during drain:\n%s", s)
		}
	}
}

// TestServeKillNineRestartSoak is the acceptance drill from the durability
// work: run the real binary with -state-dir, storm it with mutations and
// jobs, SIGKILL it mid-flight, tear the WAL tail the way a crashed append
// would, restart, and require byte-exact resume — the version matches the
// last acknowledged mutation, recovery reports the torn tail truncated,
// and the first post-restart job re-converges incrementally, verified.
//
// RESTART_RACE=1 builds the binary with -race; RESTART_STATS_OUT=FILE
// saves the post-restart /api/service JSON as a CI artifact.
func TestServeKillNineRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("real-binary restart soak skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "arganrun")
	buildArgs := []string{"build"}
	if os.Getenv("RESTART_RACE") == "1" {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", bin, "argan/cmd/arganrun")
	if out, err := exec.Command("go", buildArgs...).CombinedOutput(); err != nil {
		t.Fatalf("go %v: %v\n%s", buildArgs, err, out)
	}

	stateDir := filepath.Join(tmp, "state")
	startServe := func() (*exec.Cmd, *syncBuffer, string) {
		var stdout syncBuffer
		cmd := exec.Command(bin, "serve",
			"-addr", "127.0.0.1:0", "-cores", "4",
			"-preload", "HW@0.05",
			"-state-dir", stateDir, "-snapshot-every", "150ms")
		cmd.Stdout = &stdout
		cmd.Stderr = &stdout
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", bin, err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if m := serveAddrRe.FindStringSubmatch(stdout.String()); m != nil {
				return cmd, &stdout, "http://" + m[1]
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never announced its address; output:\n%s", stdout.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	probe := func(c *serve.Client, app string) *serve.JobResult {
		t.Helper()
		id, err := c.Submit(serve.JobSpec{
			App: app, Dataset: "HW", Scale: 0.05, Workers: 2, Source: 1, Verify: true,
		})
		if err != nil {
			t.Fatalf("%s submit: %v", app, err)
		}
		if st, err := c.WaitTerminal(id, 60*time.Second); err != nil || st.State != serve.StateDone {
			t.Fatalf("%s: %+v err %v", app, st, err)
		}
		res, err := c.Result(id)
		if err != nil {
			t.Fatalf("%s result: %v", app, err)
		}
		if res.Wrong != 0 {
			t.Fatalf("%s diverged: %d wrong of %d", app, res.Wrong, res.Vertices)
		}
		return res
	}

	cmd, _, base := startServe()
	defer func() { _ = cmd.Process.Kill() }()
	c := &serve.Client{Base: base, Retries: 10, Backoff: 50 * time.Millisecond}

	// Converge a pr fixpoint at v0 and wait for the snapshot loop to
	// persist it, so the restart has warm state older than the WAL head —
	// the reseed-plus-bridge path, not the trivial same-version one.
	probe(c, "pr")
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Stats()
		if err == nil && st.Snapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never flushed: stats %+v err %v", st, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Mutation + job storm: six acknowledged batches interleaved with sssp
	// jobs. Durable-on-ack means every version the client saw acknowledged
	// must survive the SIGKILL.
	var lastVersion uint64
	for i := 0; i < 6; i++ {
		mr, err := c.Mutate("HW", serve.MutateRequest{
			Scale: 0.05,
			Inserts: []graph.Edge{
				{Src: 1, Dst: graph.VID(3 + i), W: 1.5 + float64(i)},
				{Src: 2, Dst: graph.VID(4 + i), W: 2.5 + float64(i)},
			},
		})
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		lastVersion = mr.NewVersion
		if i%2 == 1 {
			probe(c, "sssp")
		}
	}
	if lastVersion != 6 {
		t.Fatalf("storm ended at v%d, want v6", lastVersion)
	}

	// SIGKILL: no drain, no final snapshot, no WAL close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	_ = cmd.Wait()

	// A crashed append leaves a torn frame past the committed tail; recovery
	// must cut it without losing any acknowledged record.
	walPath := filepath.Join(stateDir, "HW@0.05", "wal.log")
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("wal missing after kill: %v", err)
	}
	if err := fault.InjectDisk(walPath, fault.DiskTornTail, 42); err != nil {
		t.Fatalf("InjectDisk: %v", err)
	}

	cmd2, out2, base2 := startServe()
	defer func() { _ = cmd2.Process.Kill() }()
	c2 := &serve.Client{Base: base2, Retries: 10, Backoff: 50 * time.Millisecond}

	if s := out2.String(); !strings.Contains(s, "recovered     : 1 datasets") ||
		!strings.Contains(s, " ms, torn tail truncated") {
		t.Fatalf("recovery banner missing or wrong:\n%s", s)
	}
	infos, err := c2.Datasets()
	if err != nil || len(infos) != 1 {
		t.Fatalf("datasets after restart: %+v err %v", infos, err)
	}
	if infos[0].Version != lastVersion {
		t.Fatalf("resumed at v%d, want the last acknowledged v%d", infos[0].Version, lastVersion)
	}
	st, err := c2.Stats()
	if err != nil || st.Recovery == nil {
		t.Fatalf("stats after restart: %+v err %v", st, err)
	}
	if st.Recovery.Records != int(lastVersion) || !st.Recovery.TruncatedTail {
		t.Fatalf("recovery stats = %+v, want %d records with the torn tail truncated", st.Recovery, lastVersion)
	}
	if st.Recovery.WarmReseeded < 1 {
		t.Fatalf("recovery stats = %+v, want at least one warm fixpoint reseeded", st.Recovery)
	}
	if st.Recovery.DurationMS <= 0 {
		t.Fatalf("recovery stats = %+v, want the replay's duration", st.Recovery)
	}

	// The acceptance gate: the first post-restart job must be incremental
	// from the reseeded fixpoint and verified against the reference.
	res := probe(c2, "pr")
	if !res.Incremental || res.Version != lastVersion {
		t.Fatalf("first post-restart job: incremental=%v version=%d (fallback %q), want warm v%d",
			res.Incremental, res.Version, res.Fallback, lastVersion)
	}

	// Save the post-restart service stats as the CI artifact.
	if dst := os.Getenv("RESTART_STATS_OUT"); dst != "" {
		resp, err := http.Get(base2 + "/api/service")
		if err != nil {
			t.Fatalf("fetch /api/service: %v", err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read /api/service: %v", err)
		}
		var pretty json.RawMessage = blob
		enc, _ := json.MarshalIndent(pretty, "", "  ")
		if err := os.WriteFile(dst, append(enc, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", dst, err)
		}
		fmt.Fprintf(os.Stderr, "restart soak: recovery stats saved to %s\n", dst)
	}

	// Clean SIGTERM exit to prove the recovered service drains normally.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sigterm: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recovered service exited dirty: %v\n%s", err, out2.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("recovered service never drained:\n%s", out2.String())
	}
}
