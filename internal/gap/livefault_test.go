package gap

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/obs"
)

// chaosSeed lets CI shake the deterministic fault streams: the chaos job
// runs these tests under several CHAOS_SEED values.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// liveFTConfig is the aggressive fault-tolerance tuning the tests use so
// crash → detect → restore → replay completes in tens of milliseconds.
func liveFTConfig(mode Mode) LiveConfig {
	return LiveConfig{
		Mode:             mode,
		CheckEvery:       16,
		CheckpointEvery:  15 * time.Millisecond,
		HeartbeatTimeout: 60 * time.Millisecond,
		Watchdog:         10 * time.Second,
	}
}

// TestLiveCrashRecoveryMatchesFaultFree is the live half of the tentpole
// acceptance criterion: a run that loses a worker mid-computation and
// recovers it from its last checkpoint converges to the same
// answers as a fault-free run — with real goroutine deaths, heartbeat
// detection and a real restart.
func TestLiveCrashRecoveryMatchesFaultFree(t *testing.T) {
	t.Run("sssp", func(t *testing.T) {
		g := testGraph(true, 3)
		want := algorithms.SeqSSSP(g, 0)
		cfg := liveFTConfig(ModeGAP)
		cfg.Faults = faultPlan(t, "crash=1@u40+10")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 1 || lm.Recoveries < 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 1 and >=1", lm.Crashes, lm.Recoveries)
		}
		if lm.RecoveryMS <= 0 {
			t.Fatalf("recovery reported RecoveryMS=%v, want > 0", lm.RecoveryMS)
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		g := testGraph(true, 4)
		want := algorithms.SeqPageRank(g, 1e-3)
		cfg := liveFTConfig(ModeGAP)
		// The slowdown stretches the run so checkpoints land mid-stream
		// and the restore has accumulated (non-idempotent) rank to bring
		// back, not just the initial state.
		cfg.Faults = faultPlan(t, "crash=2@u60+10; slow=1@0:200:30")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			// Parked sub-eps deltas depend on execution order, so ranks
			// legitimately differ within ~eps of each other (same bound
			// the cross-mode tests accept).
			if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 1 || lm.Recoveries < 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 1 and >=1", lm.Crashes, lm.Recoveries)
		}
	})
	t.Run("wcc", func(t *testing.T) {
		g := testGraph(false, 5)
		want := algorithms.SeqWCC(g)
		cfg := liveFTConfig(ModeGAP)
		cfg.Faults = faultPlan(t, "crash=0@u40+5; crash=3@u80+15")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewWCC(), ace.Query{}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 2 || lm.Recoveries < 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 2 and >=1", lm.Crashes, lm.Recoveries)
		}
	})
}

// TestLiveChaosMix layers crashes, slowdowns and link faults (seeded from
// CHAOS_SEED so CI explores different deterministic streams) over an SSSP
// run; the answers must still be exact.
func TestLiveChaosMix(t *testing.T) {
	g := testGraph(true, 7)
	want := algorithms.SeqSSSP(g, 0)
	cfg := liveFTConfig(ModeGAP)
	cfg.Faults = faultPlan(t,
		"seed="+strconv.FormatInt(chaosSeed(t), 10)+
			"; crash=2@u50+10; slow=0@0:100:8; drop=0.08; dup=0.05; reorder=0.05")
	res, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	for v, w := range want {
		if res.Values[v] != w {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
		}
	}
	if lm.Crashes != 1 {
		t.Fatalf("crashes=%d, want 1", lm.Crashes)
	}
}

// TestLiveLinkFaultsIdempotent: drop/dup/reorder without crashes must not
// change SSSP's fixpoint (drop is a lossless late retransmit).
func TestLiveLinkFaultsIdempotent(t *testing.T) {
	g := testGraph(true, 9)
	want := algorithms.SeqSSSP(g, 0)
	cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 16}
	cfg.Faults = faultPlan(t,
		"seed="+strconv.FormatInt(chaosSeed(t), 10)+"; drop=0.1; dup=0.08; reorder=0.08")
	res, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	for v, w := range want {
		if res.Values[v] != w {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
		}
	}
	if lm.Crashes != 0 || lm.Recoveries != 0 {
		t.Fatalf("unexpected crash accounting: %+v", lm)
	}
}

// TestLiveDeadWorkerWatchdog is the regression test for the liveCoord
// deadlock: a permanently dead worker used to hang termination detection
// forever (its unacknowledged messages keep sent != recv). The watchdog
// must now fail the run with a descriptive error within its deadline.
func TestLiveDeadWorkerWatchdog(t *testing.T) {
	g := testGraph(true, 3)
	cfg := LiveConfig{
		Mode:             ModeGAP,
		CheckEvery:       16,
		HeartbeatTimeout: 50 * time.Millisecond,
		Watchdog:         400 * time.Millisecond,
		NoRecover:        true,
	}
	cfg.Faults = faultPlan(t, "crash=1@u30") // permanent: no restart
	start := time.Now()
	_, _, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want watchdog error, got nil")
	}
	if !strings.Contains(err.Error(), "stuck for") || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("watchdog error not descriptive: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v, far beyond its deadline", elapsed)
	}
}

// TestLiveFaultTraceContent: the live fault machinery must be visible in
// the exported Chrome trace — crash/detect/restart/checkpoint instants and
// a recovery span.
func TestLiveFaultTraceContent(t *testing.T) {
	g := testGraph(true, 4)
	rec := obs.NewRecorder(5, 1<<14)
	cfg := liveFTConfig(ModeGAP)
	cfg.Tracer = rec
	cfg.Faults = faultPlan(t, "crash=1@u40+10; slow=2@0:300:40")
	if _, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg); err != nil {
		t.Fatalf("RunLive: %v", err)
	} else if lm.Recoveries < 1 {
		t.Fatalf("recoveries=%d, want >=1", lm.Recoveries)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"crash","ph":"i"`,
		`"name":"detect","ph":"i"`,
		`"name":"restart","ph":"i"`,
		`"name":"ckpt","ph":"i"`,
		`"name":"recovery","ph":"B"`,
		`"name":"recovery","ph":"E"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestLiveCoordEdgeCases exercises the termination detector directly.
func TestLiveCoordEdgeCases(t *testing.T) {
	t.Run("zero_workers", func(t *testing.T) {
		c := newLiveCoord(0)
		select {
		case <-c.done:
		default:
			t.Fatal("zero-worker coordinator should be quiescent immediately")
		}
	})
	t.Run("idle_busy_idle_same_round", func(t *testing.T) {
		c := newLiveCoord(2)
		c.report(1, true, 0, 0)
		c.report(0, true, 1, 0) // idle, but one sent message unaccounted
		select {
		case <-c.done:
			t.Fatal("closed with a message in transit")
		default:
		}
		c.report(1, false, 0, 0) // woke up on the in-transit message
		c.report(1, true, 0, 1)  // consumed it and went idle again
		select {
		case <-c.done:
		default:
			t.Fatal("should be quiescent: all idle, sent==recv")
		}
	})
	t.Run("duplicated_batch_counts_balance", func(t *testing.T) {
		// A duplicated batch counts on both sides: 2 sent, 2 received.
		c := newLiveCoord(2)
		c.report(0, true, 2, 0)
		select {
		case <-c.done:
			t.Fatal("closed with duplicated batch unaccounted")
		default:
		}
		c.report(1, true, 0, 2)
		select {
		case <-c.done:
		default:
			t.Fatal("should close once duplicate deliveries are counted")
		}
	})
	t.Run("failure_wins", func(t *testing.T) {
		c := newLiveCoord(1)
		c.fail(errNoFragments)
		if c.failure() == nil {
			t.Fatal("failure not recorded")
		}
		c.report(0, true, 0, 0) // must not panic or un-fail
		if c.failure() == nil {
			t.Fatal("failure lost after report")
		}
	})
}

// TestLiveDropRetransmitAsync is the regression test for the inline
// retry sleep: a dropped batch used to stall the sender's compute loop
// for the full retry delay, delaying every unrelated send behind it.
// Retransmission is now asynchronous, so even with EVERY batch on one
// link dropped and a long retry delay, total wall time must stay far
// below the serial sum of the retry sleeps the old code would pay —
// while the redelivered batches still make the answers exact.
func TestLiveDropRetransmitAsync(t *testing.T) {
	g := testGraph(true, 6)
	want := algorithms.SeqSSSP(g, 0)
	const retryMS = 100
	cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 16}
	cfg.Faults = faultPlan(t, "seed=5; drop=1>0:1; retry=100")
	start := time.Now()
	res, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	for v, w := range want {
		if res.Values[v] != w {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
		}
	}
	if lm.Retransmits < 2 {
		t.Fatalf("retransmits=%d, plan should drop every 1->0 batch", lm.Retransmits)
	}
	serial := time.Duration(lm.Retransmits) * retryMS * time.Millisecond
	t.Logf("retransmits=%d elapsed=%v (inline sleeps would serialize to >= %v)",
		lm.Retransmits, elapsed, serial)
	if lm.Retransmits >= 4 && elapsed >= serial/2 {
		t.Fatalf("run took %v with %d retransmits: retry sleeps appear to serialize on the compute loop (old inline behavior would need >= %v)",
			elapsed, lm.Retransmits, serial)
	}
}
