package gap

import (
	"fmt"
	"math"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/fault"
	"argan/internal/graph"
	"argan/internal/mem"
)

// spillGov returns a governor with a test-scoped spill directory.
func spillGov(t *testing.T, budget int64) *mem.Governor {
	t.Helper()
	gov := mem.NewGovernor(budget, t.TempDir())
	t.Cleanup(func() { gov.Close() })
	return gov
}

// unspillAll returns shared fragments' edge payloads to RAM so a StageStream
// run cannot leak spilled state into the next test.
func unspillAll(t *testing.T, fs []*graph.Fragment) {
	t.Helper()
	for _, f := range fs {
		if _, err := f.UnspillEdges(); err != nil {
			t.Fatalf("UnspillEdges: %v", err)
		}
	}
}

// TestMsgLogSpillRoundTrip drives the sender-side log through the full
// spill life cycle: under stage pressure appended entries page to disk, a
// fetch reads them back bit-identically, and prune/truncate release spill
// accounting just like resident entries.
func TestMsgLogSpillRoundTrip(t *testing.T) {
	gov := spillGov(t, 1<<20)
	l := newMsgLog[float64](2)
	wire := msgWireSize[float64]()
	if wire <= 0 {
		t.Fatalf("float64 messages must have a fixed wire size, got %d", wire)
	}
	l.configure(gov, wire, 0)
	// Saturate the budget with external pressure so every append spills.
	gov.SetExternal(2 << 20)

	batch := func(seed int) []ace.Message[float64] {
		msgs := make([]ace.Message[float64], 8)
		for i := range msgs {
			msgs[i] = ace.Message[float64]{V: graph.VID(seed + i), Val: float64(seed) + float64(i)/8}
		}
		return msgs
	}
	for seq := uint64(1); seq <= 20; seq++ {
		l.append(0, 1, seq, batch(int(seq)*100))
	}

	entries := l.after(0, 1, 0)
	if len(entries) != 20 {
		t.Fatalf("after: got %d entries, want 20", len(entries))
	}
	spilled := 0
	for _, e := range entries {
		if e.spilled {
			spilled++
		}
		msgs, err := l.fetch(e)
		if err != nil {
			t.Fatalf("fetch seq %d: %v", e.seq, err)
		}
		want := batch(int(e.seq) * 100)
		if len(msgs) != len(want) {
			t.Fatalf("seq %d: %d messages, want %d", e.seq, len(msgs), len(want))
		}
		for i := range want {
			if msgs[i] != want[i] {
				t.Fatalf("seq %d msg %d: got %+v want %+v", e.seq, i, msgs[i], want[i])
			}
		}
	}
	if spilled == 0 {
		t.Fatal("saturated governor paged nothing to the spill tier")
	}
	ram, disk, peak := l.bytes()
	if disk == 0 || peak == 0 {
		t.Fatalf("accounting: ram=%d disk=%d peak=%d, want disk and peak > 0", ram, disk, peak)
	}
	if got := l.retainedToward(1); got != ram+disk {
		t.Fatalf("retainedToward(1)=%d, want ram+disk=%d", got, ram+disk)
	}

	// Prune half the prefix, truncate the rest: all accounting must drain.
	l.prune(0, 1, 10)
	l.truncate(0, []uint64{0, 0})
	ram, disk, _ = l.bytes()
	if ram != 0 || disk != 0 {
		t.Fatalf("after prune+truncate: ram=%d disk=%d, want 0/0", ram, disk)
	}
	if l.size() != 0 {
		t.Fatalf("after prune+truncate: %d entries retained", l.size())
	}
}

// TestSnapPageRoundTrip pages a local checkpoint out and materializes it
// back, twice — restores must not consume the page.
func TestSnapPageRoundTrip(t *testing.T) {
	gov := spillGov(t, 1<<20)
	sp, err := gov.NewSpiller("ckpt-test")
	if err != nil {
		t.Fatal(err)
	}
	base := stateSnap[float64]{
		psi:    []float64{1.5, 2.5, 3.5},
		active: []uint32{7, 9},
		out: [][]ace.Message[float64]{
			{{V: 1, Val: 0.25}, {V: 2, Val: 0.75}},
			nil,
		},
	}
	want := stateSnap[float64]{
		psi:    append([]float64(nil), base.psi...),
		active: append([]uint32(nil), base.active...),
		out: [][]ace.Message[float64]{
			append([]ace.Message[float64](nil), base.out[0]...),
			nil,
		},
	}
	pg, err := spillSnap(sp, &base)
	if err != nil {
		t.Fatalf("spillSnap: %v", err)
	}
	if base.psi != nil || base.active != nil || base.out != nil {
		t.Fatal("spillSnap must nil the paged fields")
	}
	for round := 0; round < 2; round++ {
		var got stateSnap[float64]
		if err := unspillSnap(pg, &got); err != nil {
			t.Fatalf("unspillSnap round %d: %v", round, err)
		}
		if len(got.psi) != 3 || got.psi[1] != want.psi[1] ||
			len(got.active) != 2 || got.active[0] != want.active[0] ||
			len(got.out) != 2 || len(got.out[0]) != 2 || got.out[0][1] != want.out[0][1] || got.out[1] != nil {
			t.Fatalf("round %d: restored snapshot differs: %+v", round, got)
		}
	}
}

// TestLogRetentionByteCap: a slow-to-checkpoint receiver must not grow any
// peer's retained log past the configured byte cap — the monitor forces an
// out-of-turn checkpoint on it instead. No governor: the cap works alone.
func TestLogRetentionByteCap(t *testing.T) {
	g := testGraph(true, 21)
	want := algorithms.SeqPageRank(g, 1e-3)
	run := func(capBytes int64) *LiveMetrics {
		cfg := localFTConfig()
		cfg.LogBytesSoftCap = capBytes
		// Worker 1 computes at 1/25 speed for most of the run: it drains and
		// acks (so the run stays live) but checkpoints rarely on its own,
		// keeping every peer's rows toward it unprunable. The late crash of
		// worker 3 arms the local-recovery machinery (sender logs, replay)
		// the retention cap governs.
		cfg.Faults = faultPlan(t, "slow=1@0:400:25; crash=3@u400+10")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
		if err != nil {
			t.Fatalf("RunLive(cap=%d): %v", capBytes, err)
		}
		for v, w := range want {
			if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
				t.Fatalf("cap=%d vertex %d: got %v want %v", capBytes, v, res.Values[v], w)
			}
		}
		return lm
	}
	const capBytes = 8 << 10
	capped := run(capBytes)
	uncapped := run(0)
	t.Logf("log peak: capped=%d uncapped=%d forced=%d", capped.LogPeakBytes, uncapped.LogPeakBytes, capped.ForcedCkpts)
	if capped.ForcedCkpts == 0 {
		t.Fatal("retention cap never forced a checkpoint on the slow receiver")
	}
	// Retention overshoots between monitor ticks (forcing + sender throttle
	// take effect once per tick, and the slow receiver still has to reach a
	// safe point), but the global peak must stay within a modest multiple of
	// the per-receiver cap — nowhere near the unbounded growth of the
	// uncapped run. 32x leaves headroom for -race timing skew; measured
	// peaks sit around 16-17x the cap.
	bound := int64(32) * capBytes
	if capped.LogPeakBytes > bound {
		t.Fatalf("capped log peak %d exceeds bound %d", capped.LogPeakBytes, bound)
	}
	if uncapped.ForcedCkpts != 0 {
		t.Fatalf("uncapped run forced %d checkpoints", uncapped.ForcedCkpts)
	}
	if uncapped.LogPeakBytes <= capped.LogPeakBytes {
		t.Skipf("uncapped peak %d not above capped %d on this machine; cap not exercised",
			uncapped.LogPeakBytes, capped.LogPeakBytes)
	}
	if capped.LogPeakBytes > uncapped.LogPeakBytes/2 {
		t.Fatalf("cap barely bent the curve: capped peak %d vs uncapped %d",
			capped.LogPeakBytes, uncapped.LogPeakBytes)
	}
}

// TestLiveMemCappedChaosSoak is the tentpole's acceptance soak: crash storms
// under a budget a fraction of what the run needs, so recovery state pages
// through the spill tier — and replay after the crash must still converge to
// the sequential reference exactly, reading logs across the RAM/disk
// boundary, without a single global epoch bump.
func TestLiveMemCappedChaosSoak(t *testing.T) {
	nSeeds := 3
	if testing.Short() {
		nSeeds = 1
	}
	base := chaosSeed(t)
	var spilled, replayedDisk int64
	for i := 0; i < nSeeds; i++ {
		seed := base + int64(i)
		g := testGraph(true, seed)
		want := algorithms.SeqPageRank(g, 1e-3)
		fs := frags(t, g, 4)
		storm := fault.Storm(seed, 4, fault.StormOpts{
			Crashes: 2, Span: 300, Restart: 5,
			Drop: 0.02, Dup: 0.02, Reorder: 0.03,
		})
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			gov := spillGov(t, 192<<10)
			cfg := localFTConfig()
			cfg.Faults = storm
			cfg.Mem = gov
			res, lm, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
			unspillAll(t, fs)
			if err != nil {
				t.Fatalf("RunLive(%s): %v", storm, err)
			}
			for v, w := range want {
				if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
					t.Fatalf("vertex %d: got %v want %v (storm %s)", v, res.Values[v], w, storm)
				}
			}
			if lm.Crashes == 0 || lm.Recoveries == 0 {
				t.Fatalf("storm injected nothing: crashes=%d recoveries=%d", lm.Crashes, lm.Recoveries)
			}
			if lm.SpilledBytes == 0 {
				t.Fatalf("capped run (budget 192KiB, peak %d) never spilled", lm.MemPeakBytes)
			}
			spilled += lm.SpilledBytes
			replayedDisk += lm.ReplayedFromDisk
		})
	}
	if spilled == 0 {
		t.Fatal("no soak iteration spilled")
	}
	if replayedDisk == 0 {
		t.Skip("no crash landed while its log suffix was spilled; replay-from-disk not exercised this round")
	}
}

// TestEtaReseedAfterRestart: a worker restarting into a deep replayed
// backlog must re-enter with a finer check granularity (η reseed), restoring
// the configured bound at its next idle transition.
func TestEtaReseedAfterRestart(t *testing.T) {
	g := testGraph(true, 22)
	want := algorithms.SeqPageRank(g, 1e-3)
	cfg := localFTConfig()
	cfg.CheckEvery = 64 // coarse, so a reseed has room to halve
	cfg.Faults = faultPlan(t, "crash=1@u200+10")
	res, lm, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	for v, w := range want {
		if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
		}
	}
	if lm.Crashes != 1 || lm.Recoveries < 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1 and >=1", lm.Crashes, lm.Recoveries)
	}
	if lm.Replayed >= 64*4 && lm.EtaReseeds == 0 {
		t.Fatalf("replayed %d messages into a CheckEvery=64 worker without an eta reseed", lm.Replayed)
	}
}

// TestSqueezeDrivesLadder: injected synthetic pressure (fault plan "squeeze")
// alone must climb every rung — forced checkpoints, sender throttling and
// streamed edge partitions — while the answers stay correct.
func TestSqueezeDrivesLadder(t *testing.T) {
	g := testGraph(true, 23)
	want := algorithms.SeqPageRank(g, 1e-3)
	fs := frags(t, g, 4)
	gov := spillGov(t, 8<<20) // ample budget: only the squeeze creates pressure
	cfg := localFTConfig()
	cfg.Mem = gov
	// 64 MiB of phantom usage for the first 10 s pins the stage at
	// StageStream from the first monitor tick. The crash arms local
	// recovery (rung 1 needs a sender log to bound) and the slowdown
	// stretches the run across enough monitor ticks for every rung.
	cfg.Faults = faultPlan(t, "squeeze=0:10000:67108864; crash=1@u200+10; slow=2@0:200:10")
	res, lm, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
	unspillAll(t, fs)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	for v, w := range want {
		if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
		}
	}
	if lm.MemPeakBytes < 64<<20 {
		t.Fatalf("peak %d does not include the injected 64MiB squeeze", lm.MemPeakBytes)
	}
	if lm.ForcedCkpts == 0 {
		t.Fatal("rung 1 never fired: no forced checkpoints under StageStream pressure")
	}
	if lm.Throttles == 0 {
		t.Fatal("rung 2 never fired: no sender throttling under StageStream pressure")
	}
	if lm.EdgeSpills == 0 {
		t.Fatal("rung 3 never fired: no edge partitions streamed under StageStream pressure")
	}
	if lm.SpilledBytes == 0 {
		t.Fatal("StageStream pressure paged nothing to the spill tier")
	}
}

// TestParseBytesFlagSizes mirrors arganrun's -mem-budget suffix grammar at
// the driver level: a LiveConfig carrying a bounded governor must resolve
// LogBytesSoftCap to a quarter of the budget by default.
func TestLogCapDefaultsFromBudget(t *testing.T) {
	gov := spillGov(t, 1<<20)
	cfg := LiveConfig{Mode: ModeGAP, Mem: gov}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.LogBytesSoftCap != (1<<20)/4 {
		t.Fatalf("LogBytesSoftCap=%d, want budget/4=%d", c.LogBytesSoftCap, (1<<20)/4)
	}
	cfg = LiveConfig{Mode: ModeGAP, Mem: gov, LogBytesSoftCap: -1}
	if c, err = cfg.withDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.LogBytesSoftCap != 0 {
		t.Fatalf("LogBytesSoftCap=-1 must disable the cap, got %d", c.LogBytesSoftCap)
	}
}
