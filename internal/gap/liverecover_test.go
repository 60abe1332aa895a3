package gap

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/fault"
	"argan/internal/graph"
)

// --- exactly-once layer unit tests -----------------------------------------

// recTestState builds a two-worker workerState for worker 0 with the sequence
// layer attached (PageRank: non-idempotent sum aggregation, invertible).
func recTestState(t *testing.T) (*workerState[float64], uint32) {
	t.Helper()
	g := testGraph(true, 11)
	fs := frags(t, g, 2)
	prog := algorithms.NewPageRank()()
	st := newWorkerState(0, fs[0], prog, ace.Query{Eps: 1e-3}, &batchPool[float64]{})
	st.rs = newRecoverState[float64](2, ace.AlgebraOf(prog).Invert)
	lv, ok := st.frag.Local(fs[0].Global(0))
	if !ok {
		t.Fatal("fragment's own vertex not resolvable")
	}
	st.psi[lv] = 0 // clear the program's Init seed so assertions read raw sums
	return st, lv
}

func TestSeqIngestExactlyOnce(t *testing.T) {
	st, lv := recTestState(t)
	vid := st.frag.Global(lv)
	env := func(inc int32, seq uint64, val float64) envelope[float64] {
		return envelope[float64]{from: 1, inc: inc, seq: seq,
			msgs: []ace.Message[float64]{{V: vid, Val: val}}}
	}
	// Out-of-order arrival: seq 2 buffers, seq 1 applies and drains it.
	st.seqIngest(env(0, 2, 0.25))
	if st.psi[lv] != 0 {
		t.Fatalf("gap batch applied early: psi=%v", st.psi[lv])
	}
	st.seqIngest(env(0, 1, 0.5))
	if st.psi[lv] != 0.75 {
		t.Fatalf("after in-order drain psi=%v, want 0.75", st.psi[lv])
	}
	if st.rs.cursor[1] != 2 {
		t.Fatalf("cursor=%d, want 2", st.rs.cursor[1])
	}
	// Duplicates of an applied sequence are dropped.
	st.seqIngest(env(0, 1, 0.5))
	st.seqIngest(env(0, 2, 0.25))
	if st.psi[lv] != 0.75 {
		t.Fatalf("duplicate re-applied: psi=%v", st.psi[lv])
	}
	// A buffered duplicate of a still-gapped sequence is dropped too.
	st.seqIngest(env(0, 5, 1))
	st.seqIngest(env(0, 5, 1))
	if len(st.rs.robuf[1]) != 1 {
		t.Fatalf("robuf holds %d entries, want 1", len(st.rs.robuf[1]))
	}
}

func TestRollbackSenderInvertsUncommitted(t *testing.T) {
	st, lv := recTestState(t)
	vid := st.frag.Global(lv)
	env := func(inc int32, seq uint64, val float64) envelope[float64] {
		return envelope[float64]{from: 1, inc: inc, seq: seq,
			msgs: []ace.Message[float64]{{V: vid, Val: val}}}
	}
	st.seqIngest(env(0, 1, 0.5))
	st.seqIngest(env(0, 2, 0.25))
	if st.psi[lv] != 0.75 {
		t.Fatalf("setup psi=%v, want 0.75", st.psi[lv])
	}
	// Sender 1 rolls back to stable=1: the seq-2 contribution must be
	// un-applied and the cursor lowered so the re-derived stream is taken.
	st.rollbackSender(1, 1, 1)
	if st.psi[lv] != 0.5 {
		t.Fatalf("after rollback psi=%v, want 0.5", st.psi[lv])
	}
	if st.rs.cursor[1] != 1 {
		t.Fatalf("cursor=%d, want 1", st.rs.cursor[1])
	}
	// The old incarnation's uncommitted suffix is now rejected...
	st.seqIngest(env(0, 2, 0.25))
	if st.psi[lv] != 0.5 {
		t.Fatalf("rolled-back suffix re-applied: psi=%v", st.psi[lv])
	}
	// ...while the restarted incarnation's re-derived stream is accepted.
	st.seqIngest(env(1, 2, 0.3))
	if st.psi[lv] != 0.8 {
		t.Fatalf("new-incarnation batch lost: psi=%v, want 0.8", st.psi[lv])
	}
	// Re-delivering the same notice (e.g. via a restore's history fixup)
	// must be a no-op.
	st.rollbackSender(1, 1, 1)
	if st.psi[lv] != 0.8 {
		t.Fatalf("duplicate rollback mutated state: psi=%v", st.psi[lv])
	}
}

func TestRecoverStateBoundLimit(t *testing.T) {
	rs := newRecoverState[float64](2, nil)
	if got := rs.boundLimit(1, 0); got != ^uint64(0) {
		t.Fatalf("no bounds: limit=%d, want max", got)
	}
	rs.bounds[1] = []incBound{{inc: 1, stable: 10}, {inc: 2, stable: 7}}
	if got := rs.boundLimit(1, 0); got != 7 {
		t.Fatalf("inc 0 limit=%d, want min stable 7", got)
	}
	if got := rs.boundLimit(1, 1); got != 7 {
		t.Fatalf("inc 1 limit=%d, want 7 (only inc 2 supersedes)", got)
	}
	if got := rs.boundLimit(1, 2); got != ^uint64(0) {
		t.Fatalf("current inc limit=%d, want max", got)
	}
}

func TestMsgLog(t *testing.T) {
	l := newMsgLog[float64](2)
	for seq := uint64(1); seq <= 4; seq++ {
		l.append(0, 1, seq, []ace.Message[float64]{{V: 0, Val: float64(seq)}})
	}
	if l.size() != 4 || l.retainedFrom(0) != 4 {
		t.Fatalf("size=%d retained=%d, want 4/4", l.size(), l.retainedFrom(0))
	}
	if got := l.after(0, 1, 2); len(got) != 2 || got[0].seq != 3 || got[1].seq != 4 {
		t.Fatalf("after(2) = %+v, want seqs 3,4", got)
	}
	l.prune(0, 1, 2)
	if l.size() != 2 {
		t.Fatalf("after prune size=%d, want 2", l.size())
	}
	// Truncate back to stable=3: the uncommitted seq-4 suffix is dropped.
	l.truncate(0, []uint64{0, 3})
	if l.size() != 1 {
		t.Fatalf("after truncate size=%d, want 1", l.size())
	}
	if got := l.after(0, 1, 0); len(got) != 1 || got[0].seq != 3 {
		t.Fatalf("retained = %+v, want only seq 3", got)
	}
	// Appends after a capped `after` slice must not corrupt earlier reads.
	view := l.after(0, 1, 0)
	l.append(0, 1, 4, []ace.Message[float64]{{V: 0, Val: 4}})
	if len(view) != 1 || view[0].seq != 3 {
		t.Fatalf("reader view mutated by append: %+v", view)
	}
}

// --- end-to-end localized recovery ------------------------------------------

// localFTConfig is liveFTConfig with Recovery spelled out: the one value the
// field still accepts besides "".
func localFTConfig() LiveConfig {
	cfg := liveFTConfig(ModeGAP)
	cfg.Recovery = RecoveryLocal
	return cfg
}

// TestLiveLinkFaultsNonIdempotent: dup/reorder fates against programs whose
// aggregation is NOT idempotent (Δ-PageRank's accumulative sum) and against
// WCC. The exactly-once ingestion layer must keep the fixpoints correct —
// before this layer, a duplicated batch silently double-counted rank mass.
func TestLiveLinkFaultsNonIdempotent(t *testing.T) {
	seed := strconv.FormatInt(chaosSeed(t), 10)
	t.Run("pagerank/local", func(t *testing.T) {
		g := testGraph(true, 13)
		want := algorithms.SeqPageRank(g, 1e-3)
		cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 16}
		cfg.Faults = faultPlan(t, "seed="+seed+"; dup=0.1; reorder=0.1; drop=0.05")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 0 || lm.Recoveries != 0 {
			t.Fatalf("unexpected fault accounting: %+v", lm)
		}
	})
	t.Run("wcc/local", func(t *testing.T) {
		g := testGraph(false, 14)
		want := algorithms.SeqWCC(g)
		cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 16}
		cfg.Faults = faultPlan(t, "seed="+seed+"; dup=0.1; reorder=0.1")
		res, _, err := RunLive(frags(t, g, 4), algorithms.NewWCC(), ace.Query{}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
	})
}

// TestLiveLocalRecoveryMatchesFaultFree mirrors
// TestLiveCrashRecoveryMatchesFaultFree with Recovery set to RecoveryLocal
// explicitly: crashes are repaired by per-worker restore + log replay and the
// answers still match the sequential reference.
func TestLiveLocalRecoveryMatchesFaultFree(t *testing.T) {
	t.Run("sssp", func(t *testing.T) {
		g := testGraph(true, 3)
		want := algorithms.SeqSSSP(g, 0)
		cfg := localFTConfig()
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
			t.Fatalf("localized recovery reported RecoveryMS=%v, want > 0", lm.RecoveryMS)
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		g := testGraph(true, 4)
		want := algorithms.SeqPageRank(g, 1e-3)
		cfg := localFTConfig()
		// The slowdown stretches the run so the crash lands with real
		// uncommitted rank in transit (survivor undo logs must invert it).
		cfg.Faults = faultPlan(t, "crash=2@u60+10; slow=1@0:200:30")
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
	})
	t.Run("wcc_double_crash", func(t *testing.T) {
		g := testGraph(false, 5)
		want := algorithms.SeqWCC(g)
		cfg := localFTConfig()
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
			t.Fatalf("crashes=%d recoveries=%d", lm.Crashes, lm.Recoveries)
		}
	})
}

// opaqueProg hides a program's optional extensions: only the core
// ace.Program methods are promoted through the embedded interface, so the
// driver sees no declared ace.Algebra.
type opaqueProg struct{ ace.Program[float64] }

// opaqueFactory wraps a factory so every instance it yields is opaque.
func opaqueFactory(f ace.Factory[float64]) ace.Factory[float64] {
	return func() ace.Program[float64] { return opaqueProg{f()} }
}

// TestLiveRejectsRecoveryWithoutAlgebra: a restartable crash over a program
// that declares no recovery algebra is refused up front with a typed error —
// there is no second strategy to fall back to — while the same program still
// converges fault-free and under link faults.
func TestLiveRejectsRecoveryWithoutAlgebra(t *testing.T) {
	g := testGraph(true, 3)
	want := algorithms.SeqSSSP(g, 0)
	opaque := opaqueFactory(algorithms.NewSSSP())
	cfg := localFTConfig()
	cfg.Faults = faultPlan(t, "crash=1@u40+10")
	if _, _, err := RunLive(frags(t, g, 4), opaque, ace.Query{Source: 0}, cfg); !errors.Is(err, ErrNoRecoveryAlgebra) {
		t.Fatalf("restartable crash over an opaque program: err = %v, want ErrNoRecoveryAlgebra", err)
	}
	for name, plan := range map[string]string{"fault_free": "", "link_faults": "dup=0.1; reorder=0.1; drop=0.05"} {
		cfg := localFTConfig()
		if plan != "" {
			cfg.Faults = faultPlan(t, plan)
		}
		res, _, err := RunLive(frags(t, g, 4), opaque, ace.Query{Source: 0}, cfg)
		if err != nil {
			t.Fatalf("%s: RunLive: %v", name, err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("%s: vertex %d: got %v want %v", name, v, res.Values[v], w)
			}
		}
	}
}

// TestLiveRecoveryDerivedFromAlgebra: recovery capability is read off the
// declared algebra, not off a per-program marker — Core and Sim declare
// lattice joins and nothing else, so a crash under them is repaired by
// re-ingestion like SSSP's, while Color (replacement laws only) is refused.
func TestLiveRecoveryDerivedFromAlgebra(t *testing.T) {
	plan := "seed=" + strconv.FormatInt(chaosSeed(t), 10) + "; crash=1@u40+10; dup=0.05; reorder=0.05"
	t.Run("core", func(t *testing.T) {
		g := graph.PowerLaw(graph.GenConfig{N: 1200, M: 9000, Directed: false, Seed: 24})
		want := algorithms.SeqCore(g)
		cfg := liveFTConfig(ModeGAP)
		cfg.Faults = faultPlan(t, plan)
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewCore(), ace.Query{}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("core[%d] = %d, want %d", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 1 || lm.Recoveries < 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 1 and >=1", lm.Crashes, lm.Recoveries)
		}
	})
	t.Run("sim", func(t *testing.T) {
		g := graph.KnowledgeBase(graph.GenConfig{N: 1000, M: 5000, Seed: 25, Labels: 8})
		pat := algorithms.RandomPattern(g, 4, 5, 77)
		want := algorithms.SeqSim(g, pat)
		cfg := liveFTConfig(ModeGAP)
		cfg.Faults = faultPlan(t, plan)
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewSim(), ace.Query{Pattern: pat}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("sim[%d] = %b, want %b", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 1 {
			t.Fatalf("crashes=%d, want 1", lm.Crashes)
		}
	})
	t.Run("color", func(t *testing.T) {
		g := testGraph(false, 3)
		cfg := liveFTConfig(ModeGAP)
		cfg.Faults = faultPlan(t, plan)
		if _, _, err := RunLive(frags(t, g, 4), algorithms.NewColor(), ace.Query{}, cfg); !errors.Is(err, ErrNoRecoveryAlgebra) {
			t.Fatalf("err = %v, want ErrNoRecoveryAlgebra", err)
		}
	})
}

// TestLiveUnknownRecoveryStrategy: the Recovery field accepts only "" and
// RecoveryLocal; the deleted "global" is as unknown as any other word.
func TestLiveUnknownRecoveryStrategy(t *testing.T) {
	g := testGraph(true, 3)
	for _, name := range []string{"zonal", "global"} {
		cfg := LiveConfig{Mode: ModeGAP, Recovery: name}
		if _, _, err := RunLive(frags(t, g, 2), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg); err == nil ||
			!strings.Contains(err.Error(), "unknown recovery strategy") {
			t.Fatalf("Recovery %q: want unknown-strategy error, got %v", name, err)
		}
	}
}

// TestLiveChaosSoak is the acceptance soak: deterministic crash+drop+dup+
// reorder storms (seeded from CHAOS_SEED) over SSSP, PageRank and WCC. Every
// run must reach the sequential fixpoint. The subtests keep the "local/"
// prefix they had when a second strategy ran beside them, so their history
// in CI stays one series.
func TestLiveChaosSoak(t *testing.T) {
	nSeeds := 5
	if testing.Short() {
		nSeeds = 2
	}
	base := chaosSeed(t)
	for i := 0; i < nSeeds; i++ {
		seed := base + int64(i)
		storm := fault.Storm(seed, 4, fault.StormOpts{
			Crashes: 2, Span: 300, Restart: 5,
			Drop: 0.04, Dup: 0.04, Reorder: 0.05,
		})
		for _, app := range []string{"sssp", "pagerank", "wcc"} {
			t.Run(fmt.Sprintf("local/seed%d/%s", seed, app), func(t *testing.T) {
				cfg := liveFTConfig(ModeGAP)
				cfg.Faults = storm
				switch app {
				case "sssp":
					g := testGraph(true, seed)
					want := algorithms.SeqSSSP(g, 0)
					res, _, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
					if err != nil {
						t.Fatalf("RunLive(%s): %v", storm, err)
					}
					for v, w := range want {
						if res.Values[v] != w {
							t.Fatalf("vertex %d: got %v want %v (storm %s)", v, res.Values[v], w, storm)
						}
					}
				case "pagerank":
					g := testGraph(true, seed)
					want := algorithms.SeqPageRank(g, 1e-3)
					res, _, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
					if err != nil {
						t.Fatalf("RunLive(%s): %v", storm, err)
					}
					for v, w := range want {
						if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
							t.Fatalf("vertex %d: got %v want %v (storm %s)", v, res.Values[v], w, storm)
						}
					}
				case "wcc":
					g := testGraph(false, seed)
					want := algorithms.SeqWCC(g)
					res, _, err := RunLive(frags(t, g, 4), algorithms.NewWCC(), ace.Query{}, cfg)
					if err != nil {
						t.Fatalf("RunLive(%s): %v", storm, err)
					}
					for v, w := range want {
						if res.Values[v] != w {
							t.Fatalf("vertex %d: got %v want %v (storm %s)", v, res.Values[v], w, storm)
						}
					}
				}
			})
		}
	}
}

// TestLiveWatchdogStuckDetail: the watchdog's error must now carry the
// per-worker transport diagnosis (status, ledger counters, heartbeat age) so
// a chaos-CI hang is debuggable from the log alone.
func TestLiveWatchdogStuckDetail(t *testing.T) {
	g := testGraph(true, 3)
	cfg := LiveConfig{
		Mode:             ModeGAP,
		CheckEvery:       16,
		HeartbeatTimeout: 50 * 1e6, // 50ms
		Watchdog:         400 * 1e6,
	}
	cfg.Faults = faultPlan(t, "crash=1@u30") // permanent: no restart
	_, _, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err == nil {
		t.Fatal("want watchdog error, got nil")
	}
	for _, want := range []string{"worker 0 [live]", "worker 1 [dead", "sent=", "recv=", "beat="} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stuck detail missing %q in: %v", want, err)
		}
	}
}
