package gap

// Control-plane features the multi-tenant job service leans on: client
// cancellation through LiveConfig.Cancel, panic containment (a panicking
// worker fails its own run instead of crashing the process), survivor-side
// granularity reseeds after a neighbor restart, and HealthTracker state
// transitions across restart/resurrect/drain.

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/obs"
)

func TestLiveCancelMidRun(t *testing.T) {
	g := testGraph(true, 41)
	cancel := make(chan struct{})
	health := &HealthTracker{}
	cfg := LiveConfig{
		Mode: ModeGAP, CheckEvery: 1, Cancel: cancel, Health: health,
		// Slow every worker so the run is reliably still running when
		// the cancellation lands.
		Faults: faultPlan(t, "slow=0@0:30000:40; slow=1@0:30000:40"),
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, _, err := RunLive(frags(t, g, 2), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The whole point of Cancel: the run aborts promptly instead of
	// grinding through the remaining (slowed) waves.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	h := health.Health()
	if h.Running || h.Failed != 1 {
		t.Fatalf("health after cancel: %+v", h)
	}
}

func TestLiveCancelPreClosed(t *testing.T) {
	g := testGraph(true, 42)
	cancel := make(chan struct{})
	close(cancel)
	cfg := LiveConfig{
		Mode: ModeGAP, CheckEvery: 1, Cancel: cancel,
		Faults: faultPlan(t, "slow=0@0:30000:40; slow=1@0:30000:40"),
	}
	_, _, err := RunLive(frags(t, g, 2), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestLivePanicFaultContained: an injected worker panic (fault clause
// "panic=W@uN") must surface as a contained run failure wrapping
// ErrWorkerPanic — never a process crash — with the worker identified.
func TestLivePanicFaultContained(t *testing.T) {
	g := testGraph(true, 43)
	cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 1}
	cfg.Faults = faultPlan(t, "panic=1@u30")
	_, _, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("want ErrWorkerPanic, got %v", err)
	}
	if !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("panic error lacks attribution: %v", err)
	}
}

// bombProg wraps a real program and panics on the Nth Update call, on the
// worker goroutine running the sweep.
type bombProg struct {
	ace.Program[float64]
	calls *atomic.Int64
	at    int64
}

func (p *bombProg) Update(ctx *ace.Ctx[float64], local uint32) {
	if p.calls.Add(1) == p.at {
		panic("test: update bomb")
	}
	p.Program.Update(ctx, local)
}

// TestLivePanicInUpdateContained: a panic raised by the program's own Update
// (not the fault plan) must fail the run contained, payload preserved.
func TestLivePanicInUpdateContained(t *testing.T) {
	g := testGraph(true, 44)
	var calls atomic.Int64
	factory := func() ace.Program[float64] {
		return &bombProg{Program: algorithms.NewSSSP()(), calls: &calls, at: 25}
	}
	_, _, err := RunLive(frags(t, g, 2), factory, ace.Query{Source: 0}, LiveConfig{Mode: ModeGAP})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("want ErrWorkerPanic, got %v", err)
	}
	if !strings.Contains(err.Error(), "update bomb") {
		t.Fatalf("panic payload lost: %v", err)
	}
}

// TestPeerEtaReseedAfterNeighborRestart: after a localized recovery, the
// *survivors* that replayed a large backlog into the victim must reseed
// their own wake-up granularity too, not just the victim (they are the ones
// whose batches went unacknowledged — their next waves face the same
// backlog). With CheckEvery=16 a peer reseeds once its own share of the
// replay reaches 4×16; with three peers, any replay total >= 3*63+1
// guarantees at least one peer crossed that bar (pigeonhole), so victim +
// peer reseeds must both appear.
func TestPeerEtaReseedAfterNeighborRestart(t *testing.T) {
	g := testGraph(true, 45)
	rec := obs.NewRecorder(4, 1<<16)
	cfg := localFTConfig()
	cfg.CheckEvery = 16
	cfg.CheckpointEvery = 500 * time.Millisecond // stale checkpoints → big replay
	cfg.Tracer = rec
	cfg.Faults = faultPlan(t, "crash=1@u400+20; slow=1@0:200:10")
	_, lm, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if lm.Crashes != 1 || lm.Recoveries < 1 {
		t.Fatalf("crashes=%d recoveries=%d", lm.Crashes, lm.Recoveries)
	}
	t.Logf("replayed=%d etaReseeds=%d", lm.Replayed, lm.EtaReseeds)
	if lm.Replayed >= 3*63+1 {
		if lm.EtaReseeds < 2 {
			t.Fatalf("replayed %d messages but only %d reseeds: survivors did not reseed", lm.Replayed, lm.EtaReseeds)
		}
		// At least one reseed must belong to a surviving peer (worker != 1).
		peerReseeds := int64(0)
		for _, w := range rec.Snapshot().Workers {
			if w.Worker != 1 {
				peerReseeds += w.Counters[obs.CounterEtaReseeds]
			}
		}
		if peerReseeds == 0 {
			t.Fatalf("%d reseeds recorded but none on a surviving peer", lm.EtaReseeds)
		}
	}
}

// TestHealthTrackerTransitions (unit): ready → degraded → ready across a
// restart/resurrect cycle, and draining as a process-lifetime latch that
// survives the next run's reset.
func TestHealthTrackerTransitions(t *testing.T) {
	tr := &HealthTracker{}
	if h := tr.Health(); h.Running || h.Draining {
		t.Fatalf("zero tracker: %+v", h)
	}

	tr.runStarted(4, time.Second)
	if h := tr.Health(); !h.Running || h.Workers != 4 || h.Watchdog != time.Second {
		t.Fatalf("after runStarted: %+v", h)
	}

	// Degraded: the heartbeat detector reports a dead worker.
	tr.publish(func(h *obs.Health) { h.Dead = 1 })
	if h := tr.Health(); h.Dead != 1 || !h.Running {
		t.Fatalf("degraded: %+v", h)
	}
	// Resurrected: localized recovery restores the worker.
	tr.publish(func(h *obs.Health) { h.Dead = 0 })
	if h := tr.Health(); h.Dead != 0 || !h.Running {
		t.Fatalf("back to ready: %+v", h)
	}

	tr.runEnded(nil)
	if h := tr.Health(); h.Running || h.Completed != 1 || h.Failed != 0 {
		t.Fatalf("after clean run: %+v", h)
	}
	tr.runEnded(errors.New("boom"))
	if h := tr.Health(); h.Failed != 1 || h.Err != "boom" {
		t.Fatalf("after failed run: %+v", h)
	}

	// Draining latches across runStarted: a draining process never reports
	// ready again, even if another run begins meanwhile.
	tr.SetDraining(true)
	tr.runStarted(2, 0)
	if h := tr.Health(); !h.Draining || !h.Running || h.Workers != 2 {
		t.Fatalf("draining must survive runStarted: %+v", h)
	}
	tr.SetDraining(false)
	if h := tr.Health(); h.Draining {
		t.Fatalf("draining unlatch: %+v", h)
	}

	// nil tracker: every method is a safe no-op (drivers call these
	// unconditionally).
	var nilTr *HealthTracker
	nilTr.SetDraining(true)
	nilTr.runStarted(1, 0)
	nilTr.runEnded(nil)
	if h := nilTr.Health(); h.Running {
		t.Fatalf("nil tracker: %+v", h)
	}
}

// TestHealthTrackerAcrossLiveRestart (end-to-end): a crash + localized
// restart run must end ready — zero dead workers, the run completed — with
// the degraded episode visible in the recovery metrics.
func TestHealthTrackerAcrossLiveRestart(t *testing.T) {
	g := testGraph(true, 46)
	health := &HealthTracker{}
	cfg := localFTConfig()
	cfg.Health = health
	cfg.Faults = faultPlan(t, "crash=1@u60+10")
	_, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if lm.Crashes != 1 || lm.Recoveries < 1 {
		t.Fatalf("crashes=%d recoveries=%d", lm.Crashes, lm.Recoveries)
	}
	h := health.Health()
	if h.Running || h.Dead != 0 || h.Completed != 1 || h.Unrecoverable {
		t.Fatalf("health after restart cycle: %+v", h)
	}
}
