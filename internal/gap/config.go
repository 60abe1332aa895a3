// Package gap implements the paper's GAP (adaptive-Grained Asynchronous
// Parallel) runtime: workers executing ACE programs with accumulative
// in-message buffers B⁺, per-peer out-buffers B⁻_j, message-passing
// indicators ξ driven by rules R1–R3, per-worker granularity bounds η_i
// tuned by the adapt package, and a coordinator P₀ for status sharing,
// barriers and termination. Two drivers execute the same model: a
// deterministic virtual-time simulator (RunSim) used by the experiments,
// and a goroutine-based live driver (RunLive) exercising the code under
// real concurrency.
package gap

import (
	"math"

	"argan/internal/adapt"
	"argan/internal/fault"
	"argan/internal/netsim"
	"argan/internal/obs"
)

// Mode selects the parallel model. BSP, AP and AAP are the special cases of
// GAP described in §II-B; they are provided as first-class modes so the
// paper's baselines (Grape, Grape⁺, Grape*, GraphLab, Maiter, PowerSwitch)
// can be expressed as engine configurations.
type Mode int

const (
	// ModeGAP: rules R1–R3 with adaptive η (Argan).
	ModeGAP Mode = iota
	// ModeBSP: graph-centric bulk-synchronous (Grape): local fixpoint per
	// superstep, global barrier, messages exchanged between supersteps.
	ModeBSP
	// ModeBSPVC: vertex-centric bulk-synchronous (Pregel / GraphLab_sync):
	// each active vertex updates once per superstep.
	ModeBSPVC
	// ModeAPGC: graph-centric asynchronous (Grape*): ingest at round start,
	// forward at round end, no barriers, ξ fixed false.
	ModeAPGC
	// ModeAPVC: vertex-centric asynchronous (GraphLab_async / Maiter): ξ
	// fixed true, one update per LocalEval.
	ModeAPVC
	// ModeAAP: adaptive asynchronous (Grape⁺): graph-centric rounds whose
	// start is postponed by an adaptive delay sketch to absorb in-transit
	// messages and cut staleness.
	ModeAAP
	// ModePowerSwitch: starts bulk-synchronous vertex-centric and switches
	// to asynchronous execution when the barrier-wait fraction exceeds a
	// threshold (Xie et al.'s sync-or-async heuristic, simplified).
	ModePowerSwitch
)

func (m Mode) String() string {
	switch m {
	case ModeGAP:
		return "GAP"
	case ModeBSP:
		return "BSP"
	case ModeBSPVC:
		return "BSP-VC"
	case ModeAPGC:
		return "AP-GC"
	case ModeAPVC:
		return "AP-VC"
	case ModeAAP:
		return "AAP"
	case ModePowerSwitch:
		return "PowerSwitch"
	}
	return "?"
}

// Config parameterizes one engine run.
type Config struct {
	// Mode is the parallel model.
	Mode Mode
	// Adapt selects the granularity-adjustment policy (ModeGAP only).
	Adapt adapt.Policy
	// K is the GAwD discretization parameter (paper default 4); Fig. 4a
	// sweeps it.
	K int
	// Eta0 is the initial granularity bound η_i in cost units. +Inf gives
	// FG⁺ (fully coarse), 0 gives FG⁻ (fully fine). Under GA/GAwD a zero
	// Eta0 starts the tuner at 1024. Under PolicyFixed, the zero value of
	// Adapt, it stays 0: Config{Mode: ModeGAP} is FG⁻ and flushes after
	// every update.
	Eta0 float64
	// Net is the simulated interconnect; nil uses the default cost model.
	Net *netsim.Network
	// SlowFactor optionally slows individual workers' computation
	// (straggler injection); nil means 1.0 everywhere.
	SlowFactor []float64
	// Hetero adds time-varying execution noise: during each window of
	// HeteroWindow cost units, worker i's computation is slowed by a
	// deterministic pseudo-random factor in [1, 1+Hetero]. This models the
	// OS/network jitter of a real multi-tenant cluster, which synchronous
	// models amplify (every superstep waits for the currently slowest
	// worker) and asynchronous models absorb. 0 disables.
	Hetero       float64
	HeteroWindow float64
	// MaxUpdatesPerVertex caps total updates at cap·|V| to detect
	// non-convergent executions (Color under synchronous models). Default
	// 400.
	MaxUpdatesPerVertex int
	// SwitchThreshold is the barrier-wait fraction above which
	// ModePowerSwitch flips to asynchronous execution. Default 0.35.
	SwitchThreshold float64
	// DisableR1/R2/R3 switch off individual indicator rules (ModeGAP only);
	// used by the rule-ablation study.
	DisableR1, DisableR2, DisableR3 bool
	// Tracer receives the run's event stream (LocalEval/h_in/h_out/Adjust
	// spans, update/message counters, η/φ/active-set/mailbox gauges and
	// indicator-flip marks) stamped with virtual time. nil disables tracing;
	// the hot-path cost of a disabled tracer is a single nil check per
	// event site. Attach an obs.Recorder to export Chrome traces and CSV
	// time series.
	Tracer obs.Tracer
	// Faults is the injected fault plan (nil = fault-free). Under the sim
	// driver all times in the plan are virtual cost units and every fault
	// is charged a deterministic cost, so faulty runs remain
	// byte-reproducible for a fixed seed. A crash with a restart is
	// repaired by localized recovery, as under the live driver: the crashed
	// worker is restored from its own last checkpoint and replayed from its
	// peers' message logs while the survivors keep computing; that needs a
	// program whose declared ace.Algebra is Recoverable (else RunSim
	// returns ErrNoRecoveryAlgebra). Link faults switch on the exactly-once
	// layer, so dup and reorder fates never double-count. Crash injection
	// requires an asynchronous mode (GAP, AP-GC, AP-VC, AAP): the barrier
	// disciplines have no meaningful single-worker failure semantics.
	Faults *fault.Plan
	// FT tunes checkpointing and recovery; only consulted when Faults
	// schedules a crash with a restart.
	FT FTConfig
}

// FTConfig parameterizes the sim driver's checkpoint/recovery layer.
type FTConfig struct {
	// CheckpointEvery is each worker's local checkpoint interval in virtual
	// cost units, as LiveConfig.CheckpointEvery is live: one worker,
	// round-robin, checkpoints per CheckpointEvery/n slice. Default 4096.
	// A crash is detected 4α after it happens.
	CheckpointEvery float64
}

func (c Config) withDefaults() Config {
	if c.Eta0 == 0 && c.Mode == ModeGAP && c.Adapt != adapt.PolicyFixed {
		c.Eta0 = 1024
	}
	if c.K <= 0 {
		c.K = 4
	}
	if c.Net == nil {
		c.Net = netsim.NewNetwork(netsim.DefaultCostModel(), 1)
	}
	if c.MaxUpdatesPerVertex <= 0 {
		c.MaxUpdatesPerVertex = 400
	}
	if c.SwitchThreshold == 0 {
		c.SwitchThreshold = 0.35
	}
	if c.HeteroWindow <= 0 {
		// Longer than a typical superstep: a slow worker stays slow across
		// whole supersteps, which is what makes real-world stragglers hurt
		// synchronous models (every barrier waits for the current max).
		c.HeteroWindow = 16384
	}
	if c.FT.CheckpointEvery <= 0 {
		c.FT.CheckpointEvery = 4096
	}
	return c
}

// WorkerMetrics aggregates one worker's accounting.
type WorkerMetrics struct {
	Busy      float64 // virtual time spent in update functions
	Tw        float64 // measured stale computation (category-aware)
	Tc        float64 // h_in/h_out handler cost
	Ta        float64 // granularity-adjustment overhead
	Rounds    int64   // LocalEval invocations
	Updates   int64   // f_xv invocations
	Flushes   int64   // batches sent
	MsgsSent  int64
	BytesSent int64
	FinalEta  float64
	Tf        float64 // fault-handling overhead (checkpoint + restore cost)
}

// Metrics summarizes a run.
type Metrics struct {
	// RespTime is the virtual response time of the query (the paper's
	// y-axis everywhere).
	RespTime float64
	// Converged is false when the update cap was hit (e.g. oscillating
	// synchronous Color) — reported as "NA" in Fig. 5.
	Converged bool
	// Mode echoes the executed mode (PowerSwitch may report its final mode
	// via Switched).
	Mode     Mode
	Switched bool // PowerSwitch switched to async

	Workers []WorkerMetrics

	// Aggregates over workers.
	TotalBusy, TotalTw, TotalTc, TotalTa float64
	TotalTf                              float64
	Rounds, Updates, MsgsSent, BytesSent int64
	Supersteps                           int64

	// Fault-tolerance accounting (all zero on fault-free runs).
	Crashes, Recoveries, Checkpoints int64

	// Phi is the overall computation effectiveness (Σbusy − ΣTw)/(Σbusy + ΣTc).
	Phi float64

	// TwSamples are the (estimated, real) staleness pairs from the tuner
	// when RunSimTruth was given the truth vector.
	TwSamples []adapt.TwSample
	// EtaHistory concatenates the per-worker granularity trajectories.
	EtaHistory [][]float64
}

func (m *Metrics) finalize() {
	for _, w := range m.Workers {
		m.TotalBusy += w.Busy
		m.TotalTw += w.Tw
		m.TotalTc += w.Tc
		m.TotalTa += w.Ta
		m.TotalTf += w.Tf
		m.Rounds += w.Rounds
		m.Updates += w.Updates
		m.MsgsSent += w.MsgsSent
		m.BytesSent += w.BytesSent
	}
	if den := m.TotalBusy + m.TotalTc; den > 0 {
		m.Phi = (m.TotalBusy - m.TotalTw) / den
	}
	if math.IsNaN(m.Phi) {
		m.Phi = 0
	}
}

// AvgTw returns the mean per-worker staleness cost (0 with no workers).
func (m *Metrics) AvgTw() float64 { return avgOver(m.TotalTw, len(m.Workers)) }

// AvgTc returns the mean per-worker communication handler cost (0 with no
// workers).
func (m *Metrics) AvgTc() float64 { return avgOver(m.TotalTc, len(m.Workers)) }

// AvgTa returns the mean per-worker adjustment overhead (0 with no
// workers).
func (m *Metrics) AvgTa() float64 { return avgOver(m.TotalTa, len(m.Workers)) }

// avgOver divides a worker aggregate by the worker count, guarding the
// zero-worker case (a zero-value Metrics) that would otherwise yield NaN.
func avgOver(total float64, workers int) float64 {
	if workers == 0 {
		return 0
	}
	return total / float64(workers)
}
