// Package obs is the observability layer of the GAP runtime: a pluggable
// event tracer plus a ring-buffered recorder that turns one run into a
// Chrome trace (one span track per worker, loadable in Perfetto) and CSV
// time series (η_i, φ_i, active-set size, mailbox depth over time).
//
// The design goal is a clean hot path: drivers hold a Tracer interface that
// is nil when tracing is off, so the disabled cost is a single nil check and
// no allocation per event site. Timestamps are supplied by the caller — the
// virtual-time simulator passes cost units, the live driver passes wall
// microseconds — so the same recorder serves both and sim traces are
// exactly reproducible (the determinism tests rely on this).
package obs

// Phase identifies a span kind on a worker's track. Spans nest: LocalEval
// contains the h_in/h_out handler spans of that round and any granularity
// adjustment that ran inside it.
type Phase uint8

const (
	// PhaseLocalEval is one LocalEval round (IncEval in Grape terms): from
	// h_in ingest to the f_term-triggered h_out flush.
	PhaseLocalEval Phase = iota
	// PhaseHin is the h_in handler: ingesting B⁺ into Ψ.
	PhaseHin
	// PhaseHout is the h_out handler: flushing one B⁻_j batch to a peer.
	PhaseHout
	// PhaseAdjust is one granularity adjustment (Algorithm 2 phase 2).
	PhaseAdjust
	// PhaseRecovery spans a fault recovery: from failure detection to the
	// crashed worker's restart (rollback + state restore + replay).
	PhaseRecovery
	// PhaseCheckpoint spans one consistent-snapshot checkpoint.
	PhaseCheckpoint
	// PhaseReplay spans a localized recovery's message replay: from the
	// first survivor replaying its logged batches to the restored worker
	// until the last replayer drains (coordinator track).
	PhaseReplay
	// PhaseSpill spans a synchronous page-out to the spill tier (a local
	// checkpoint's bulky parts under memory pressure).
	PhaseSpill
	// PhaseThrottle spans one sender backpressure pause (degradation
	// rung 2, or log-retention pressure).
	PhaseThrottle

	numPhases = int(PhaseThrottle) + 1
)

func (p Phase) String() string {
	switch p {
	case PhaseLocalEval:
		return "LocalEval"
	case PhaseHin:
		return "h_in"
	case PhaseHout:
		return "h_out"
	case PhaseAdjust:
		return "Adjust"
	case PhaseRecovery:
		return "recovery"
	case PhaseCheckpoint:
		return "checkpoint"
	case PhaseReplay:
		return "replay"
	case PhaseSpill:
		return "spill_io"
	case PhaseThrottle:
		return "throttle"
	}
	return "phase?"
}

// Counter identifies a monotone per-worker count; tracers receive deltas.
type Counter uint8

const (
	// CounterUpdates counts update-function (f_xv) invocations.
	CounterUpdates Counter = iota
	// CounterMsgsSent counts messages shipped to peers.
	CounterMsgsSent
	// CounterBytesSent counts shipped bytes.
	CounterBytesSent
	// CounterMsgsRecv counts messages ingested from B⁺.
	CounterMsgsRecv
	// CounterFlushes counts h_out batches.
	CounterFlushes
	// CounterReplayed counts logged batches re-delivered to a restored
	// worker by localized recovery.
	CounterReplayed
	// CounterRetransmits counts dropped batches redelivered by the async
	// retransmit path.
	CounterRetransmits
	// CounterForcedCkpts counts checkpoints forced out of turn by the
	// retention cap or the memory-pressure ladder (coordinator track).
	CounterForcedCkpts
	// CounterEtaReseeds counts post-recovery granularity reseeds
	// (coordinator track).
	CounterEtaReseeds

	numCounters = int(CounterEtaReseeds) + 1
)

func (c Counter) String() string {
	switch c {
	case CounterUpdates:
		return "updates"
	case CounterMsgsSent:
		return "msgs_sent"
	case CounterBytesSent:
		return "bytes_sent"
	case CounterMsgsRecv:
		return "msgs_recv"
	case CounterFlushes:
		return "flushes"
	case CounterReplayed:
		return "replayed"
	case CounterRetransmits:
		return "retransmits"
	case CounterForcedCkpts:
		return "forced_ckpts"
	case CounterEtaReseeds:
		return "eta_reseeds"
	}
	return "counter?"
}

// Gauge identifies a sampled per-worker value.
type Gauge uint8

const (
	// GaugeEta is the worker's granularity bound η_i after an adjustment.
	GaugeEta Gauge = iota
	// GaugePhi is the worker's computation effectiveness φ_i(η) as
	// estimated by the tuner sweep at adjustment time.
	GaugePhi
	// GaugeActive is |H_i|, the active-set size at a round boundary.
	GaugeActive
	// GaugeMailbox is the B⁺ depth (sim: buffered messages; live: queued
	// channel batches) at a delivery or round boundary.
	GaugeMailbox
	// GaugeTwEst is the tuner's estimated staleness T_w at adjustment.
	GaugeTwEst
	// GaugeTwReal is the real staleness T_w* (only with ground truth).
	GaugeTwReal
	// GaugeCandidates is the number of sweep candidates the adjustment
	// scanned (k for GAwD, the record count for GA).
	GaugeCandidates
	// GaugeLogSize is the number of batches retained in a worker's
	// sender-side message log at a sample point (localized recovery).
	GaugeLogSize
	// GaugeAcksOut is the number of survivor undo acknowledgements the
	// monitor is still waiting for during a localized recovery.
	GaugeAcksOut
	// GaugeMemUsed is the memory governor's accounted RAM usage in bytes
	// (including injected synthetic pressure), sampled by the monitor.
	GaugeMemUsed
	// GaugeMemSpilled is the bytes of governed state currently resident on
	// the spill tier (recovery logs, checkpoints, fragment edges).
	GaugeMemSpilled
	// GaugeMemStage is the governor's degradation-ladder stage (0 = ok,
	// 1 = forced-checkpoint, 2 = sender throttle, 3 = edge streaming).
	GaugeMemStage
	// GaugeMemPeak is the governor's high-water mark of accounted bytes,
	// sampled alongside GaugeMemUsed (coordinator track).
	GaugeMemPeak

	numGauges = int(GaugeMemPeak) + 1
)

func (g Gauge) String() string {
	switch g {
	case GaugeEta:
		return "eta"
	case GaugePhi:
		return "phi"
	case GaugeActive:
		return "active"
	case GaugeMailbox:
		return "mailbox"
	case GaugeTwEst:
		return "tw_est"
	case GaugeTwReal:
		return "tw_real"
	case GaugeCandidates:
		return "candidates"
	case GaugeLogSize:
		return "log_size"
	case GaugeAcksOut:
		return "acks_out"
	case GaugeMemUsed:
		return "mem_used"
	case GaugeMemSpilled:
		return "mem_spilled"
	case GaugeMemStage:
		return "mem_stage"
	case GaugeMemPeak:
		return "mem_peak"
	}
	return "gauge?"
}

// Mark identifies an instant event: the message-passing indicator flips and
// worker status transitions.
type Mark uint8

const (
	// MarkR1 fires when rule R1 flips ξ⁻ (forward to an idle peer).
	MarkR1 Mark = iota
	// MarkR2 fires when rule R2 flips ξ⁺ (last busy worker ingests).
	MarkR2
	// MarkR3 fires when rule R3 flips both indicators (η exceeded).
	MarkR3
	// MarkIdle fires when the worker reaches f_term with an empty B⁺.
	MarkIdle
	// MarkBusy fires when a delivery reactivates an idle worker.
	MarkBusy
	// MarkCrash fires on the worker's track when an injected fault kills it.
	MarkCrash
	// MarkDetect fires when the coordinator detects the failure.
	MarkDetect
	// MarkRestart fires when the recovered worker resumes execution.
	MarkRestart
	// MarkCkpt fires when the worker's state is captured in a checkpoint.
	MarkCkpt
	// MarkReplay fires when a survivor finishes replaying its logged
	// batches to a restored worker (localized recovery).
	MarkReplay
	// MarkSpill fires on a worker's track when a checkpoint's bulky parts
	// page out to the spill tier.
	MarkSpill
)

func (m Mark) String() string {
	switch m {
	case MarkR1:
		return "R1"
	case MarkR2:
		return "R2"
	case MarkR3:
		return "R3"
	case MarkIdle:
		return "idle"
	case MarkBusy:
		return "busy"
	case MarkCrash:
		return "crash"
	case MarkDetect:
		return "detect"
	case MarkRestart:
		return "restart"
	case MarkCkpt:
		return "ckpt"
	case MarkReplay:
		return "replay"
	case MarkSpill:
		return "spill"
	}
	return "mark?"
}

// Tracer is the instrumentation hook held by the drivers. Implementations
// must tolerate calls from multiple goroutines as long as each worker id is
// used by at most one goroutine at a time (the live driver's discipline);
// cross-worker calls may be concurrent. Timestamps are monotone per worker
// except for deliveries, which may be stamped slightly in the past of the
// receiving worker's cursor (the recorder clamps these on export).
type Tracer interface {
	// SpanBegin opens a phase span on the worker's track at time t.
	SpanBegin(worker int, p Phase, t float64)
	// SpanEnd closes the innermost open span of the phase.
	SpanEnd(worker int, p Phase, t float64)
	// Count adds delta to a monotone counter at time t.
	Count(worker int, c Counter, t float64, delta int64)
	// Sample records a gauge value at time t.
	Sample(worker int, g Gauge, t float64, v float64)
	// Mark records an instant event at time t.
	Mark(worker int, m Mark, t float64)
}

// Nop is a Tracer that drops everything; useful when a call site needs a
// non-nil tracer but the run is untraced.
type Nop struct{}

func (Nop) SpanBegin(int, Phase, float64)      {}
func (Nop) SpanEnd(int, Phase, float64)        {}
func (Nop) Count(int, Counter, float64, int64) {}
func (Nop) Sample(int, Gauge, float64, float64) {
}
func (Nop) Mark(int, Mark, float64) {}

var _ Tracer = Nop{}

// AllCounters and AllGauges enumerate the counter and gauge vocabularies in
// code order, for exporters (the telemetry plane, the critical-path
// analyzer) that must cover every series without hard-coding the constants.
func AllCounters() []Counter {
	cs := make([]Counter, numCounters)
	for i := range cs {
		cs[i] = Counter(i)
	}
	return cs
}

func AllGauges() []Gauge {
	gs := make([]Gauge, numGauges)
	for i := range gs {
		gs[i] = Gauge(i)
	}
	return gs
}
