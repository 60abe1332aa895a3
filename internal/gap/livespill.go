package gap

// Memory-bounded execution of the live driver (LiveConfig.Mem).
//
// A mem.Governor attached to a run turns the driver's unbounded in-RAM
// per-run structures — the sender-side message log, local checkpoints, the
// batch free list and reorder buffers — into governed accounts, and degrades
// gracefully instead of OOMing as the budget tightens. Fragments are never
// governed: they are immutable and shared with concurrent runs.
//
//	rung 1 (StageCkpt)     page log entries and checkpoint pages to the
//	                       spill tier; force an early checkpoint on the
//	                       slowest receiver so peers can prune their logs
//	                       (also triggered, governor or not, by the
//	                       LogBytesSoftCap retention cap)
//	rung 2 (StageThrottle) backpressure senders through the pooled-batch
//	                       pipeline and trim the batch free list; usage
//	                       past the whole budget stays on this rung
//
// Spilled state is read back transparently: replay resolves log entries
// through msgLog.fetch whether they live in RAM or on disk, and a restore
// materializes a paged checkpoint before rolling the worker back, so
// crash recovery stays exactly-once across the RAM/disk boundary.
//
// Serialization rides the little-endian codec seam in internal/graph/io.go
// (WriteLE/ReadLE), which encoding/binary resolves to fixed-size struct
// layouts — value types without a fixed wire size disable spilling and fall
// back to estimate-only accounting.

import (
	"bytes"
	"encoding/binary"
	"time"

	"argan/internal/ace"
	"argan/internal/graph"
	"argan/internal/mem"
	"argan/internal/obs"
)

// msgWireEstimate is the accounted cost per message when the value type has
// no fixed wire size; deliberately generous so the governor errs toward
// shedding early.
const msgWireEstimate = 24

// logEntryOverhead approximates the fixed per-entry bookkeeping cost of one
// retained batch (header, slice, allocator slack).
const logEntryOverhead = 48

// msgWireSize returns the exact encoded size of one ace.Message[V], or -1
// when V has no fixed size (which disables the spill tier for the run).
func msgWireSize[V any]() int {
	return binary.Size(ace.Message[V]{})
}

// encodeMsgs serializes one batch for the spill tier.
func encodeMsgs[V any](msgs []ace.Message[V]) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteLE(&buf, msgs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeMsgs reads count messages back from one spilled record.
func decodeMsgs[V any](sp *mem.Spiller, off int64, count, wire int) ([]ace.Message[V], error) {
	p := make([]byte, count*wire)
	if err := sp.ReadAt(p, off); err != nil {
		return nil, err
	}
	msgs := make([]ace.Message[V], count)
	if err := graph.ReadLE(bytes.NewReader(p), msgs); err != nil {
		return nil, err
	}
	return msgs, nil
}

// snapPage is one local checkpoint paged out to the spill tier: Ψ, the
// active set and the pending out-buffer ids in a single record. The
// program's aux state and the small per-peer sequence vectors stay resident. Records are
// immutable and retained until the next checkpoint replaces them, so a
// snapshot can be restored any number of times.
type snapPage struct {
	sp      *mem.Spiller
	off     int64
	size    int64
	psiLen  int
	actLen  int
	outLens []int
}

// spillSnap pages the bulky parts of base out and nils them in place.
func spillSnap[V any](sp *mem.Spiller, base *stateSnap[V]) (*snapPage, error) {
	var buf bytes.Buffer
	if err := graph.WriteLE(&buf, base.psi); err != nil {
		return nil, err
	}
	if err := graph.WriteLE(&buf, base.active); err != nil {
		return nil, err
	}
	pg := &snapPage{sp: sp, psiLen: len(base.psi), actLen: len(base.active), outLens: make([]int, len(base.out))}
	for j, out := range base.out {
		pg.outLens[j] = len(out)
		if len(out) > 0 {
			if err := graph.WriteLE(&buf, out); err != nil {
				return nil, err
			}
		}
	}
	off, err := sp.Append(buf.Bytes())
	if err != nil {
		return nil, err
	}
	pg.off = off
	pg.size = int64(buf.Len())
	base.psi, base.active, base.out = nil, nil, nil
	return pg, nil
}

// unspillSnap materializes a paged checkpoint back into base. The page
// itself stays valid — restores do not consume it.
func unspillSnap[V any](pg *snapPage, base *stateSnap[V]) error {
	p := make([]byte, pg.size)
	if err := pg.sp.ReadAt(p, pg.off); err != nil {
		return err
	}
	r := bytes.NewReader(p)
	base.psi = make([]V, pg.psiLen)
	if err := graph.ReadLE(r, base.psi); err != nil {
		return err
	}
	base.active = make([]uint32, pg.actLen)
	if err := graph.ReadLE(r, base.active); err != nil {
		return err
	}
	base.out = make([][]uint32, len(pg.outLens))
	for j, k := range pg.outLens {
		if k == 0 {
			continue
		}
		base.out[j] = make([]uint32, k)
		if err := graph.ReadLE(r, base.out[j]); err != nil {
			return err
		}
	}
	return nil
}

// snapResidentBytes estimates the RAM held by the bulky parts of a resident
// snapshot (the parts spillSnap would page out).
func snapResidentBytes[V any](base *stateSnap[V], vSize int64) int64 {
	b := int64(len(base.psi))*vSize + int64(len(base.active))*4
	for _, out := range base.out {
		b += int64(len(out)) * 4
	}
	return b
}

// memTick is the monitor's per-tick memory-governance step: refresh injected
// synthetic pressure, sample the memory gauges, and climb the degradation
// ladder.
func (d *liveDriver[V]) memTick(now time.Duration) {
	if d.gov != nil {
		if d.inj != nil {
			d.gov.SetExternal(d.inj.SqueezeBytes(float64(now) / 1e6))
		}
		if tr := d.cfg.Tracer; tr != nil {
			t := float64(now) / 1e3
			tr.Sample(d.n, obs.GaugeMemUsed, t, float64(d.gov.Used()))
			tr.Sample(d.n, obs.GaugeMemSpilled, t, float64(d.gov.SpilledBytes()))
			tr.Sample(d.n, obs.GaugeMemStage, t, float64(d.gov.Stage()))
			tr.Sample(d.n, obs.GaugeMemPeak, t, float64(d.gov.Peak()))
		}
	}
	stage := d.gov.Stage()
	if d.rec != nil {
		// Rung 1: bound log retention in bytes. A slow-to-checkpoint
		// receiver keeps every peer's rows toward it unprunable; forcing it
		// to snapshot out of turn advances its published cursors so the
		// retained bytes fall back under the cap.
		force := stage >= mem.StageCkpt
		if d.logCap > 0 {
			over := false
			for j := 0; j < d.n; j++ {
				if d.rec.log.retainedToward(j) > d.logCap {
					over = true
					break
				}
			}
			// Forcing alone cannot bound the overshoot: the slow receiver
			// may take many ticks to reach its checkpoint safe point while
			// its peers keep appending. Pressure also throttles senders
			// (same brake as rung 2) until retention falls back under cap.
			d.logPressure.Store(over)
			force = force || over
		}
		if force {
			d.forceCkptSlowest()
		}
	}
	if stage >= mem.StageThrottle {
		d.pool.trim()
	}
}

// forceCkptSlowest requests an out-of-turn checkpoint on the live receiver
// retaining the most log bytes across its incoming rows.
func (d *liveDriver[V]) forceCkptSlowest() {
	worst, worstBytes := -1, int64(0)
	for j := 0; j < d.n; j++ {
		if b := d.rec.log.retainedToward(j); b > worstBytes {
			worst, worstBytes = j, b
		}
	}
	if worst < 0 {
		return
	}
	d.ctrl.mu.Lock()
	dead := d.ctrl.dead[worst]
	d.ctrl.mu.Unlock()
	if dead {
		return
	}
	if !d.ckptReq[worst].Swap(true) {
		d.forcedCkpts.Add(1)
		if tr := d.cfg.Tracer; tr != nil {
			tr.Count(d.n, obs.CounterForcedCkpts, float64(sinceFn(d.start))/1e3, 1)
		}
	}
}
