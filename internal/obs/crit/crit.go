// Package crit is the post-run straggler analyzer: it consumes the span and
// instant events retained by an obs.Recorder and answers "where did the wall
// clock go, and whose chain of work gated the finish line?".
//
// Attribution is deterministic and purely trace-driven: each worker's share
// of the run window is split into buckets by the innermost open span at each
// instant — compute (LocalEval/h_in/h_out/Adjust/superstep), replay
// (recovery, checkpoint and replay spans), spill (page-outs), throttle
// (backpressure pauses) — and every instant not covered by any span is wait.
// The buckets therefore always account for the full window; the coverage
// figure exists to catch parser bugs (mismatched spans double-count and push
// it past 1).
//
// The critical path is reconstructed backwards from the last-finishing
// worker: each busy period extends back to the MarkBusy wakeup that started
// it, and the wakeup is attributed to the peer with the latest flush or send
// at or before that instant (the recorder does not keep sender identity, so
// this is a deterministic nearest-sender heuristic, ties broken toward the
// lower worker id). Times are in the trace's native unit — wall microseconds
// under the live driver, virtual cost units under the simulator.
package crit

import (
	"fmt"
	"strconv"
	"strings"

	"argan/internal/obs"
)

// Bucket indices of an attribution vector.
const (
	BucketCompute = iota
	BucketReplay
	BucketSpill
	BucketThrottle
	BucketWait
	BucketOther
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"compute", "replay", "spill", "throttle", "wait", "other",
}

// BucketNames returns the bucket labels in index order.
func BucketNames() []string { return append([]string(nil), bucketNames[:]...) }

// Buckets is one attribution vector, indexed by the Bucket* constants, in
// trace time units. It marshals as a JSON object in index order.
type Buckets [NumBuckets]float64

// MarshalJSON renders the vector with its bucket names, floats in shortest
// round-trip form (deterministic across runs and platforms).
func (b Buckets) MarshalJSON() ([]byte, error) {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range bucketNames {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('"')
		sb.WriteString(n)
		sb.WriteString(`":`)
		sb.WriteString(strconv.FormatFloat(b[i], 'g', -1, 64))
	}
	sb.WriteByte('}')
	return []byte(sb.String()), nil
}

// Sum is the total attributed time.
func (b Buckets) Sum() float64 {
	s := 0.0
	for _, v := range b {
		s += v
	}
	return s
}

// Busy is the non-wait attributed time.
func (b Buckets) Busy() float64 { return b.Sum() - b[BucketWait] }

func bucketOf(p obs.Phase) int {
	switch p {
	case obs.PhaseRecovery, obs.PhaseReplay, obs.PhaseCheckpoint:
		return BucketReplay
	case obs.PhaseSpill:
		return BucketSpill
	case obs.PhaseThrottle:
		return BucketThrottle
	case obs.PhaseLocalEval, obs.PhaseHin, obs.PhaseHout, obs.PhaseAdjust, obs.PhaseSuperstep:
		return BucketCompute
	}
	return BucketOther
}

// WorkerReport is one worker's attribution over the run window.
type WorkerReport struct {
	Worker int `json:"worker"`
	// Wall is the run window length (identical for every worker: the
	// attribution always spans the global [Start, End]).
	Wall    float64 `json:"wall"`
	Buckets Buckets `json:"buckets"`
	// Coverage is Buckets.Sum()/Wall; 1.0 up to float rounding unless the
	// trace is malformed.
	Coverage float64 `json:"coverage"`
	// Spans is the number of span-begin events parsed.
	Spans int `json:"spans"`
	// Dropped is the worker's ring-eviction count; a non-zero value means
	// the oldest events are missing and early time is misread as wait.
	Dropped int64 `json:"dropped,omitempty"`
}

// Step is one link of the critical path, oldest first.
type Step struct {
	Worker int     `json:"worker"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Note says how the busy period started: "run start", "trace start", or
	// "woken by worker N".
	Note string `json:"note"`
}

// Report is the full analysis.
type Report struct {
	// Start/End bound the run window (min/max event time across workers);
	// Wall is their difference. Unit: trace time units.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Wall  float64 `json:"wall"`
	// Dropped is the total ring-eviction count (telemetry is lossy if > 0).
	Dropped int64          `json:"dropped,omitempty"`
	Workers []WorkerReport `json:"workers"`
	// Totals sums the per-worker vectors; Coverage is its sum over
	// Workers*Wall.
	Totals   Buckets `json:"totals"`
	Coverage float64 `json:"coverage"`
	// Straggler is the worker with the most busy (non-wait) time.
	Straggler int `json:"straggler"`
	// CriticalPath walks the gating chain oldest-first; Chain lists its
	// workers in order (consecutive duplicates collapsed).
	CriticalPath []Step `json:"critical_path"`
	Chain        []int  `json:"chain"`
}

// Analyze attributes the recorder's retained trace. It never mutates the
// recorder and may run while recording continues (the snapshot is
// per-worker consistent, like Recorder.Snapshot).
func Analyze(rec *obs.Recorder) *Report {
	n := rec.Workers()
	events := make([][]obs.Event, n)
	r := &Report{Dropped: rec.Dropped()}
	first := true
	for i := 0; i < n; i++ {
		events[i] = rec.Events(i)
		for _, e := range events[i] {
			if first || e.T < r.Start {
				r.Start = e.T
			}
			if first || e.T > r.End {
				r.End = e.T
			}
			first = false
		}
	}
	r.Wall = r.End - r.Start
	for i := 0; i < n; i++ {
		w := WorkerReport{Worker: i, Wall: r.Wall, Dropped: rec.DroppedOf(i)}
		w.Buckets, w.Spans = attribute(events[i], r.Start, r.End)
		if r.Wall > 0 {
			w.Coverage = w.Buckets.Sum() / r.Wall
		} else {
			w.Coverage = 1
		}
		for b := range w.Buckets {
			r.Totals[b] += w.Buckets[b]
		}
		r.Workers = append(r.Workers, w)
	}
	if r.Wall > 0 && n > 0 {
		r.Coverage = r.Totals.Sum() / (float64(n) * r.Wall)
	} else {
		r.Coverage = 1
	}
	r.Straggler = -1
	best := -1.0
	for _, w := range r.Workers {
		if busy := w.Buckets.Busy(); busy > best {
			best, r.Straggler = busy, w.Worker
		}
	}
	r.CriticalPath = criticalPath(events, r.Start)
	for _, s := range r.CriticalPath {
		if len(r.Chain) == 0 || r.Chain[len(r.Chain)-1] != s.Worker {
			r.Chain = append(r.Chain, s.Worker)
		}
	}
	return r
}

// attribute splits [start, end] by the innermost open span. Timestamps are
// clamped monotone (the recorder permits slightly-in-the-past delivery
// stamps) exactly as the Chrome exporter does, so both views agree.
func attribute(events []obs.Event, start, end float64) (Buckets, int) {
	var b Buckets
	spans := 0
	cursor := start
	var stack []obs.Phase
	accrue := func(upto float64) {
		if upto <= cursor {
			return
		}
		if len(stack) == 0 {
			b[BucketWait] += upto - cursor
		} else {
			b[bucketOf(stack[len(stack)-1])] += upto - cursor
		}
		cursor = upto
	}
	for _, e := range events {
		t := e.T
		if t < cursor {
			t = cursor
		}
		if t > end {
			t = end
		}
		accrue(t)
		switch e.Kind {
		case obs.KindSpanBegin:
			stack = append(stack, obs.Phase(e.Code))
			spans++
		case obs.KindSpanEnd:
			// Pop the innermost open span of this phase; orphan ends (their
			// begin was evicted by the ring) are ignored.
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i] == obs.Phase(e.Code) {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
		}
	}
	accrue(end)
	return b, spans
}

// maxCritSteps bounds the backward walk; real chains are far shorter.
const maxCritSteps = 64

// criticalPath walks backwards from the last-finishing worker.
func criticalPath(events [][]obs.Event, start float64) []Step {
	cur, curEnd := -1, 0.0
	for i, evs := range events {
		if len(evs) == 0 {
			continue
		}
		if t := evs[len(evs)-1].T; cur < 0 || t > curEnd {
			cur, curEnd = i, t
		}
	}
	if cur < 0 {
		return nil
	}
	var rev []Step
	t := curEnd
	for len(rev) < maxCritSteps {
		// The busy period ending at t started at the latest wakeup ≤ t.
		busyStart, woken := start, false
		if len(events[cur]) > 0 {
			busyStart = events[cur][0].T
		}
		for _, e := range events[cur] {
			if e.T > t {
				break
			}
			if e.Kind == obs.KindMark && obs.Mark(e.Code) == obs.MarkBusy {
				busyStart, woken = e.T, true
			}
		}
		if busyStart > t {
			busyStart = t
		}
		note := "trace start"
		if !woken && busyStart == start {
			note = "run start"
		}
		// Predecessor: the peer with the latest flush/send ≤ the wakeup.
		pred, predT := -1, 0.0
		if woken {
			for w, evs := range events {
				if w == cur {
					continue
				}
				for _, e := range evs {
					if e.T > busyStart {
						break
					}
					if e.Kind == obs.KindCounter &&
						(obs.Counter(e.Code) == obs.CounterFlushes || obs.Counter(e.Code) == obs.CounterMsgsSent) {
						if pred < 0 || e.T > predT {
							pred, predT = w, e.T
						}
					}
				}
			}
			if pred >= 0 {
				note = fmt.Sprintf("woken by worker %d", pred)
			}
		}
		rev = append(rev, Step{Worker: cur, Start: busyStart, End: t, Note: note})
		if !woken || pred < 0 || predT >= t {
			break // chain root reached, or no backward progress
		}
		cur, t = pred, predT
	}
	// Oldest first.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
