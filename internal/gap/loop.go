package gap

import (
	"argan/internal/fault"
	"argan/internal/obs"
)

// xi is the ξ policy's verdict at a check.
type xi uint8

const (
	xiKeep    xi = iota // ξ⁺ = ξ⁻ = false: keep updating
	xiForward           // ξ⁻ (rule R3; live: the check drained nothing): h_out now
	xiAgain             // the policy ran h_in itself (rule R2): check again
)

// roundDriver is what a runner supplies to aceLoop: the clock, the
// transport (hin, hout) and the ξ policy (gate, xi, next).
type roundDriver interface {
	clock() float64  // trace timestamps: virtual cost (sim), wall µs (live)
	gate() bool      // before every check; false suspends the loop
	xi() xi          // the indicators, at a check
	hin()            // h_in at round start
	hout(final bool) // h_out; final at f_term, mid-round the sim also ingests
	next() bool      // after f_term: true starts the next round at once
}

// aceLoop is the ACE round of Algorithm 1 over one workerState, written
// once for both drivers: h_in at round start, pop-and-update from H with a
// ξ check every grain updates, h_out at f_term, then idle. Its state lives
// here, so the sim can suspend it at any check and resume it from an event.
type aceLoop[V any] struct {
	st *workerState[V]
	tr obs.Tracer
	// grain is the number of updates between checks (0: before every
	// update, as the sim checks); left counts down to the next check.
	grain, left int
	// charge, when set, runs an update in prog.Update's place (the sim's
	// virtual clock); false suspends the loop.
	charge func(v uint32) bool
	// step is BSP-VC's frozen superstep: each vertex active at its start
	// updates once, and what it activates waits in H for the next.
	step   []uint32
	pos    int
	frozen bool
	// open tracks the LocalEval span; traced is the update count already
	// reported, so updates ship as one counter delta per round.
	open   bool
	traced int64
}

// run drives rounds until the driver suspends the loop.
func (l *aceLoop[V]) run(d roundDriver) {
	st := l.st
	for {
		if l.left <= 0 {
			if !d.gate() {
				return
			}
			l.left = l.grain
			l.begin(d)
			switch d.xi() {
			case xiForward:
				l.mark(d, obs.MarkR3)
				d.hout(false)
				continue
			case xiAgain:
				continue
			}
		}
		if l.empty() { // f_term(D_i): h_out ends the round
			l.frozen = false
			d.hout(true)
			l.close(d)
			if !d.next() {
				return
			}
			l.start(d)
			continue
		}
		v := l.pop()
		st.updates++
		l.left--
		if l.charge == nil {
			st.prog.Update(st.ctx, v)
		} else if !l.charge(v) {
			return
		}
	}
}

// start opens a round with h_in.
func (l *aceLoop[V]) start(d roundDriver) {
	l.begin(d)
	d.hin()
	l.left = l.grain
}

// begin opens the LocalEval span at the first check of a round, so it also
// covers rounds entered without start (a sim worker's first, or one a
// delivery resumed).
func (l *aceLoop[V]) begin(d roundDriver) {
	if l.tr == nil || l.open {
		return
	}
	l.open = true
	t := d.clock()
	l.tr.SpanBegin(l.st.id, obs.PhaseLocalEval, t)
	l.tr.Sample(l.st.id, obs.GaugeActive, t, float64(l.st.active.Len()))
}

// close ends the LocalEval span, if one is open, with the round's updates.
func (l *aceLoop[V]) close(d roundDriver) {
	if l.tr == nil || !l.open {
		return
	}
	l.open = false
	t, id := d.clock(), l.st.id
	if n := l.st.updates - l.traced; n > 0 {
		l.tr.Count(id, obs.CounterUpdates, t, n)
		l.traced = l.st.updates
	}
	l.tr.Sample(id, obs.GaugeActive, t, float64(l.st.active.Len()))
	l.tr.SpanEnd(id, obs.PhaseLocalEval, t)
}

// mark records m on the worker's track; drivers mark MarkIdle through it
// when next parks the worker.
func (l *aceLoop[V]) mark(d roundDriver, m obs.Mark) {
	if l.tr != nil {
		l.tr.Mark(l.st.id, m, d.clock())
	}
}

// freeze starts a BSP-VC superstep: H's members become the frozen list.
func (l *aceLoop[V]) freeze() {
	l.step = l.step[:0]
	for !l.st.active.Empty() {
		l.step = append(l.step, l.st.active.Pop())
	}
	l.pos, l.frozen = 0, true
}

func (l *aceLoop[V]) empty() bool {
	if l.frozen {
		return l.pos >= len(l.step)
	}
	return l.st.active.Empty()
}

func (l *aceLoop[V]) pop() uint32 {
	if l.frozen {
		l.pos++
		return l.step[l.pos-1]
	}
	return l.st.active.Pop()
}

// crashDue polls the fault plan for a crash of this worker due at now (plan
// units: virtual cost in the sim, wall ms live) or at its update count.
func (st *workerState[V]) crashDue(inj *fault.Injector, now float64) (fault.Crash, bool) {
	return inj.TakeDue(st.id, st.updates, now)
}

// traceSent books one shipped batch of k messages, and its wire bytes when
// the driver prices them.
func traceSent(tr obs.Tracer, id int, t float64, k, bytes int64) {
	tr.Count(id, obs.CounterMsgsSent, t, k)
	if bytes > 0 {
		tr.Count(id, obs.CounterBytesSent, t, bytes)
	}
	tr.Count(id, obs.CounterFlushes, t, 1)
}
