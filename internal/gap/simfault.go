package gap

import (
	"argan/internal/fault"
	"argan/internal/obs"
)

// prioCtrl orders fault-control events (crashes, detection, restarts,
// checkpoints) after ordinary deliveries and resumes at the same instant,
// so a checkpoint taken at time t sees every delivery stamped t.
const prioCtrl = 2

// simFT is the sim driver's fault layer: it interprets the fault plan
// (crashes, slowdowns, link faults) and runs localized recovery
// (recover.go) from the event queue. The simulator is single-threaded and
// runs control events between worker steps, so every live worker is at a
// safe point whenever one fires. Each step is billed a deterministic cost,
// booked in T_f: a checkpoint bills its worker one batch write plus the
// serialized volume of its state, a restore bills the victim the reload of
// its Ψ plus h_in for every replayed batch.
type simFT[V any] struct {
	s   *sim[V]
	inj *fault.Injector
	rec *localRecovery[V] // nil unless some crash restarts

	every    float64 // each worker's checkpoint interval
	detect   float64 // crash → detection delay
	ckptNext int     // round-robin checkpoint pointer
	maxCost  float64 // largest checkpoint cost billed so far

	dead  []bool
	nDead int
}

func newSimFT[V any](s *sim[V], plan *fault.Plan, rec *localRecovery[V]) *simFT[V] {
	return &simFT[V]{
		s:      s,
		inj:    fault.NewInjector(plan),
		rec:    rec,
		every:  s.cfg.FT.CheckpointEvery,
		detect: 4 * s.cfg.Net.Model.Alpha,
		dead:   make([]bool, len(s.workers)),
	}
}

// start schedules the time-triggered crashes and, on a recovering run,
// opens the checkpoint chain. Called before the event loop runs.
func (ft *simFT[V]) start() {
	for i, c := range ft.inj.Plan().Crashes {
		if c.AfterUpdates > 0 {
			continue // polled in update
		}
		ft.s.sched.At(c.At, prioCtrl, func() {
			if cc, ok := ft.inj.Take(i); ok {
				ft.crash(cc, ft.s.sched.Now())
			}
		})
	}
	if ft.rec != nil {
		ft.scheduleCkpt(ft.every / float64(len(ft.s.workers)))
	}
}

func (s *sim[V]) dead(id int) bool {
	return s.ft != nil && s.ft.dead[id]
}

// slowAt returns the transient-slowdown factor for worker id at time t.
func (s *sim[V]) slowAt(id int, t float64) float64 {
	if s.ft == nil {
		return 1
	}
	return s.ft.inj.SlowFactor(id, t)
}

// crash kills worker c.Worker at time t: its pending resume is cancelled,
// batches delivered to it are lost, and — when the plan restarts it and the
// run recovers — detection (4α later) and the restart are scheduled.
func (ft *simFT[V]) crash(c fault.Crash, t float64) {
	if ft.dead[c.Worker] {
		return
	}
	w := ft.s.workers[c.Worker]
	ft.dead[c.Worker] = true
	ft.nDead++
	ft.s.crashes++
	ft.s.sched.Cancel(w.resumeEv)
	w.resumeEv = nil
	w.loop.close(w)
	if w.tr != nil {
		w.tr.Mark(w.id, obs.MarkCrash, t)
	}
	if t > ft.s.end {
		ft.s.end = t
	}
	if ft.rec == nil || c.Restart < 0 {
		return
	}
	td := t + ft.detect
	ft.s.sched.At(td, prioCtrl, func() {
		if w.tr != nil {
			w.tr.Mark(w.id, obs.MarkDetect, td)
			w.tr.SpanBegin(w.id, obs.PhaseRecovery, td)
		}
		ft.rec.stage(w.id, func(j int, nt rollNotice) {
			if !ft.dead[j] {
				peer := ft.s.workers[j]
				peer.rollbackSender(nt.sender, nt.inc, nt.stable)
				if peer.idle && !peer.active.Empty() {
					peer.rouse(td) // un-applied contributions re-activated vertices
				}
			}
		})
		ft.s.sched.At(td+c.Restart, prioCtrl, func() { ft.restart(w, td+c.Restart) })
	})
}

// checkDue polls the injector for an update-count (or overdue time) crash
// on worker w; called from update. Reports whether the worker died.
func (ft *simFT[V]) checkDue(w *simWorker[V]) bool {
	c, ok := w.crashDue(ft.inj, w.now)
	if !ok {
		return false
	}
	ft.crash(c, w.now)
	return true
}

// restart restores worker w from its last checkpoint at time t, replays
// what it lost since, and resumes it.
func (ft *simFT[V]) restart(w *simWorker[V], t float64) {
	// The sim never pages a checkpoint or a log entry to disk, so neither
	// restore nor replay can fail.
	_ = ft.rec.restore(&w.workerState)
	rp, _ := ft.rec.replay(&w.workerState)
	w.dropVolatile()
	m := ft.s.cfg.Net.Model
	bytes := 0
	for l := range w.psi {
		bytes += w.prog.Size(w.psi[l])
	}
	w.penalty += m.BatchCPU + m.Beta*float64(bytes) + m.RecvCost(rp.batches, int(rp.msgs))
	ft.dead[w.id] = false
	ft.nDead--
	ft.s.recoveries++
	if w.tr != nil {
		w.tr.Mark(w.id, obs.MarkRestart, t)
		w.tr.SpanEnd(w.id, obs.PhaseRecovery, t)
	}
	w.rouse(t)
}

// dropVolatile resets what a crash lost beside the restored state: B⁺, the
// out-buffer byte counts (recounted from the restored B⁻), R1's touched
// peers and the round in progress.
func (w *simWorker[V]) dropVolatile() {
	for _, env := range w.inBuf {
		w.s.pool.put(env.msgs)
	}
	clear(w.inBuf)
	w.inBuf = w.inBuf[:0]
	w.inMsgs, w.inFirst = 0, -1
	w.touched = w.touched[:0]
	for j := range w.out {
		w.outBytes[j] = 0
		for _, l := range w.out[j].ids {
			w.outBytes[j] += 4 + w.prog.Size(w.psi[l])
		}
		w.touchfl[j] = len(w.out[j].ids) > 0
		if w.touchfl[j] {
			w.touched = append(w.touched, j)
		}
	}
	w.lastStatusVer = -1 // R1 rechecks every peer
	w.loop.left, w.loop.frozen = 0, false
}

// scheduleCkpt arms the next checkpoint slice: one worker, round-robin,
// every CheckpointEvery/n, so each worker checkpoints about once per
// CheckpointEvery. None is taken while a worker is down. The chain stops
// when the event queue has drained (the run is over). Each worker's
// interval (n slices) lasts at least twice the largest checkpoint cost
// billed so far, so no worker is billed faster than it can pay — an
// interval below that cost would push a worker's clock past its next
// checkpoint before it ran a single update.
func (ft *simFT[V]) scheduleCkpt(at float64) {
	ft.s.sched.At(at, prioCtrl, func() {
		s := ft.s
		if s.sched.Pending() == 0 {
			return // queue drained: the run ends after this event
		}
		if ft.nDead == 0 {
			w := s.workers[ft.ckptNext]
			ft.ckptNext = (ft.ckptNext + 1) % len(s.workers)
			ft.maxCost = max(ft.maxCost, ft.checkpoint(w, s.sched.Now()))
		}
		ft.scheduleCkpt(s.sched.Now() + max(ft.every, 2*ft.maxCost)/float64(len(s.workers)))
	})
}

// checkpoint takes worker w's checkpoint at time t and bills w one batch
// write plus the serialized volume of Ψ, the active set and the pending
// out-buffers. Returns the cost billed.
func (ft *simFT[V]) checkpoint(w *simWorker[V], t float64) float64 {
	ft.rec.checkpoint(&w.workerState, nil)
	bytes := 4 * w.active.Len()
	for _, b := range w.outBytes {
		bytes += b
	}
	for l := range w.psi {
		bytes += w.prog.Size(w.psi[l])
	}
	c := ft.s.cfg.Net.Model.BatchCPU + ft.s.cfg.Net.Model.Beta*float64(bytes)
	w.penalty += c
	ft.s.checkpoints++
	if w.tr != nil {
		w.tr.Mark(w.id, obs.MarkCkpt, t)
	}
	return c
}

// ship sends one stamped envelope through the link faults. Drop is
// lossless: the batch is retransmitted after the retry delay
// (reliable-transport recovery). Dup delivers a copy α later. Reorder adds
// delay without the per-link FIFO clamp, letting the batch overtake or be
// overtaken. The exactly-once layer drops the duplicate and restores the
// order.
func (ft *simFT[V]) ship(env envelope[V], to, bytes int, sentAt float64) float64 {
	s := ft.s
	from := int(env.from)
	fate := ft.inj.BatchFate(from, to)
	at := sentAt + s.cfg.Net.Latency(from, to, bytes)
	switch {
	case fate.Drop:
		at += ft.inj.RetryDelay(2 * s.cfg.Net.Model.Alpha)
	case fate.Reorder:
		at += 2 * s.cfg.Net.Model.Alpha
	}
	if !fate.Reorder {
		at = s.fifo(from, to, at)
	}
	s.deliverAt(to, env, at)
	if fate.Dup {
		cp := env
		cp.msgs = append(s.pool.get(), env.msgs...)
		s.deliverAt(to, cp, at+s.cfg.Net.Model.Alpha)
	}
	return at
}
