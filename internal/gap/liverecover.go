package gap

import (
	"fmt"
	"strings"
	"time"

	"argan/internal/mem"
	"argan/internal/obs"
)

// The live driver's half of localized recovery (recover.go): the monitor
// round-robins checkpoint requests that workers honor inline at their next
// safe point, detects deaths by heartbeat, queues rollback notices that
// survivors ack from their own goroutines, and — once every ack is in and
// the restart delay has passed — restores, replays and respawns the dead
// worker's goroutine while the survivors keep computing.

// RecoveryLocal is the one value LiveConfig.Recovery accepts besides "".
const RecoveryLocal = "local"

// liveLogSoftCap is the retained-batch count across the whole message log
// above which the monitor asks every live worker to checkpoint out of turn,
// so log retention (bounded by checkpoint lag) is pulled back down.
const liveLogSoftCap = 4096

// takeLocalCkpt checkpoints the calling worker inline (no barrier, no park).
// Under memory pressure the snapshot's bulky parts (Ψ, active set, pending
// out-buffer ids) are paged to the spill tier; the repair state stays
// resident, and the superseded snapshot's page is released.
func (d *liveDriver[V]) takeLocalCkpt(st *workerState[V]) {
	id := st.id
	var cost int64
	old := d.rec.checkpoint(st, func(snap *localSnap[V]) {
		cost = snapResidentBytes(&snap.base, d.vSize)
		if d.snapSp == nil || d.gov.Stage() < mem.StageCkpt {
			return
		}
		tr := d.cfg.Tracer
		if tr != nil {
			tr.SpanBegin(id, obs.PhaseSpill, float64(sinceFn(d.start))/1e3)
		}
		pg, err := spillSnap(d.snapSp, &snap.base)
		if tr != nil {
			t := float64(sinceFn(d.start)) / 1e3
			tr.SpanEnd(id, obs.PhaseSpill, t)
			if err == nil {
				tr.Mark(id, obs.MarkSpill, t)
			}
		}
		if err == nil {
			snap.page = pg
			cost = 0
		}
	})
	if old.page != nil {
		old.page.sp.Release(old.page.size)
	}
	if d.ckptBytes != nil {
		d.ckptAcct.Add(cost - d.ckptBytes[id])
		d.ckptBytes[id] = cost
	}
	d.checkpoints.Add(1)
}

// drainNotices processes any pending rollback notices for st's worker and
// acks them. Returns the number processed. Callable from any of the worker's
// safe points, including the send retry loop (a survivor blocked on a dead
// peer's full mailbox must still ack, or recovery would deadlock).
func (d *liveDriver[V]) drainNotices(st *workerState[V]) int {
	id := st.id
	if !d.noticeFlag[id].Load() {
		return 0
	}
	d.noticeMu.Lock()
	ns := d.noticeQ[id]
	d.noticeQ[id] = nil
	d.noticeFlag[id].Store(false)
	d.noticeMu.Unlock()
	for _, nt := range ns {
		st.rollbackSender(nt.sender, nt.inc, nt.stable)
	}
	if len(ns) > 0 {
		d.acksOut.Add(int64(-len(ns)))
		if d.diag {
			d.wacked[id].Add(int64(len(ns)))
		}
	}
	return len(ns)
}

// requestLocalCkpt asks the next live worker (round-robin) to checkpoint at
// its next safe point; when the message log has outgrown its soft cap, every
// live worker is asked at once so retention is pulled back down.
func (d *liveDriver[V]) requestLocalCkpt() {
	if d.rec.log.size() > liveLogSoftCap {
		d.ctrl.mu.Lock()
		for i := 0; i < d.n; i++ {
			if !d.ctrl.dead[i] {
				d.ckptReq[i].Store(true)
			}
		}
		d.ctrl.mu.Unlock()
		return
	}
	for probe := 0; probe < d.n; probe++ {
		w := d.ckptNext
		d.ckptNext = (d.ckptNext + 1) % d.n
		d.ctrl.mu.Lock()
		dead := d.ctrl.dead[w]
		d.ctrl.mu.Unlock()
		if !dead {
			d.ckptReq[w].Store(true)
			return
		}
	}
}

// stageLocalDead runs phase A of a localized recovery for a newly detected
// death: claim the worker busy so termination cannot race the restore, then
// stage it (localRecovery.stage) and queue each live peer's rollback notice
// for it to ack. Returns false when the run is already over or the death is
// unrecoverable.
func (d *liveDriver[V]) stageLocalDead(w int) bool {
	d.ctrl.mu.Lock()
	r := d.ctrl.restart[w]
	d.ctrl.mu.Unlock()
	if r == liveRestartUnknown {
		// Never announced: either a heartbeat false positive (a stalled
		// goroutine whose beat will resume, letting resurrectStalled clear
		// the mark) or a genuinely wedged worker. Restoring under a
		// possibly-live goroutine would race, so wait the grace window out
		// before condemning the run.
		if sinceFn(d.start)-time.Duration(d.ctrl.beats[w].Load()) <= d.deathGrace() {
			return false
		}
		d.ctrl.mu.Lock()
		d.ctrl.unrecoverable = true
		d.ctrl.mu.Unlock()
		return false
	}
	if r < 0 {
		// Announced permanent death: hand the run to the watchdog.
		d.ctrl.mu.Lock()
		d.ctrl.unrecoverable = true
		d.ctrl.mu.Unlock()
		return false
	}
	if !d.coord.claimBusy(w) {
		return false // quiescence already closed: pre-crash state is final
	}
	d.detectAt[w] = sinceFn(d.start)
	// The dead worker can no longer ack notices queued to it.
	d.noticeMu.Lock()
	if k := len(d.noticeQ[w]); k > 0 {
		d.noticeQ[w] = nil
		d.acksOut.Add(int64(-k))
	}
	d.noticeFlag[w].Store(false)
	d.noticeMu.Unlock()
	d.rec.stage(w, func(j int, nt rollNotice) {
		d.ctrl.mu.Lock()
		announcedDead := d.ctrl.dead[j] && d.ctrl.restart[j] != liveRestartUnknown
		d.ctrl.mu.Unlock()
		if announcedDead || d.recState[j] != 0 {
			// Announced-dead or staged peers are repaired at their own
			// restore via the rollback history instead of a notice. An
			// unannounced-dead peer still gets one: it is either a stalled
			// goroutine that will resurrect, resume draining and ack (it
			// never restores, so the history would not repair it), or truly
			// wedged — in which case the grace window fails the run anyway.
			return
		}
		d.noticeMu.Lock()
		d.noticeQ[j] = append(d.noticeQ[j], nt)
		d.noticeFlag[j].Store(true)
		d.acksOut.Add(1)
		d.noticeMu.Unlock()
	})
	d.recState[w] = 1
	return true
}

// runLocalRecovery is the monitor's per-tick localized-recovery step:
// stage any newly detected deaths (phase A), wait for every survivor ack
// (phase B, non-blocking — re-entered next tick), then restore, replay and
// respawn each staged worker whose restart delay has elapsed (phase C).
// Returns true when at least one worker was respawned.
func (d *liveDriver[V]) runLocalRecovery() bool {
	tr := d.cfg.Tracer
	ts := func() float64 { return float64(sinceFn(d.start)) / 1e3 }
	d.ctrl.mu.Lock()
	var fresh []int
	for i, dd := range d.ctrl.dead {
		if dd && d.recState[i] == 0 {
			fresh = append(fresh, i)
		}
	}
	d.ctrl.mu.Unlock()
	for _, w := range fresh {
		d.ctrl.mu.Lock()
		unannounced := d.ctrl.restart[w] == liveRestartUnknown
		d.ctrl.mu.Unlock()
		if unannounced && sinceFn(d.start)-time.Duration(d.ctrl.beats[w].Load()) <= d.deathGrace() {
			continue // undecided: resurrection or grace expiry resolves it
		}
		if !d.stageLocalDead(w) {
			return false
		}
	}
	if out := d.acksOut.Load(); out != 0 {
		if tr != nil {
			tr.Sample(d.n, obs.GaugeAcksOut, ts(), float64(out))
		}
		return false
	}
	revived := false
	for w := 0; w < d.n; w++ {
		if d.recState[w] != 1 {
			continue
		}
		d.ctrl.mu.Lock()
		restartMS := d.ctrl.restart[w]
		d.ctrl.mu.Unlock()
		if restartMS > 0 && sinceFn(d.start)-d.detectAt[w] < time.Duration(restartMS*float64(time.Millisecond)) {
			continue // restart delay not elapsed; retry next tick
		}
		if tr != nil {
			tr.SpanBegin(d.n, obs.PhaseRecovery, ts())
		}
		// The monitor owns w's state: the goroutine is gone.
		if err := d.rec.restore(d.states[w]); err != nil {
			d.coord.fail(fmt.Errorf("gap: restore worker %d from spilled checkpoint: %w", w, err))
			return false
		}
		if tr != nil {
			tr.SpanBegin(d.n, obs.PhaseReplay, ts())
		}
		// Replayed messages are not counted in the termination ledger: their
		// original deliveries already balanced it.
		rp, err := d.rec.replay(d.states[w])
		if err != nil {
			d.coord.fail(fmt.Errorf("gap: replay worker %d from spilled log: %w", w, err))
			return false
		}
		d.replayedDisk.Add(rp.fromDisk)
		if tr != nil {
			t1 := ts()
			for s, k := range rp.bySender {
				if k > 0 {
					tr.Mark(s, obs.MarkReplay, t1)
				}
			}
			tr.SpanEnd(d.n, obs.PhaseReplay, t1)
			tr.Count(d.n, obs.CounterReplayed, t1, rp.msgs)
			tr.Sample(d.n, obs.GaugeLogSize, t1, float64(d.rec.log.size()))
		}
		d.replayed.Add(rp.msgs)
		now := sinceFn(d.start)
		d.recoveryNS.Add(int64(now - d.detectAt[w]))
		// Straggler-aware η reseed: a worker restarting into a deep replayed
		// backlog (or after a long recovery) re-enters with a finer check
		// granularity so it interleaves draining and flushing instead of
		// burning a full coarse wave on stale state; its next idle transition
		// restores the configured bound.
		if d.ckEvery != nil && d.cfg.CheckEvery > 1 {
			ce := d.ckEvery[w].Load()
			for ce > 8 && rp.msgs >= int64(ce)*4 {
				ce /= 2
			}
			if ce > 8 && float64(now-d.detectAt[w]) > 100*float64(time.Millisecond) {
				ce /= 2
			}
			if ce != d.ckEvery[w].Load() {
				d.ckEvery[w].Store(ce)
				d.etaReseeds.Add(1)
				if tr != nil {
					t := ts()
					tr.Sample(w, obs.GaugeEta, t, float64(ce))
					tr.Count(w, obs.CounterEtaReseeds, t, 1)
				}
			}
			// Peer reseed (R1 wake-up thresholds): a surviving sender whose
			// log replayed a deep backlog into the restarted worker was
			// running far ahead of it. Halving that peer's effective check
			// granularity makes it hit its indicator checks — and the R1
			// wake-up flushes they trigger — proportionally more often, so
			// the victim catches up on fresh deltas instead of coarse stale
			// waves. Same backlog metric, same floor, and the same idle-
			// transition restore as the victim's η reseed.
			for s := 0; s < d.n; s++ {
				if s == w || rp.bySender[s] == 0 {
					continue
				}
				pce := d.ckEvery[s].Load()
				for pce > 8 && rp.bySender[s] >= int64(pce)*4 {
					pce /= 2
				}
				if pce != d.ckEvery[s].Load() {
					d.ckEvery[s].Store(pce)
					d.etaReseeds.Add(1)
					if tr != nil {
						t := ts()
						tr.Sample(s, obs.GaugeEta, t, float64(pce))
						tr.Count(s, obs.CounterEtaReseeds, t, 1)
					}
				}
			}
		}
		d.ctrl.mu.Lock()
		d.ctrl.dead[w] = false
		d.ctrl.nDead--
		d.ctrl.restart[w] = liveRestartUnknown
		d.ctrl.beats[w].Store(int64(now))
		d.ctrl.mu.Unlock()
		d.recState[w] = 0
		d.recoveries.Add(1)
		if tr != nil {
			tr.Mark(w, obs.MarkRestart, ts())
			tr.SpanEnd(d.n, obs.PhaseRecovery, ts())
		}
		d.wg.Add(1)
		go d.worker(d.states[w])
		revived = true
	}
	return revived
}

// stuckDetail renders the per-worker diagnosis appended to the watchdog's
// stuck-run error: transport counters, last-heartbeat ages, death/staging
// status, log retention and outstanding acks — enough to read a chaos-CI
// failure from the log alone.
func (d *liveDriver[V]) stuckDetail() string {
	if !d.diag {
		return ""
	}
	var b strings.Builder
	now := sinceFn(d.start)
	d.ctrl.mu.Lock()
	dead := append([]bool(nil), d.ctrl.dead...)
	restart := append([]float64(nil), d.ctrl.restart...)
	d.ctrl.mu.Unlock()
	for i := 0; i < d.n; i++ {
		age := now - time.Duration(d.ctrl.beats[i].Load())
		status := "live"
		if dead[i] {
			status = "dead"
			if restart[i] == liveRestartUnknown {
				status = "dead(unannounced)"
			}
			if d.recState != nil && d.recState[i] != 0 {
				status = "dead(staged)"
			}
		}
		fmt.Fprintf(&b, "\n  worker %d [%s]: sent=%d recv=%d acked=%d beat=%.1fms ago",
			i, status, d.wsent[i].Load(), d.wrecv[i].Load(), d.wacked[i].Load(),
			float64(age)/1e6)
		if d.rec != nil {
			fmt.Fprintf(&b, " log=%d", d.rec.log.retainedFrom(i))
		}
	}
	if d.recover {
		fmt.Fprintf(&b, "\n  acks outstanding=%d", d.acksOut.Load())
	}
	return b.String()
}
