package gap

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"argan/internal/ace"
	"argan/internal/mem"
	"argan/internal/obs"
)

// Localized recovery, the live driver's one way of surviving a crash. No
// barrier is ever taken and the survivors keep computing:
//
//   - Uncoordinated per-worker checkpoints: the monitor round-robins a
//     checkpoint request to one worker at a time; the worker snapshots its
//     own fragment state (Ψ, aux, active set, out-accumulators, sequence
//     cursors, undo log) inline at its next safe point. No barrier, no park.
//   - Sender-side message logging: every outbound batch is stamped with
//     (incarnation, sender, seq) at ship time and a copy is retained in a
//     driver-level per-link log until both endpoints' checkpoints commit it.
//   - Exactly-once ingestion: receivers keep a per-sender cursor, drop
//     duplicate sequence numbers and reorder-buffer gaps. This layer is also
//     active whenever the fault plan injects link faults, because dup/reorder
//     fates are only safe for replay-tolerant aggregation — Δ-PageRank's
//     accumulative h_in is not.
//
// When worker w dies, the monitor: bumps w's incarnation, truncates w's
// outgoing log back to its last checkpoint (the committed prefix), notifies
// every live peer — survivors un-apply (ace.Algebra's Invert) or tolerate
// (a ReplayTolerant algebra) w's uncommitted contributions and lower their
// cursors — waits for all acks, restores w's last checkpoint, replays the
// logged batches w lost since that checkpoint straight into its state, and
// respawns the goroutine. No survivor loses post-checkpoint work.

// RecoveryLocal is the one value LiveConfig.Recovery accepts besides "".
const RecoveryLocal = "local"

// liveLogSoftCap is the retained-batch count across the whole message log
// above which the monitor asks every live worker to checkpoint out of turn,
// so log retention (bounded by checkpoint lag) is pulled back down.
const liveLogSoftCap = 4096

// incBound records one rollback of a sender: streams of incarnations older
// than inc are committed only up to stable — later sequence numbers from
// those incarnations were rolled back and must not be accepted.
type incBound struct {
	inc    int32
	stable uint64
}

// undoHit is one applied contribution: Aggregate(psi[local], val) reported a
// change. Inverting it restores the pre-aggregation value.
type undoHit[V any] struct {
	local uint32
	val   V
}

// undoRec groups the applied contributions of one logged batch, keyed by the
// batch's sequence number so a rollback notice can un-apply exactly the
// uncommitted suffix.
type undoRec[V any] struct {
	seq  uint64
	hits []undoHit[V]
}

// rollNotice tells a survivor that sender rolled back: its streams older
// than inc are committed only up to stable.
type rollNotice struct {
	sender int
	inc    int32
	stable uint64
}

// rollEntry is the monitor's record of one rollback of a sender, with the
// per-receiver stable cut (the sender's checkpointed send sequence toward
// each peer). Restores use it to repair snapshots taken before the rollback.
type rollEntry struct {
	inc    int32
	stable []uint64
}

// recoverState is one worker's half of the exactly-once / localized-recovery
// protocol. It is owned by whoever owns the workerState (the worker goroutine,
// or the monitor during a restore).
type recoverState[V any] struct {
	myInc   int32    // this worker's current incarnation (stamped on sends)
	sendSeq []uint64 // last sequence number shipped to each peer
	expInc  []int32  // expected incarnation per sender
	cursor  []uint64 // highest contiguously applied sequence per sender
	robuf   []map[uint64][]ace.Message[V]
	bounds  [][]incBound // acceptance bounds for old-incarnation envelopes
	// undo logs applied contributions per sender for inversion on rollback;
	// nil for replay-tolerant programs (re-application is harmless) and on
	// runs without crash recovery (nothing ever rolls back).
	undo   [][]undoRec[V]
	invert func(cur, contrib V) V

	// Reorder-buffer accounting under a memory governor: bufMsgs counts the
	// messages currently held across robuf, acct carries their estimated
	// bytes. nil acct (the ungoverned default) makes both no-ops.
	acct    *mem.Account
	wire    int64
	bufMsgs int64
}

// noteBuf adjusts the reorder-buffer accounting by dm messages.
func (rs *recoverState[V]) noteBuf(dm int) {
	if rs.acct == nil || dm == 0 {
		return
	}
	rs.bufMsgs += int64(dm)
	rs.acct.Add(int64(dm) * rs.wire)
}

// resetBuf zeroes the accounting after the buffers were dropped wholesale
// (a restore clears every reorder buffer).
func (rs *recoverState[V]) resetBuf() {
	if rs.acct == nil || rs.bufMsgs == 0 {
		return
	}
	rs.acct.Add(-rs.bufMsgs * rs.wire)
	rs.bufMsgs = 0
}

func newRecoverState[V any](n int, invert func(cur, contrib V) V) *recoverState[V] {
	rs := &recoverState[V]{
		sendSeq: make([]uint64, n),
		expInc:  make([]int32, n),
		cursor:  make([]uint64, n),
		robuf:   make([]map[uint64][]ace.Message[V], n),
		bounds:  make([][]incBound, n),
	}
	if invert != nil {
		rs.undo = make([][]undoRec[V], n)
		rs.invert = invert
	}
	return rs
}

// boundLimit returns the highest sequence number still acceptable from an
// envelope of incarnation inc of sender s: the minimum stable cut over every
// rollback that superseded that incarnation.
func (rs *recoverState[V]) boundLimit(s int, inc int32) uint64 {
	limit := ^uint64(0)
	for _, b := range rs.bounds[s] {
		if b.inc > inc && b.stable < limit {
			limit = b.stable
		}
	}
	return limit
}

// applyFrom is h_in for one sequenced batch: aggregate every message,
// re-activate dependents, and (when inverting) record the applied
// contributions under the batch's sequence number.
func (st *workerState[V]) applyFrom(s int, seq uint64, msgs []ace.Message[V]) {
	rs := st.rs
	var hits []undoHit[V]
	for _, m := range msgs {
		lv, ok := st.frag.Local(m.V)
		if !ok {
			continue
		}
		nv, ch := st.prog.Aggregate(st.psi[lv], m.Val)
		if !ch {
			continue
		}
		if rs.undo != nil {
			hits = append(hits, undoHit[V]{local: lv, val: m.Val})
		}
		st.psi[lv] = nv
		st.wake(lv)
	}
	if rs.undo != nil && len(hits) > 0 {
		rs.undo[s] = append(rs.undo[s], undoRec[V]{seq: seq, hits: hits})
	}
}

// seqIngest routes one drained envelope through the exactly-once layer:
// duplicates are dropped, gaps are reorder-buffered, in-order batches are
// applied (draining any buffered successors). The caller has already counted
// the envelope as received — the termination ledger counts transport
// deliveries, not applications.
func (st *workerState[V]) seqIngest(env liveEnvelope[V]) {
	rs := st.rs
	s := int(env.from)
	recycle := st.pool.put
	if env.inc != rs.expInc[s] {
		if env.inc > rs.expInc[s] {
			// Protocol violation (a restarted sender ships only after every
			// survivor acked its rollback); drop defensively.
			recycle(env.msgs)
			return
		}
		// Old incarnation: only its committed prefix survives the rollback —
		// everything past the stable cut is re-derived by the restarted
		// sender and must not be double-applied.
		if env.seq > rs.boundLimit(s, env.inc) {
			recycle(env.msgs)
			return
		}
	}
	switch {
	case env.seq <= rs.cursor[s]:
		recycle(env.msgs) // duplicate
	case env.seq == rs.cursor[s]+1:
		st.applyFrom(s, env.seq, env.msgs)
		recycle(env.msgs)
		rs.cursor[s] = env.seq
		for {
			m, ok := rs.robuf[s][rs.cursor[s]+1]
			if !ok {
				break
			}
			delete(rs.robuf[s], rs.cursor[s]+1)
			rs.noteBuf(-len(m))
			rs.cursor[s]++
			st.applyFrom(s, rs.cursor[s], m)
			recycle(m)
		}
	default:
		if rs.robuf[s] == nil {
			rs.robuf[s] = make(map[uint64][]ace.Message[V])
		}
		if _, dup := rs.robuf[s][env.seq]; dup {
			recycle(env.msgs)
		} else {
			rs.robuf[s][env.seq] = env.msgs
			rs.noteBuf(len(env.msgs))
		}
	}
}

// rollbackSender applies one rollback notice: record the acceptance bound,
// drop buffered uncommitted batches, un-apply uncommitted contributions
// (inverting programs), and lower the cursor to the stable cut so the
// restarted sender's re-derived stream is accepted. Idempotent per (sender,
// inc) — a restore may re-deliver a notice the snapshot already processed.
func (st *workerState[V]) rollbackSender(s int, inc int32, stable uint64) {
	rs := st.rs
	if rs.expInc[s] >= inc {
		return
	}
	rs.expInc[s] = inc
	rs.bounds[s] = append(rs.bounds[s], incBound{inc: inc, stable: stable})
	for seq, m := range rs.robuf[s] {
		if seq > stable {
			delete(rs.robuf[s], seq)
			rs.noteBuf(-len(m))
		}
	}
	if rs.undo != nil {
		keep := rs.undo[s][:0]
		for _, rec := range rs.undo[s] {
			if rec.seq <= stable {
				keep = append(keep, rec)
				continue
			}
			for _, h := range rec.hits {
				st.psi[h.local] = rs.invert(st.psi[h.local], h.val)
				st.wake(h.local)
			}
		}
		rs.undo[s] = keep
	}
	if rs.cursor[s] > stable {
		rs.cursor[s] = stable
	}
}

// loggedBatch is one retained copy of a shipped batch. A spilled entry has
// paged its payload to the spill tier: msgs is nil and (off, n) address the
// record; readers resolve it through msgLog.fetch.
type loggedBatch[V any] struct {
	seq     uint64
	msgs    []ace.Message[V]
	n       int
	spilled bool
	off     int64
}

// msgLog is the driver-level sender-side message log: rows[from*n+to] holds
// the retained batches of one link in ascending sequence order. Senders
// append at ship time; checkpoints prune the committed prefix; the monitor
// truncates the uncommitted suffix on a rollback and reads the retained
// suffix for replay. Under a memory governor the log also keeps byte
// accounting and pages its oldest resident entries to the spill tier when
// the degradation ladder (or the retention byte cap) calls for it.
type msgLog[V any] struct {
	mu    sync.Mutex
	n     int
	rows  [][]loggedBatch[V]
	total int

	// Memory governance (set once by configure, before the run starts).
	acct *mem.Account
	gov  *mem.Governor
	sp   *mem.Spiller
	wire int64 // exact encoded bytes per message (0 = spilling disabled)
	est  int64 // accounting bytes per message

	ramBytes  int64 // accounted cost of resident entries (guarded by mu)
	diskBytes int64 // encoded bytes of spilled entries still referenced
	peakRet   int64 // high-water mark of ramBytes+diskBytes
	capBytes  int64 // per-receiver retention soft cap (0 = uncapped)
}

func newMsgLog[V any](n int) *msgLog[V] {
	return &msgLog[V]{n: n, rows: make([][]loggedBatch[V], n*n), est: msgWireEstimate}
}

// configure attaches the governor's accounting (and, when the budget is
// bounded and the value type has a fixed wire size, a spill file) to the
// log. Must be called before any append.
func (l *msgLog[V]) configure(gov *mem.Governor, wire int, capBytes int64) {
	l.acct = gov.Account("msglog")
	l.gov = gov
	l.capBytes = capBytes
	if wire > 0 {
		l.wire = int64(wire)
		l.est = int64(wire)
		if gov.Budget() > 0 {
			if sp, err := gov.NewSpiller("msglog"); err == nil {
				l.sp = sp
			}
		}
	}
}

// ramCost is the accounted RAM cost of one resident n-message entry.
func (l *msgLog[V]) ramCost(n int) int64 { return int64(n)*l.est + logEntryOverhead }

// diskCost is the encoded size of one spilled n-message entry.
func (l *msgLog[V]) diskCost(n int) int64 { return int64(n) * l.wire }

func (l *msgLog[V]) append(from, to int, seq uint64, msgs []ace.Message[V]) {
	cp := append([]ace.Message[V](nil), msgs...)
	cost := l.ramCost(len(cp))
	l.mu.Lock()
	k := from*l.n + to
	l.rows[k] = append(l.rows[k], loggedBatch[V]{seq: seq, msgs: cp, n: len(cp)})
	l.total++
	l.ramBytes += cost
	if t := l.ramBytes + l.diskBytes; t > l.peakRet {
		l.peakRet = t
	}
	l.acct.Add(cost)
	l.spillToTargetLocked()
	l.mu.Unlock()
}

// spillQuantum bounds the encoded bytes one spillToTargetLocked call may
// write. Paging happens synchronously inside the sender's append, between
// two heartbeats: an unbounded pass under a tight budget could stall the
// worker past the heartbeat timeout and read as a death. Residual pressure
// is drained by the next appends instead.
const spillQuantum = 256 << 10

// spillToTargetLocked pages the oldest resident entries to the spill tier
// until the resident cost drops to the stage's target: half under StageCkpt
// (or past the retention cap), everything under StageThrottle and beyond.
// Rows are drained round-robin, oldest entry first, so no link monopolizes
// the tier. Encoding failures leave the entry resident — spilling is an
// optimization, retention correctness never depends on it.
func (l *msgLog[V]) spillToTargetLocked() {
	if l.sp == nil {
		return
	}
	target := int64(-1)
	switch l.gov.Stage() {
	case mem.StageCkpt:
		target = l.ramBytes / 2
	case mem.StageThrottle, mem.StageStream:
		target = 0
	}
	if l.capBytes > 0 && l.ramBytes > l.capBytes && (target < 0 || target > l.capBytes/2) {
		target = l.capBytes / 2
	}
	if target < 0 || l.ramBytes <= target {
		return
	}
	written := int64(0)
	for l.ramBytes > target && written < spillQuantum {
		paged := false
		for k := range l.rows {
			if l.ramBytes <= target || written >= spillQuantum {
				break
			}
			row := l.rows[k]
			for i := range row {
				if row[i].spilled {
					continue
				}
				p, err := encodeMsgs(row[i].msgs)
				if err != nil {
					return
				}
				off, err := l.sp.Append(p)
				if err != nil {
					return
				}
				written += int64(len(p))
				cost := l.ramCost(row[i].n)
				row[i].spilled = true
				row[i].off = off
				row[i].msgs = nil
				l.ramBytes -= cost
				l.diskBytes += l.diskCost(row[i].n)
				l.acct.Add(-cost)
				paged = true
				break // oldest resident entry of this row, then next row
			}
		}
		if !paged {
			return
		}
	}
}

// fetch resolves one entry's messages, reading spilled entries back from the
// tier. Safe without the log mutex: entry headers handed out by after are
// copies, payloads and spill records are immutable once written.
func (l *msgLog[V]) fetch(e loggedBatch[V]) ([]ace.Message[V], error) {
	if !e.spilled {
		return e.msgs, nil
	}
	return decodeMsgs[V](l.sp, e.off, e.n, int(l.wire))
}

// dropLocked releases one entry's accounting (RAM or spill tier).
func (l *msgLog[V]) dropLocked(e *loggedBatch[V]) {
	if e.spilled {
		c := l.diskCost(e.n)
		l.diskBytes -= c
		l.sp.Release(c)
	} else {
		c := l.ramCost(e.n)
		l.ramBytes -= c
		l.acct.Add(-c)
	}
	e.msgs = nil
}

// truncate drops every batch from sender past its per-receiver stable cut:
// the restarted incarnation re-derives and re-logs that suffix.
func (l *msgLog[V]) truncate(from int, stable []uint64) {
	l.mu.Lock()
	for to := 0; to < l.n; to++ {
		k := from*l.n + to
		row := l.rows[k]
		i := len(row)
		for i > 0 && row[i-1].seq > stable[to] {
			i--
		}
		l.total -= len(row) - i
		for j := i; j < len(row); j++ {
			l.dropLocked(&row[j])
			row[j] = loggedBatch[V]{}
		}
		l.rows[k] = row[:i]
	}
	l.mu.Unlock()
}

// prune discards the committed prefix of one link (seq <= bound).
func (l *msgLog[V]) prune(from, to int, bound uint64) {
	l.mu.Lock()
	k := from*l.n + to
	row := l.rows[k]
	i := 0
	for i < len(row) && row[i].seq <= bound {
		l.dropLocked(&row[i])
		i++
	}
	if i > 0 {
		l.total -= i
		l.rows[k] = row[i:]
	}
	l.mu.Unlock()
}

// after returns the retained batches of one link past cursor as header
// copies: payloads and spill records are immutable once written, but the log
// may page an entry out in place while the caller iterates, so the headers
// themselves must be snapshotted under the mutex. Callers resolve payloads
// through fetch.
func (l *msgLog[V]) after(from, to int, cursor uint64) []loggedBatch[V] {
	l.mu.Lock()
	defer l.mu.Unlock()
	row := l.rows[from*l.n+to]
	i := 0
	for i < len(row) && row[i].seq <= cursor {
		i++
	}
	if i == len(row) {
		return nil
	}
	return append([]loggedBatch[V](nil), row[i:]...)
}

// retainedToward sums the retained bytes (RAM and spilled) of every row
// shipping to receiver to — the quantity a slow-to-checkpoint receiver
// grows, and what LogBytesSoftCap bounds.
func (l *msgLog[V]) retainedToward(to int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b int64
	for from := 0; from < l.n; from++ {
		for _, e := range l.rows[from*l.n+to] {
			if e.spilled {
				b += l.diskCost(e.n)
			} else {
				b += l.ramCost(e.n)
			}
		}
	}
	return b
}

// bytes reports the log's current RAM cost, spilled bytes and the high-water
// mark of total retention.
func (l *msgLog[V]) bytes() (ram, disk, peak int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ramBytes, l.diskBytes, l.peakRet
}

// retainedFrom counts the batches retained across one sender's rows.
func (l *msgLog[V]) retainedFrom(from int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for to := 0; to < l.n; to++ {
		n += len(l.rows[from*l.n+to])
	}
	return n
}

func (l *msgLog[V]) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// localSnap is one worker's uncoordinated checkpoint: the fragment snapshot
// and its sequence state, plus the receive-side protocol state needed to
// repair it against rollbacks that happen after it was taken. In-flight
// messages are not captured — the senders' logs replay them.
type localSnap[V any] struct {
	valid bool
	base  stateSnap[V]
	// Sequence state of the exactly-once layer. Snapshots are taken at a
	// worker-local safe point; batches sitting in the reorder buffers are
	// simply dropped — the retained log replays them.
	sendSeq []uint64
	cursor  []uint64
	expInc  []int32
	bounds  [][]incBound
	undo    [][]undoRec[V]
	// page holds the bulky snapshot parts when they were paged to the spill
	// tier at checkpoint time (base.psi/active/out are then nil); restores
	// materialize it back without consuming it.
	page *snapPage
}

// takeLocalCkpt snapshots the calling worker's state inline (no barrier, no
// park) and publishes it together with the stable cursors that let peers
// prune their logs. Called only from the worker's own safe points, so the
// state is quiescent: no half-applied batch, no half-flushed accumulator.
func (d *liveDriver[V]) takeLocalCkpt(st *workerState[V]) {
	id := st.id
	rs := st.rs
	n := d.n
	// Prune the undo log first: contributions at or below the sender's own
	// checkpoint can never be rolled back (a sender never restores past its
	// last checkpoint, and stableSent only advances).
	if rs.undo != nil {
		for s := 0; s < n; s++ {
			if s == id || len(rs.undo[s]) == 0 {
				continue
			}
			floor := d.stableSent[s*n+id].Load()
			keep := rs.undo[s][:0]
			for _, rec := range rs.undo[s] {
				if rec.seq > floor {
					keep = append(keep, rec)
				}
			}
			rs.undo[s] = keep
		}
	}
	snap := localSnap[V]{
		valid:   true,
		base:    st.capture(),
		sendSeq: append([]uint64(nil), rs.sendSeq...),
		cursor:  append([]uint64(nil), rs.cursor...),
		expInc:  append([]int32(nil), rs.expInc...),
		bounds:  make([][]incBound, n),
	}
	for s := 0; s < n; s++ {
		snap.bounds[s] = append([]incBound(nil), rs.bounds[s]...)
	}
	if rs.undo != nil {
		snap.undo = make([][]undoRec[V], n)
		for s := 0; s < n; s++ {
			// undoRec.hits slices are immutable after creation, so sharing
			// them between the live log and the snapshot is safe.
			snap.undo[s] = append([]undoRec[V](nil), rs.undo[s]...)
		}
	}
	// Account the snapshot and, under memory pressure, page its bulky parts
	// (Ψ, active set, out-accumulators) to the spill tier; the repair state
	// stays resident. The superseded snapshot's page is released.
	cost := snapResidentBytes(&snap.base, d.vSize, d.wireEst)
	if d.snapSp != nil && d.gov.Stage() >= mem.StageCkpt {
		if pg, err := spillSnap(d.snapSp, &snap.base); err == nil {
			snap.page = pg
			cost = 0
			if tr := d.cfg.Tracer; tr != nil {
				tr.Mark(id, obs.MarkSpill, float64(sinceFn(d.start))/1e3)
			}
		}
	}
	d.localMu.Lock()
	old := d.localSnaps[id]
	d.localSnaps[id] = snap
	d.localMu.Unlock()
	if old.page != nil {
		old.page.sp.Release(old.page.size)
	}
	if d.ckptBytes != nil {
		d.ckptAcct.Add(cost - d.ckptBytes[id])
		d.ckptBytes[id] = cost
	}
	// Publish the stable cursors. Order matters for pruners: snapExpInc is
	// stored last and read first, so a reader that sees the new incarnation
	// view is guaranteed to also see the matching (or newer) cursors.
	for j := 0; j < n; j++ {
		d.stableSent[id*n+j].Store(rs.sendSeq[j])
		d.stableRecv[id*n+j].Store(rs.cursor[j])
		d.snapExpInc[id*n+j].Store(rs.expInc[j])
	}
	d.pruneLog(id)
	d.checkpoints.Add(1)
}

// pruneLog discards the committed prefix of every outgoing row of sender:
// batches the receiver's published checkpoint has absorbed — unless a
// rollback of the sender newer than that checkpoint exposes the receiver to
// a deeper restore cursor, in which case the prune floor is clamped to the
// rollback's stable cut.
func (d *liveDriver[V]) pruneLog(sender int) {
	n := d.n
	for j := 0; j < n; j++ {
		if j == sender {
			continue
		}
		// Read snapExpInc before stableRecv (the writer stores stableRecv
		// first): seeing a new incarnation view implies the matching cursor
		// is visible too, so the clamp below can never be skipped stale.
		sx := d.snapExpInc[j*n+sender].Load()
		bound := d.stableRecv[j*n+sender].Load()
		d.rollMu.Lock()
		for _, e := range d.rollHist[sender] {
			if e.inc > sx && e.stable[j] < bound {
				bound = e.stable[j]
			}
		}
		d.rollMu.Unlock()
		d.mlog.prune(sender, j, bound)
	}
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
	if d.mlog.size() > liveLogSoftCap {
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
// death: claim the worker busy so termination cannot race the restore, bump
// its incarnation, truncate its uncommitted log suffix, record the rollback,
// and notify every live peer. Returns false when the run is already over or
// the death is unrecoverable.
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
	inc := d.incOf[w].Add(1)
	stable := make([]uint64, d.n)
	for j := 0; j < d.n; j++ {
		stable[j] = d.stableSent[w*d.n+j].Load()
	}
	d.mlog.truncate(w, stable)
	d.rollMu.Lock()
	d.rollHist[w] = append(d.rollHist[w], rollEntry{inc: inc, stable: stable})
	d.rollMu.Unlock()
	d.ctrl.mu.Lock()
	for j := 0; j < d.n; j++ {
		announcedDead := d.ctrl.dead[j] && d.ctrl.restart[j] != liveRestartUnknown
		if j == w || announcedDead || d.recState[j] != 0 {
			// Announced-dead or staged peers are repaired at their own
			// restore via the rollback history instead of a notice. An
			// unannounced-dead peer still gets one: it is either a stalled
			// goroutine that will resurrect, resume draining and ack (it
			// never restores, so the history would not repair it), or truly
			// wedged — in which case the grace window fails the run anyway.
			continue
		}
		d.noticeMu.Lock()
		d.noticeQ[j] = append(d.noticeQ[j], rollNotice{sender: w, inc: inc, stable: stable[j]})
		d.noticeFlag[j].Store(true)
		d.acksOut.Add(1)
		d.noticeMu.Unlock()
	}
	d.ctrl.mu.Unlock()
	d.recState[w] = 1
	return true
}

// restoreLocal rolls worker w back to its own last checkpoint and repairs
// the snapshot against every peer rollback that happened after it was taken
// (the snapshot predates those notices, so they are re-applied here from the
// rollback history). The monitor owns w's state: the goroutine is gone.
// Returns false when a paged checkpoint cannot be read back — the run is
// then failed with a descriptive error.
func (d *liveDriver[V]) restoreLocal(w int) bool {
	st := d.states[w]
	rs := st.rs
	d.localMu.Lock()
	snap := d.localSnaps[w]
	d.localMu.Unlock()
	if snap.page != nil {
		// The local copy materializes the page; the stored snapshot keeps
		// only the page reference, so later restores re-read it.
		if err := unspillSnap(snap.page, &snap.base); err != nil {
			d.coord.fail(fmt.Errorf("gap: restore worker %d from spilled checkpoint: %w", w, err))
			return false
		}
	}
	st.restore(&snap.base)
	copy(rs.sendSeq, snap.sendSeq)
	copy(rs.cursor, snap.cursor)
	for i := range rs.robuf {
		rs.robuf[i] = nil
	}
	rs.resetBuf()
	copy(rs.expInc, snap.expInc)
	for s := 0; s < d.n; s++ {
		rs.bounds[s] = append(rs.bounds[s][:0], snap.bounds[s]...)
	}
	if rs.undo != nil {
		for s := 0; s < d.n; s++ {
			rs.undo[s] = append(rs.undo[s][:0], snap.undo[s]...)
		}
	}
	d.rollMu.Lock()
	for s := 0; s < d.n; s++ {
		if s == w {
			continue
		}
		for _, e := range d.rollHist[s] {
			if e.inc > rs.expInc[s] {
				st.rollbackSender(s, e.inc, e.stable[w])
			}
		}
	}
	d.rollMu.Unlock()
	rs.myInc = d.incOf[w].Load()
	return true
}

// replayInto re-applies the logged batches worker w lost since its restored
// cursors, straight into its state through the same h_in path a live drain
// would use. Replayed messages are not counted in the termination ledger —
// their original deliveries already balanced it. Returns the total messages
// replayed and the per-sender breakdown (the replay-backlog metric both the
// victim's and the surviving peers' η reseeds key off).
func (d *liveDriver[V]) replayInto(w int) (int64, []int64) {
	st := d.states[w]
	rs := st.rs
	tr := d.cfg.Tracer
	var total int64
	bySender := make([]int64, d.n)
	for s := 0; s < d.n; s++ {
		if s == w {
			continue
		}
		entries := d.mlog.after(s, w, rs.cursor[s])
		if len(entries) == 0 {
			continue
		}
		for _, e := range entries {
			if e.seq != rs.cursor[s]+1 {
				break // gap: the rest is still in flight, the drain path applies it
			}
			msgs, err := d.mlog.fetch(e)
			if err != nil {
				d.coord.fail(fmt.Errorf("gap: replay worker %d from spilled log: %w", w, err))
				return total, bySender
			}
			st.applyFrom(s, e.seq, msgs)
			if e.spilled {
				d.replayedDisk.Add(int64(e.n))
			}
			rs.cursor[s] = e.seq
			total += int64(len(msgs))
			bySender[s] += int64(len(msgs))
		}
		if tr != nil {
			tr.Mark(s, obs.MarkReplay, float64(sinceFn(d.start))/1e3)
		}
	}
	return total, bySender
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
		if !d.restoreLocal(w) {
			return false
		}
		if tr != nil {
			tr.SpanBegin(d.n, obs.PhaseReplay, ts())
		}
		replayed, bySender := d.replayInto(w)
		if tr != nil {
			t1 := ts()
			tr.SpanEnd(d.n, obs.PhaseReplay, t1)
			tr.Count(d.n, obs.CounterReplayed, t1, replayed)
			tr.Sample(d.n, obs.GaugeLogSize, t1, float64(d.mlog.size()))
		}
		d.replayed.Add(replayed)
		now := sinceFn(d.start)
		d.recoveryNS.Add(int64(now - d.detectAt[w]))
		// Straggler-aware η reseed: a worker restarting into a deep replayed
		// backlog (or after a long recovery) re-enters with a finer check
		// granularity so it interleaves draining and flushing instead of
		// burning a full coarse wave on stale state; its next idle transition
		// restores the configured bound.
		if d.ckEvery != nil && d.cfg.CheckEvery > 1 {
			ce := d.ckEvery[w].Load()
			for ce > 8 && replayed >= int64(ce)*4 {
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
				if s == w || bySender[s] == 0 {
					continue
				}
				pce := d.ckEvery[s].Load()
				for pce > 8 && bySender[s] >= int64(pce)*4 {
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
		if d.mlog != nil {
			fmt.Fprintf(&b, " log=%d", d.mlog.retainedFrom(i))
		}
	}
	if d.recover {
		fmt.Fprintf(&b, "\n  acks outstanding=%d", d.acksOut.Load())
	}
	return b.String()
}
