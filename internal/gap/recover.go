package gap

import (
	"sync"
	"sync/atomic"

	"argan/internal/ace"
	"argan/internal/fault"
	"argan/internal/mem"
)

// Localized recovery, the one way either driver survives a crash. No
// barrier is ever taken and the survivors keep computing:
//
//   - Uncoordinated per-worker checkpoints: one worker at a time, round-robin
//     (one per CheckpointEvery/n), snapshots its own fragment state (Ψ, aux,
//     active set, out-accumulators, sequence cursors, undo log) at its next
//     safe point.
//   - Sender-side message logging: every outbound batch is stamped with
//     (incarnation, sender, seq) at ship time and a copy is retained in a
//     driver-level per-link log until both endpoints' checkpoints commit it.
//   - Exactly-once ingestion: receivers keep a per-sender cursor, drop
//     duplicate sequence numbers and reorder-buffer gaps. This layer is also
//     active whenever the fault plan injects link faults, because dup/reorder
//     fates are only safe for replay-tolerant aggregation — Δ-PageRank's
//     accumulative h_in is not.
//
// When worker w dies, its driver stages the death (localRecovery.stage):
// w's incarnation is bumped, its outgoing log truncated back to its last
// checkpoint (the committed prefix), and every live peer notified —
// survivors un-apply (ace.Algebra's Invert) or tolerate (a ReplayTolerant
// algebra) w's uncommitted contributions and lower their cursors. Once every
// survivor has applied its notice, w is restored from its last checkpoint
// (restore) and the logged batches it lost since are replayed straight into
// its state (replay). No survivor loses post-checkpoint work.
//
// This file is the driver-independent half. The live driver adds heartbeat
// detection, notice acks across goroutines, memory governance, the η reseed
// and the respawn (liverecover.go); the sim drives the same steps from its
// event queue at deterministic cost (simfault.go).

// envelope is one batch in transit, from either driver's transport. Under the
// exactly-once layer (link faults or crash recovery) it carries, beside the
// sender id, the sender's incarnation and a per-link sequence number for
// dedup, reordering and replay.
type envelope[V any] struct {
	from int32
	inc  int32
	seq  uint64
	msgs []ace.Message[V]
}

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

// rollEntry is the record of one rollback of a sender, with the
// per-receiver stable cut (the sender's checkpointed send sequence toward
// each peer). Restores use it to repair snapshots taken before the rollback.
type rollEntry struct {
	inc    int32
	stable []uint64
}

// recoverState is one worker's half of the exactly-once / localized-recovery
// protocol. It is owned by whoever owns the workerState (the worker goroutine,
// or the driver's recovery step during a restore).
type recoverState[V any] struct {
	myInc   int32    // this worker's current incarnation (stamped on sends)
	sendSeq []uint64 // last sequence number shipped to each peer
	// log retains a copy of every stamped batch; nil unless the run can
	// recover a crash.
	log    *msgLog[V]
	expInc []int32  // expected incarnation per sender
	cursor []uint64 // highest contiguously applied sequence per sender
	robuf  []map[uint64][]ace.Message[V]
	bounds [][]incBound // acceptance bounds for old-incarnation envelopes
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

// stamp wraps a batch for peer j: under the exactly-once layer it draws the
// next per-link sequence number and (when the run can recover a crash)
// retains a copy in the sender-side log before the batch ever becomes
// visible.
func (st *workerState[V]) stamp(j int, msgs []ace.Message[V]) envelope[V] {
	env := envelope[V]{from: int32(st.id), msgs: msgs}
	if rs := st.rs; rs != nil {
		rs.sendSeq[j]++
		env.seq = rs.sendSeq[j]
		env.inc = rs.myInc
		if rs.log != nil {
			rs.log.append(st.id, j, env.seq, msgs)
		}
	}
	return env
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
func (st *workerState[V]) seqIngest(env envelope[V]) {
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
// append at ship time; checkpoints prune the committed prefix; staging a
// death truncates the uncommitted suffix and replay reads the retained
// suffix. Under a memory governor the log also keeps byte
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
	case mem.StageThrottle:
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
// repair it against rollbacks that happen after it was taken. Messages in
// transit are not captured — the senders' logs replay them.
type localSnap[V any] struct {
	base stateSnap[V]
	// Sequence state of the exactly-once layer. Snapshots are taken at a
	// worker-local safe point; batches sitting in the reorder buffers are
	// simply dropped — the retained log replays them.
	sendSeq []uint64
	cursor  []uint64
	expInc  []int32
	bounds  [][]incBound
	undo    [][]undoRec[V]
	// page holds the bulky snapshot parts when the live driver paged them to
	// the spill tier at checkpoint time (base.psi/active/out are then nil);
	// restores materialize it back without consuming it.
	page *snapPage
}

// exactlyOnce derives from a fault plan what the exactly-once layer must
// do: recover when some crash restarts (Restart >= 0; a plan says a crash is
// permanent with Restart < 0); stamp batches (seqOn) when recovering or when
// link faults can duplicate and reorder them.
func exactlyOnce(plan *fault.Plan) (seqOn, recovers bool) {
	if plan != nil {
		for _, c := range plan.Crashes {
			if c.Restart >= 0 {
				recovers = true
				break
			}
		}
	}
	return recovers || plan.HasLinkFaults(), recovers
}

// localRecovery is the driver-level state of localized recovery: the
// message log, every worker's last checkpoint with the stable cursors it
// published, each worker's incarnation and the history of rollbacks. Its
// methods are safe to call from several goroutines; each workerState they
// touch must be owned by the caller.
type localRecovery[V any] struct {
	n   int
	log *msgLog[V]

	mu    sync.Mutex
	snaps []localSnap[V]
	// Published by each checkpoint, read by log pruners.
	stableSent []atomic.Uint64 // [from*n+to] sender's checkpointed send seq
	stableRecv []atomic.Uint64 // [recv*n+from] receiver's checkpointed cursor
	snapExpInc []atomic.Int32  // [recv*n+from] expInc inside the published snapshot
	inc        []atomic.Int32  // each worker's current incarnation

	histMu sync.Mutex
	hist   [][]rollEntry // every rollback of each sender
}

// attachRecovery switches the exactly-once layer on for every worker state.
// When recovers is set it also returns the localized-recovery state, with
// every worker's checkpoint 0 (its freshly initialized state) taken, so a
// crash before a worker's first periodic checkpoint restores it to the
// start; otherwise it returns nil. Survivors repair by inversion only when
// the program's algebra is not replay-tolerant.
func attachRecovery[V any](states []*workerState[V], alg ace.Algebra[V], recovers bool) *localRecovery[V] {
	n := len(states)
	var invert func(cur, contrib V) V
	if recovers && !alg.ReplayTolerant() {
		invert = alg.Invert
	}
	for _, st := range states {
		st.rs = newRecoverState[V](n, invert)
	}
	if !recovers {
		return nil
	}
	r := &localRecovery[V]{
		n:          n,
		log:        newMsgLog[V](n),
		snaps:      make([]localSnap[V], n),
		stableSent: make([]atomic.Uint64, n*n),
		stableRecv: make([]atomic.Uint64, n*n),
		snapExpInc: make([]atomic.Int32, n*n),
		inc:        make([]atomic.Int32, n),
		hist:       make([][]rollEntry, n),
	}
	for _, st := range states {
		st.rs.log = r.log
		r.checkpoint(st, nil)
	}
	return r
}

// checkpoint snapshots st's state and publishes it together with the
// stable cursors that let its peers prune their logs. The caller must be at
// one of st's safe points, where the state is quiescent: no half-applied
// batch, no half-flushed accumulator. page, when set, sees the snapshot
// before it is stored (the live driver pages it out under memory
// pressure). Returns the checkpoint it supersedes.
func (r *localRecovery[V]) checkpoint(st *workerState[V], page func(*localSnap[V])) localSnap[V] {
	id, rs, n := st.id, st.rs, r.n
	// Prune the undo log first: contributions at or below the sender's own
	// checkpoint can never be rolled back (a sender never restores past its
	// last checkpoint, and stableSent only advances).
	if rs.undo != nil {
		for s := 0; s < n; s++ {
			if s == id || len(rs.undo[s]) == 0 {
				continue
			}
			floor := r.stableSent[s*n+id].Load()
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
	if page != nil {
		page(&snap)
	}
	r.mu.Lock()
	old := r.snaps[id]
	r.snaps[id] = snap
	r.mu.Unlock()
	// Publish the stable cursors. Order matters for pruners: snapExpInc is
	// stored last and read first, so a reader that sees the new incarnation
	// view is guaranteed to also see the matching (or newer) cursors.
	for j := 0; j < n; j++ {
		r.stableSent[id*n+j].Store(rs.sendSeq[j])
		r.stableRecv[id*n+j].Store(rs.cursor[j])
		r.snapExpInc[id*n+j].Store(rs.expInc[j])
	}
	r.prune(id)
	return old
}

// prune discards the committed prefix of every outgoing row of sender:
// batches the receiver's published checkpoint has absorbed — unless a
// rollback of the sender newer than that checkpoint exposes the receiver to
// a deeper restore cursor, in which case the prune floor is clamped to the
// rollback's stable cut.
func (r *localRecovery[V]) prune(sender int) {
	n := r.n
	for j := 0; j < n; j++ {
		if j == sender {
			continue
		}
		// Read snapExpInc before stableRecv (the writer stores stableRecv
		// first): seeing a new incarnation view implies the matching cursor
		// is visible too, so the clamp below can never be skipped stale.
		sx := r.snapExpInc[j*n+sender].Load()
		bound := r.stableRecv[j*n+sender].Load()
		r.histMu.Lock()
		for _, e := range r.hist[sender] {
			if e.inc > sx && e.stable[j] < bound {
				bound = e.stable[j]
			}
		}
		r.histMu.Unlock()
		r.log.prune(sender, j, bound)
	}
}

// stage rolls dead worker w's sending side back to its last checkpoint: a
// new incarnation, its log truncated to the committed prefix, the rollback
// recorded for later restores. notify receives the rollback notice each
// peer j must apply; the driver delivers it, or skips a peer that is itself
// down, which its own restore repairs from the history instead.
func (r *localRecovery[V]) stage(w int, notify func(j int, nt rollNotice)) {
	inc := r.inc[w].Add(1)
	stable := make([]uint64, r.n)
	for j := range stable {
		stable[j] = r.stableSent[w*r.n+j].Load()
	}
	r.log.truncate(w, stable)
	r.histMu.Lock()
	r.hist[w] = append(r.hist[w], rollEntry{inc: inc, stable: stable})
	r.histMu.Unlock()
	for j := 0; j < r.n; j++ {
		if j != w {
			notify(j, rollNotice{sender: w, inc: inc, stable: stable[j]})
		}
	}
}

// restore rolls st back to its own last checkpoint and repairs the snapshot
// against every peer rollback that happened after it was taken (the
// snapshot predates those notices, so they are re-applied here from the
// history). Fails only when a paged checkpoint cannot be read back.
func (r *localRecovery[V]) restore(st *workerState[V]) error {
	w, rs := st.id, st.rs
	r.mu.Lock()
	snap := r.snaps[w]
	r.mu.Unlock()
	if snap.page != nil {
		// The local copy materializes the page; the stored snapshot keeps
		// only the page reference, so later restores re-read it.
		if err := unspillSnap(snap.page, &snap.base); err != nil {
			return err
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
	for s := 0; s < r.n; s++ {
		rs.bounds[s] = append(rs.bounds[s][:0], snap.bounds[s]...)
	}
	if rs.undo != nil {
		for s := 0; s < r.n; s++ {
			rs.undo[s] = append(rs.undo[s][:0], snap.undo[s]...)
		}
	}
	r.histMu.Lock()
	for s := 0; s < r.n; s++ {
		if s == w {
			continue
		}
		for _, e := range r.hist[s] {
			if e.inc > rs.expInc[s] {
				st.rollbackSender(s, e.inc, e.stable[w])
			}
		}
	}
	r.histMu.Unlock()
	rs.myInc = r.inc[w].Load()
	return nil
}

// replayStats is what one replay re-applied.
type replayStats struct {
	bySender []int64 // messages per sender
	msgs     int64
	batches  int
	fromDisk int64 // messages read back from spilled log entries
}

// replay re-applies the logged batches st lost since its restored cursors,
// straight into its state through the same h_in path a delivery would use.
// Fails only when a spilled log entry cannot be read back.
func (r *localRecovery[V]) replay(st *workerState[V]) (replayStats, error) {
	w, rs := st.id, st.rs
	rp := replayStats{bySender: make([]int64, r.n)}
	for s := 0; s < r.n; s++ {
		if s == w {
			continue
		}
		for _, e := range r.log.after(s, w, rs.cursor[s]) {
			if e.seq != rs.cursor[s]+1 {
				break // gap: the rest is still in transit, the drain path applies it
			}
			msgs, err := r.log.fetch(e)
			if err != nil {
				return rp, err
			}
			st.applyFrom(s, e.seq, msgs)
			if e.spilled {
				rp.fromDisk += int64(e.n)
			}
			rs.cursor[s] = e.seq
			rp.bySender[s] += int64(len(msgs))
			rp.msgs += int64(len(msgs))
			rp.batches++
		}
	}
	return rp, nil
}
