package gap

import (
	"fmt"
	"slices"
	"sync"

	"argan/internal/ace"
	"argan/internal/graph"
	"argan/internal/mem"
)

// batchPool recycles message batches between senders and receivers: takeOut
// hands a filled batch to the transport and replaces the accumulator's
// backing slice from the pool; the receiver returns the batch after h_in.
// A nil pool never recycles: every replacement is a fresh slice.
// A bounded mutex-guarded free list is used instead of sync.Pool so a put
// never allocates (boxing a slice into an interface would) and reuse is
// deterministic under test.
type batchPool[V any] struct {
	mu   sync.Mutex
	free [][]ace.Message[V]

	// Free-list accounting under a memory governor (nil acct = ungoverned):
	// held tracks the bytes parked in free so the governor sees pooled
	// capacity as pressure it can shed via trim.
	acct *mem.Account
	wire int64
	held int64
}

// batchPoolCap bounds the free list; overflow batches are left to the GC.
const batchPoolCap = 256

func (bp *batchPool[V]) get() []ace.Message[V] {
	if bp == nil {
		return make([]ace.Message[V], 0, 64)
	}
	bp.mu.Lock()
	if n := len(bp.free); n > 0 {
		s := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		if bp.acct != nil {
			b := int64(cap(s)) * bp.wire
			bp.held -= b
			bp.acct.Add(-b)
		}
		bp.mu.Unlock()
		return s
	}
	bp.mu.Unlock()
	return make([]ace.Message[V], 0, 64)
}

func (bp *batchPool[V]) put(s []ace.Message[V]) {
	if cap(s) == 0 {
		return
	}
	bp.mu.Lock()
	if len(bp.free) < batchPoolCap {
		bp.free = append(bp.free, s[:0])
		if bp.acct != nil {
			b := int64(cap(s)) * bp.wire
			bp.held += b
			bp.acct.Add(b)
		}
	}
	bp.mu.Unlock()
}

// trim releases the free list under memory pressure; batches in transit are
// untouched and the pool refills organically once pressure clears.
func (bp *batchPool[V]) trim() {
	bp.mu.Lock()
	for i := range bp.free {
		bp.free[i] = nil
	}
	bp.free = bp.free[:0]
	if bp.acct != nil && bp.held != 0 {
		bp.acct.Add(-bp.held)
		bp.held = 0
	}
	bp.mu.Unlock()
}

// workerState is one ACE worker (§II-A) as every runner drives it: status
// variables Ψ, the active set H, the per-peer out-buffers B⁻, the Ctx hooks
// for what leaves the worker (a ghost send, a replica publish), dependent
// activation and the h_in fold. The sim, the live driver and the sequential
// runner differ only in the schedule around it. It contains no
// synchronization — each instance is owned by exactly one goroutine at a
// time.
type workerState[V any] struct {
	id   int
	frag *graph.Fragment
	prog ace.Program[V]
	deps ace.DepKind
	cat  ace.Category

	psi    []V
	active *ace.ActiveSet
	ctx    *ace.Ctx[V]
	// updates counts update-function invocations; the round loop keeps it.
	updates int64

	// out[j] is B⁻_j; the pending values are Ψ itself (see takeOut).
	out []outIDs
	// nOwned is NumOwned; owner[l-nOwned] is the worker owning ghost l, and
	// pend[l-nOwned] its mark: a ghost is only ever pending for its owner.
	nOwned uint32
	owner  []uint16
	pend   []bool
	// ghostInit holds each ghost's InitValue, which a shipped ghost restarts
	// from. It is nil under a replay-tolerant algebra: a ghost then keeps its
	// value as a cache of what its owner has been sent, and a send that does
	// not improve it is dropped.
	ghostInit []V

	// pool supplies takeOut's batches (nil: fresh slices).
	pool *batchPool[V]

	// rs is the exactly-once ingestion and localized-recovery state
	// (per-peer sequence cursors, reorder buffers, sender incarnations, undo
	// log). nil unless the run has link faults or recoverable crashes — the
	// default pipeline carries no sequencing overhead.
	rs *recoverState[V]

	// The sim's bookkeeping, set before init. vcost holds the Category II
	// streak cost of each owned vertex and stale2 the streaks found stale
	// (noteChange); onEnqueue sees every mark, and every change to a marked
	// value, with the change it made to the peer's wire bytes. vcost and
	// onEnqueue are nil under the live and sequential runners, which pay one
	// nil check per site.
	vcost     []float64
	stale2    float64
	onEnqueue func(peer, dBytes int)
}

// outIDs is B⁻ for one peer: the local ids whose Ψ is pending for it, in
// first-mark order, and a dense mark over owned ids that lists each once
// per flush window (a ghost's mark is pend).
type outIDs struct {
	ids  []uint32
	mark []bool
}

// newWorkerState builds worker id's state over fragment f.
func newWorkerState[V any](id int, f *graph.Fragment, prog ace.Program[V], q ace.Query, pool *batchPool[V]) *workerState[V] {
	st := &workerState[V]{}
	st.init(id, f, prog, q, pool)
	return st
}

// init sets up Ψ, H and B⁻ in place: InitValue seeds Ψ and H, and an
// InitialSyncer's border values are marked for their replicas. A runner that
// embeds the state sets its bookkeeping fields first, so the InitialSync
// marks are counted too.
func (st *workerState[V]) init(id int, f *graph.Fragment, prog ace.Program[V], q ace.Query, pool *batchPool[V]) {
	st.id, st.frag, st.prog, st.pool = id, f, prog, pool
	st.deps, st.cat = prog.Deps(), prog.Category()
	prog.Setup(f, q)
	st.psi = make([]V, f.NumLocal())
	st.active = ace.ActiveSetOf(prog, st.psi, f.NumOwned())
	st.out = make([]outIDs, f.NumWorkers())
	for j := range st.out {
		if j != id {
			st.out[j].mark = make([]bool, f.NumOwned())
		}
	}
	st.nOwned = uint32(f.NumOwned())
	st.owner = make([]uint16, f.NumGhosts())
	st.pend = make([]bool, f.NumGhosts())
	cache := ace.AlgebraOf(prog).ReplayTolerant()
	var onPush func(uint32)
	if st.vcost != nil && st.cat == ace.CategoryII {
		onPush = st.noteChange
	}
	st.ctx = ace.NewCtx(f, st.psi, prog, st.active, st.publish, st.sendGhost, onPush)
	for l := uint32(0); int(l) < f.NumLocal(); l++ {
		v, act := prog.InitValue(f, l, q)
		st.psi[l] = v
		if f.IsOwned(l) {
			if act {
				st.active.Push(l)
			}
			continue
		}
		st.owner[int(l)-f.NumOwned()] = uint16(f.OwnerOf(f.Global(l)))
		if !cache {
			st.ghostInit = append(st.ghostInit, v)
		}
	}
	if is, ok := any(prog).(ace.InitialSyncer); ok && is.InitialSync() {
		for l := uint32(0); int(l) < f.NumOwned(); l++ {
			for _, r := range f.ReplicasOut(l) {
				st.mark(int(r), l, st.psi[l])
			}
			if f.Directed() && st.deps != ace.DepIn && st.deps != ace.DepSelf {
				st.markNew(f.ReplicasIn(l), f.ReplicasOut(l), l, st.psi[l])
			}
		}
	}
}

// pendMark is the mark that lists l in B⁻_peer once per flush window.
func (st *workerState[V]) pendMark(peer int, l uint32) *bool {
	if l >= st.nOwned {
		return &st.pend[l-st.nOwned]
	}
	return &st.out[peer].mark[l]
}

// mark lists l in B⁻_peer once per flush window; old is Ψ[l] before the
// change that prompted the mark, so the byte hook sees the change in size of
// a value already listed.
func (st *workerState[V]) mark(peer int, l uint32, old V) {
	m := st.pendMark(peer, l)
	if *m {
		if st.onEnqueue != nil {
			st.onEnqueue(peer, st.prog.Size(st.psi[l])-st.prog.Size(old))
		}
		return
	}
	*m = true
	st.out[peer].ids = append(st.out[peer].ids, l)
	if st.onEnqueue != nil {
		st.onEnqueue(peer, 4+st.prog.Size(st.psi[l]))
	}
}

// markNew marks l for every peer of reps that is not in sent: the
// in-replicas of a vertex whose out-replicas already have the value.
func (st *workerState[V]) markNew(reps, sent []uint16, l uint32, old V) {
	for _, r := range reps {
		dup := false
		for _, r2 := range sent {
			if r2 == r {
				dup = true
				break
			}
		}
		if !dup {
			st.mark(int(r), l, old)
		}
	}
}

func (st *workerState[V]) activateDeps(lv uint32) {
	push := func(us []uint32) {
		for _, u := range us {
			if st.frag.IsOwned(u) {
				st.active.Push(u)
			}
		}
	}
	switch st.deps {
	case ace.DepOut:
		push(st.frag.InNeighbors(lv))
	case ace.DepBoth:
		push(st.frag.InNeighbors(lv))
		push(st.frag.OutNeighbors(lv))
	default:
		push(st.frag.OutNeighbors(lv))
	}
}

// wake re-activates what a change to lv's value, folded in from outside the
// update function by the exactly-once layer (a sequenced h_in, a rollback's
// inversion), affects: lv itself under a push program (when owned, closing
// its Category II streak as ingest does), its dependents otherwise.
func (st *workerState[V]) wake(lv uint32) {
	if st.deps != ace.DepSelf {
		st.activateDeps(lv)
		return
	}
	if st.frag.IsOwned(lv) {
		if st.vcost != nil && st.cat == ace.CategoryII {
			st.noteChange(lv)
		}
		st.active.Push(lv)
	}
}

// noteChange records that the observable value of an owned vertex changed:
// the cost streak accumulated under the previous value was stale work
// (Category II accounting; the streak is also the AAP delay sketch's
// staleness signal). Sim only: a no-op while vcost is nil.
func (st *workerState[V]) noteChange(l uint32) {
	if st.vcost != nil && st.frag.IsOwned(l) {
		st.stale2 += st.vcost[l]
		st.vcost[l] = 0
	}
}

// publish is Set for a program that is not DepSelf: a changed value is marked
// for l's replicas and wakes its dependents; an unchanged one does neither.
func (st *workerState[V]) publish(l uint32, v V) {
	old := st.psi[l]
	st.psi[l] = v
	if st.prog.Equal(old, v) {
		return
	}
	st.noteChange(l)
	switch st.deps {
	case ace.DepOut:
		for _, r := range st.frag.ReplicasIn(l) {
			st.mark(int(r), l, old)
		}
	case ace.DepBoth:
		for _, r := range st.frag.ReplicasOut(l) {
			st.mark(int(r), l, old)
		}
		st.markNew(st.frag.ReplicasIn(l), st.frag.ReplicasOut(l), l, old)
	default:
		for _, r := range st.frag.ReplicasOut(l) {
			st.mark(int(r), l, old)
		}
	}
	st.activateDeps(l)
}

// sendGhost is Send to ghost l: d folds into Ψ[l], the out-buffer toward l's
// owner, which l is marked for — unless the ghost is a cache (ghostInit nil)
// that d did not improve: its owner holds d or better.
func (st *workerState[V]) sendGhost(l uint32, d V) {
	old := st.psi[l]
	nv, ch := st.prog.Aggregate(old, d)
	if !ch && st.ghostInit == nil {
		return
	}
	st.psi[l] = nv
	// A pending ghost ships its new Ψ anyway; only the sim's byte hook cares.
	if g := l - st.nOwned; !st.pend[g] || st.onEnqueue != nil {
		st.mark(int(st.owner[g]), l, old)
	}
}

// ingest is the h_in fold: aggregate each message into Ψ and wake what
// every change affects, closing a pushed vertex's Category II streak as the
// Ctx's onPush does. It spells wake out: this is the per-message hot path of
// every runner.
func (st *workerState[V]) ingest(msgs []ace.Message[V]) {
	for _, m := range msgs {
		lv, ok := st.frag.Local(m.V)
		if !ok {
			continue
		}
		nv, ch := st.prog.Aggregate(st.psi[lv], m.Val)
		if !ch {
			continue
		}
		st.psi[lv] = nv
		if st.deps != ace.DepSelf {
			st.activateDeps(lv)
		} else if st.frag.IsOwned(lv) {
			if st.vcost != nil && st.cat == ace.CategoryII {
				st.noteChange(lv)
			}
			st.active.Push(lv)
		}
	}
}

// takeOut builds the batch ⟨Global(l), Ψ[l]⟩ of every id pending for the
// peer and clears B⁻_peer; a shipped ghost that is not a cache restarts from
// its InitValue. The batch comes from the pool and ownership of it
// transfers to the caller.
func (st *workerState[V]) takeOut(peer int) []ace.Message[V] {
	o := &st.out[peer]
	if len(o.ids) == 0 {
		return nil
	}
	msgs := slices.Grow(st.pool.get(), len(o.ids))
	n := st.nOwned
	for _, l := range o.ids {
		*st.pendMark(peer, l) = false
		msgs = append(msgs, ace.Message[V]{V: st.frag.Global(l), Val: st.psi[l]})
		if l >= n && st.ghostInit != nil {
			st.psi[l] = st.ghostInit[l-n]
		}
	}
	o.ids = o.ids[:0]
	return msgs
}

// outputs extracts the owned results.
func (st *workerState[V]) outputs(into []V) {
	for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
		into[st.frag.Global(l)] = st.prog.Output(st.ctx, l)
	}
}

// finalPsi extracts the raw owned status variables (pre-Output view), which
// warm restarts re-converge from.
func (st *workerState[V]) finalPsi(into []V) {
	for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
		into[st.frag.Global(l)] = st.psi[l]
	}
}

// stateSnap is the checkpoint of a workerState: status variables,
// program-private aux state, the active set and the ids pending in each
// out-buffer (their values are in psi). A localized-recovery checkpoint
// (localSnap) keeps the sequence state of the exactly-once layer beside it.
type stateSnap[V any] struct {
	psi    []V
	aux    any
	active []uint32
	out    [][]uint32
}

func (st *workerState[V]) capture() stateSnap[V] {
	s := stateSnap[V]{
		psi:    append([]V(nil), st.psi...),
		active: st.active.Snapshot(),
		out:    make([][]uint32, len(st.out)),
	}
	if cp, ok := any(st.prog).(ace.Checkpointer); ok {
		s.aux = cp.SnapshotAux()
	}
	for j := range st.out {
		s.out[j] = append([]uint32(nil), st.out[j].ids...)
	}
	return s
}

// restore rolls st back to the snapshot in place: the ACE context closes
// over the psi slice, so values are copied into it rather than the slice
// being replaced. Safe to call repeatedly with the same snapshot.
func (st *workerState[V]) restore(s *stateSnap[V]) {
	copy(st.psi, s.psi)
	if cp, ok := any(st.prog).(ace.Checkpointer); ok && s.aux != nil {
		cp.RestoreAux(s.aux)
	}
	st.active.Reset(s.active)
	for j := range st.out {
		o := &st.out[j]
		for _, l := range o.ids {
			*st.pendMark(j, l) = false
		}
		o.ids = append(o.ids[:0], s.out[j]...)
		for _, l := range o.ids {
			*st.pendMark(j, l) = true
		}
	}
}

// RunSequential executes the program sequentially over the whole graph: one
// fragment, one workerState, no messages — the paper's §IV batch algorithm
// A, of which every parallel run ρ_A must reach the fixpoint. It returns the
// per-vertex outputs and the number of update-function invocations, and
// fails after 2000·(|V|+1) updates rather than loop on a program that does
// not converge.
func RunSequential[V any](g *graph.Graph, factory ace.Factory[V], q ace.Query) ([]V, int64, error) {
	frags, err := graph.BuildFragments(g, make([]uint16, g.NumVertices()), 1)
	if err != nil {
		return nil, 0, err
	}
	st := newWorkerState(0, frags[0], factory(), q, nil)
	var updates int64
	limit := int64(2000) * int64(g.NumVertices()+1)
	for !st.active.Empty() {
		st.prog.Update(st.ctx, st.active.Pop())
		if updates++; updates > limit {
			return nil, updates, fmt.Errorf("gap: sequential run: no convergence after %d updates", updates)
		}
	}
	out := make([]V, g.NumVertices())
	st.outputs(out)
	return out, updates, nil
}
