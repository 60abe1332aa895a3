package gap

import (
	"fmt"
	"sync"

	"argan/internal/ace"
	"argan/internal/graph"
	"argan/internal/mem"
)

// batchPool recycles message batches between senders and receivers: takeOut
// hands a filled batch to the transport and replaces the accumulator's
// backing slice from the pool; the receiver returns the batch after h_in.
// A nil pool never recycles: every replacement is a fresh slice, so a
// shipped batch stays immutable for as long as its receiver holds it (the
// sim's flight registry re-ships delivered batches on rollback).
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

// trim releases the free list under memory pressure; batches in flight are
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
// variables Ψ, the active set H, the per-peer out-buffers B⁻ and the Ctx
// wiring of Set/Send/Activate, dependent activation and the h_in fold. The
// sim, the live driver and the sequential runner differ only in the schedule
// around it. It contains no synchronization — each instance is owned by
// exactly one goroutine at a time.
type workerState[V any] struct {
	id   int
	frag *graph.Fragment
	prog ace.Program[V]
	deps ace.DepKind
	cat  ace.Category

	psi    []V
	active *ace.ActiveSet
	ctx    *ace.Ctx[V]

	out []outAcc[V]

	// pool supplies takeOut's replacement accumulators (nil: fresh slices).
	pool *batchPool[V]
	// combine coalesces two outgoing values for one vertex (the declared
	// ace.Algebra's Combine, falling back to an Aggregate fold).
	combine func(a, b V) V

	// rs is the live driver's exactly-once ingestion and localized-recovery
	// state (per-peer sequence cursors, reorder buffers, sender incarnations,
	// undo log). nil unless the live driver runs with link faults or
	// recoverable crashes — the default pipeline carries no sequencing
	// overhead.
	rs *recoverState[V]

	// The sim's bookkeeping. vcost holds the Category II streak cost of each
	// owned vertex and stale2 the streaks found stale (noteChange);
	// onEnqueue sees every enqueue with the change it made to the peer's
	// wire bytes. vcost and onEnqueue are nil under the live and sequential
	// runners, which pay one nil check per site.
	vcost     []float64
	stale2    float64
	onEnqueue func(peer, dBytes int)
}

// outAcc accumulates the outgoing batch B⁻ for one peer. It coalesces
// through a generation-stamped dense index keyed by the sender's local
// vertex id (every enqueued vertex is local to the sender), so a flush is a
// pointer swap plus a generation bump — no per-flush allocation.
type outAcc[V any] struct {
	msgs []ace.Message[V]

	slotGen []uint32 // slotGen[l] == gen ⇒ msgs[slotIdx[l]] holds vertex l
	slotIdx []uint32
	gen     uint32
}

// newWorkerState builds worker id's state over fragment f.
func newWorkerState[V any](id int, f *graph.Fragment, prog ace.Program[V], q ace.Query, pool *batchPool[V]) *workerState[V] {
	st := &workerState[V]{}
	st.init(id, f, prog, q, pool)
	return st
}

// init sets up Ψ, H and B⁻ in place: InitValue seeds Ψ and H, and an
// InitialSyncer's border values are enqueued to their replicas. A runner that
// embeds the state sets its bookkeeping fields first, so the InitialSync
// enqueues are counted too.
func (st *workerState[V]) init(id int, f *graph.Fragment, prog ace.Program[V], q ace.Query, pool *batchPool[V]) {
	st.id, st.frag, st.prog, st.pool = id, f, prog, pool
	st.deps, st.cat = prog.Deps(), prog.Category()
	prog.Setup(f, q)
	st.psi = make([]V, f.NumLocal())
	st.active = ace.ActiveSetOf(prog, st.psi, f.NumOwned())
	st.out = make([]outAcc[V], f.NumWorkers())
	for j := range st.out {
		st.out[j] = outAcc[V]{gen: 1}
	}
	if st.combine = ace.AlgebraOf(prog).Combine; st.combine == nil {
		st.combine = func(a, b V) V {
			v, _ := prog.Aggregate(a, b)
			return v
		}
	}
	st.ctx = ace.NewCtx(f, st.psi, st.ctxSet, st.ctxSend, st.ctxActivate)
	for l := uint32(0); int(l) < f.NumLocal(); l++ {
		v, act := prog.InitValue(f, l, q)
		st.psi[l] = v
		if act && f.IsOwned(l) {
			st.active.Push(l)
		}
	}
	if is, ok := any(prog).(ace.InitialSyncer); ok && is.InitialSync() {
		for l := uint32(0); int(l) < f.NumOwned(); l++ {
			g := f.Global(l)
			for _, r := range f.ReplicasOut(l) {
				st.enqueue(int(r), l, g, st.psi[l])
			}
			if f.Directed() && st.deps != ace.DepIn && st.deps != ace.DepSelf {
				st.enqueueNew(f.ReplicasIn(l), f.ReplicasOut(l), l, g, st.psi[l])
			}
		}
	}
}

// enqueue buffers ⟨g, val⟩ for peer. l is the sender-local id of g (every
// vertex a worker ships is local to it: owned border vertices and ghosts),
// which keys the dense coalescing index.
func (st *workerState[V]) enqueue(peer int, l uint32, g graph.VID, val V) {
	o := &st.out[peer]
	if o.slotGen == nil {
		o.slotGen = make([]uint32, st.frag.NumLocal())
		o.slotIdx = make([]uint32, st.frag.NumLocal())
	}
	if o.slotGen[l] == o.gen {
		k := o.slotIdx[l]
		old := o.msgs[k].Val
		o.msgs[k].Val = st.combine(old, val)
		if st.onEnqueue != nil {
			st.onEnqueue(peer, st.prog.Size(o.msgs[k].Val)-st.prog.Size(old))
		}
		return
	}
	o.slotGen[l] = o.gen
	o.slotIdx[l] = uint32(len(o.msgs))
	o.msgs = append(o.msgs, ace.Message[V]{V: g, Val: val})
	if st.onEnqueue != nil {
		st.onEnqueue(peer, 4+st.prog.Size(val))
	}
}

// enqueueNew enqueues ⟨g, val⟩ to every peer of reps that is not in sent:
// the in-replicas of a vertex whose out-replicas already have the value.
func (st *workerState[V]) enqueueNew(reps, sent []uint16, l uint32, g graph.VID, val V) {
	for _, r := range reps {
		dup := false
		for _, r2 := range sent {
			if r2 == r {
				dup = true
				break
			}
		}
		if !dup {
			st.enqueue(int(r), l, g, val)
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
// update function, affects: lv itself under a push program (when owned), its
// dependents otherwise.
func (st *workerState[V]) wake(lv uint32) {
	if st.deps != ace.DepSelf {
		st.activateDeps(lv)
		return
	}
	if st.frag.IsOwned(lv) {
		st.notePush(lv)
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

// notePush is noteChange for a change that arrived by aggregation (Send or
// h_in), which only a Category II program's streak counts.
func (st *workerState[V]) notePush(l uint32) {
	if st.vcost != nil && st.cat == ace.CategoryII {
		st.noteChange(l)
	}
}

func (st *workerState[V]) ctxSet(l uint32, v V) {
	old := st.psi[l]
	st.psi[l] = v
	// Push programs propagate explicitly via Send; Set only stores the
	// local state. An unchanged value neither ships nor wakes anyone.
	if st.prog.Equal(old, v) || st.deps == ace.DepSelf {
		return
	}
	st.noteChange(l)
	g := st.frag.Global(l)
	switch st.deps {
	case ace.DepOut:
		for _, r := range st.frag.ReplicasIn(l) {
			st.enqueue(int(r), l, g, v)
		}
	case ace.DepBoth:
		for _, r := range st.frag.ReplicasOut(l) {
			st.enqueue(int(r), l, g, v)
		}
		st.enqueueNew(st.frag.ReplicasIn(l), st.frag.ReplicasOut(l), l, g, v)
	default:
		for _, r := range st.frag.ReplicasOut(l) {
			st.enqueue(int(r), l, g, v)
		}
	}
	st.activateDeps(l)
}

func (st *workerState[V]) ctxSend(l uint32, d V) {
	if st.frag.IsOwned(l) {
		nv, ch := st.prog.Aggregate(st.psi[l], d)
		if ch {
			st.psi[l] = nv
			st.notePush(l)
			st.active.Push(l)
		}
		return
	}
	g := st.frag.Global(l)
	st.enqueue(st.frag.OwnerOf(g), l, g, d)
}

func (st *workerState[V]) ctxActivate(l uint32) {
	if st.frag.IsOwned(l) {
		st.active.Push(l)
	}
}

// ingest is the h_in fold: aggregate each message into Ψ and wake what
// every change affects. It spells wake out: this is the per-message hot path
// of every runner, and wake is too large to inline.
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
			st.notePush(lv)
			st.active.Push(lv)
		}
	}
}

// takeOut removes and returns the accumulated batch for the peer, swapping
// in a replacement backing slice from the pool and bumping the coalescing
// generation. Ownership of the returned batch transfers to the caller.
func (st *workerState[V]) takeOut(peer int) []ace.Message[V] {
	o := &st.out[peer]
	if len(o.msgs) == 0 {
		return nil
	}
	msgs := o.msgs
	o.msgs = st.pool.get()
	o.gen++
	return msgs
}

// restoreOut overwrites the peer's accumulator with the snapshot batch and
// rebuilds its coalescing index.
func (st *workerState[V]) restoreOut(peer int, msgs []ace.Message[V]) {
	o := &st.out[peer]
	o.msgs = append(o.msgs[:0], msgs...)
	o.gen++
	if len(o.msgs) > 0 {
		if o.slotGen == nil {
			o.slotGen = make([]uint32, st.frag.NumLocal())
			o.slotIdx = make([]uint32, st.frag.NumLocal())
		}
		for k, m := range o.msgs {
			if l, ok := st.frag.Local(m.V); ok {
				o.slotGen[l] = o.gen
				o.slotIdx[l] = uint32(k)
			}
		}
	}
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
// program-private aux state, the active set and the un-flushed out-buffers.
// Each runner keeps its own extras beside it (the sim's B⁺ and η, the live
// driver's sequence cursors).
type stateSnap[V any] struct {
	psi    []V
	aux    any
	active []uint32
	out    [][]ace.Message[V]
}

func (st *workerState[V]) capture() stateSnap[V] {
	s := stateSnap[V]{
		psi:    append([]V(nil), st.psi...),
		active: st.active.Snapshot(),
		out:    make([][]ace.Message[V], len(st.out)),
	}
	if cp, ok := any(st.prog).(ace.Checkpointer); ok {
		s.aux = cp.SnapshotAux()
	}
	for j := range st.out {
		s.out[j] = append([]ace.Message[V](nil), st.out[j].msgs...)
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
		st.restoreOut(j, s.out[j])
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
