package gap

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"

	"argan/internal/ace"
	"argan/internal/graph"
	"argan/internal/mem"
	"argan/internal/obs"
)

// batchPool recycles message batches between senders and receivers: takeOut
// hands a filled batch to the transport and replaces the accumulator's
// backing slice from the pool; the receiver returns the batch after h_in.
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

// liveState is the per-worker state shared by the live drivers (async and
// BSP): status variables, active set, per-peer out-accumulators and the ACE
// context wiring. It contains no synchronization — each instance is owned
// by exactly one goroutine at a time.
type liveState[V any] struct {
	id   int
	frag *graph.Fragment
	prog ace.Program[V]
	deps ace.DepKind

	psi    []V
	active *ace.ActiveSet
	ctx    *ace.Ctx[V]

	out []liveOutAcc[V]

	// rs is the exactly-once ingestion and localized-recovery state (per-peer
	// sequence cursors, reorder buffers, sender incarnations, undo log). nil
	// unless the live driver runs with link faults or recoverable crashes —
	// the default pipeline carries no sequencing overhead.
	rs *recoverState[V]

	pool *batchPool[V]
	// combine coalesces two outgoing values for one vertex (the declared
	// ace.Algebra's Combine, falling back to an Aggregate fold).
	combine func(a, b V) V
}

// liveOutAcc accumulates the outgoing batch for one peer. It coalesces
// through a generation-stamped dense index keyed by the sender's local
// vertex id (every enqueued vertex is local to the sender), so a flush is a
// pointer swap plus a generation bump — no per-flush allocation.
type liveOutAcc[V any] struct {
	msgs []ace.Message[V]

	slotGen []uint32 // slotGen[l] == gen ⇒ msgs[slotIdx[l]] holds vertex l
	slotIdx []uint32
	gen     uint32
}

// newLiveState builds worker id's state over fragment f. pool is the run's
// shared batch pool: senders draw replacement accumulators from it and
// receivers return drained batches to it.
func newLiveState[V any](id int, f *graph.Fragment, prog ace.Program[V], q ace.Query, pool *batchPool[V]) *liveState[V] {
	st := &liveState[V]{id: id, frag: f, prog: prog, deps: prog.Deps(), pool: pool}
	prog.Setup(f, q)
	st.psi = make([]V, f.NumLocal())
	st.active = ace.ActiveSetOf(prog, st.psi, f.NumOwned())
	st.out = make([]liveOutAcc[V], f.NumWorkers())
	for j := range st.out {
		st.out[j] = liveOutAcc[V]{gen: 1}
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
				for _, r := range f.ReplicasIn(l) {
					dup := false
					for _, r2 := range f.ReplicasOut(l) {
						if r2 == r {
							dup = true
							break
						}
					}
					if !dup {
						st.enqueue(int(r), l, g, st.psi[l])
					}
				}
			}
		}
	}
	return st
}

// enqueue buffers ⟨g, val⟩ for peer. l is the sender-local id of g (every
// vertex a worker ships is local to it: owned border vertices and ghosts),
// which keys the dense coalescing index.
func (st *liveState[V]) enqueue(peer int, l uint32, g graph.VID, val V) {
	o := &st.out[peer]
	if o.slotGen == nil {
		o.slotGen = make([]uint32, st.frag.NumLocal())
		o.slotIdx = make([]uint32, st.frag.NumLocal())
	}
	if o.slotGen[l] == o.gen {
		k := o.slotIdx[l]
		o.msgs[k].Val = st.combine(o.msgs[k].Val, val)
		return
	}
	o.slotGen[l] = o.gen
	o.slotIdx[l] = uint32(len(o.msgs))
	o.msgs = append(o.msgs, ace.Message[V]{V: g, Val: val})
}

func (st *liveState[V]) activateDeps(lv uint32) {
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

func (st *liveState[V]) ctxSet(l uint32, v V) {
	old := st.psi[l]
	st.psi[l] = v
	if st.prog.Equal(old, v) || st.deps == ace.DepSelf {
		return
	}
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
		for _, r := range st.frag.ReplicasIn(l) {
			dup := false
			for _, r2 := range st.frag.ReplicasOut(l) {
				if r2 == r {
					dup = true
					break
				}
			}
			if !dup {
				st.enqueue(int(r), l, g, v)
			}
		}
	default:
		for _, r := range st.frag.ReplicasOut(l) {
			st.enqueue(int(r), l, g, v)
		}
	}
	st.activateDeps(l)
}

func (st *liveState[V]) ctxSend(l uint32, d V) {
	if st.frag.IsOwned(l) {
		nv, ch := st.prog.Aggregate(st.psi[l], d)
		if ch {
			st.psi[l] = nv
			st.active.Push(l)
		}
		return
	}
	g := st.frag.Global(l)
	st.enqueue(st.frag.OwnerOf(g), l, g, d)
}

func (st *liveState[V]) ctxActivate(l uint32) {
	if st.frag.IsOwned(l) {
		st.active.Push(l)
	}
}

// ingest applies one batch to Ψ (h_in) and re-activates dependents.
func (st *liveState[V]) ingest(msgs []ace.Message[V]) {
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
		if st.deps == ace.DepSelf {
			if st.frag.IsOwned(lv) {
				st.active.Push(lv)
			}
		} else {
			st.activateDeps(lv)
		}
	}
}

// takeOut removes and returns the accumulated batch for the peer, swapping
// in a recycled backing slice and bumping the coalescing generation.
// Ownership of the returned batch transfers to the caller (the receiver
// recycles it via the pool after h_in).
func (st *liveState[V]) takeOut(peer int) []ace.Message[V] {
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
func (st *liveState[V]) restoreOut(peer int, msgs []ace.Message[V]) {
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
func (st *liveState[V]) outputs(into []V) {
	for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
		into[st.frag.Global(l)] = st.prog.Output(st.ctx, l)
	}
}

// finalPsi extracts the raw owned status variables (pre-Output view), which
// warm restarts re-converge from.
func (st *liveState[V]) finalPsi(into []V) {
	for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
		into[st.frag.Global(l)] = st.psi[l]
	}
}

// RunLiveBSP executes the program under a real-concurrency bulk-synchronous
// driver: per superstep every worker runs its local fixpoint in its own
// goroutine, a sync.WaitGroup barrier closes the superstep, and the batches
// are exchanged before the next one starts — Grape's execution model on
// goroutines. maxSupersteps <= 0 means effectively unbounded. With a non-nil
// tracer each worker's superstep becomes a PhaseSuperstep span (wall-µs
// timestamps) with per-superstep update/message counters and active-set
// gauges, and worker goroutines carry runtime/pprof worker/phase labels so
// CPU profiles attribute samples to supersteps.
func RunLiveBSP[V any](frags []*graph.Fragment, factory ace.Factory[V], q ace.Query, maxSupersteps int, tr obs.Tracer) (*Result[V], *LiveMetrics, error) {
	if len(frags) == 0 {
		return nil, nil, errNoFragments
	}
	if maxSupersteps <= 0 {
		maxSupersteps = 1 << 20
	}
	n := len(frags)
	pool := &batchPool[V]{}
	states := make([]*liveState[V], n)
	for i := range states {
		states[i] = newLiveState(i, frags[i], factory(), q, pool)
	}
	inbox := make([][][]ace.Message[V], n) // inbox[worker] = batches
	m := &LiveMetrics{}
	start := nowFn()
	ts := func() float64 { return float64(sinceFn(start)) / 1e3 }

	for step := 0; step < maxSupersteps; step++ {
		m.Rounds++
		var wg waitGroup
		updates := make([]int64, n)
		for i := range states {
			st := states[i]
			batches := inbox[i]
			inbox[i] = nil
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if tr != nil {
					pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
						pprof.Labels("worker", strconv.Itoa(i), "phase", "superstep")))
					defer pprof.SetGoroutineLabels(context.Background())
					t0 := ts()
					tr.SpanBegin(i, obs.PhaseSuperstep, t0)
					tr.Sample(i, obs.GaugeMailbox, t0, float64(len(batches)))
				}
				for _, b := range batches {
					st.ingest(b)
					pool.put(b)
				}
				if tr != nil {
					tr.Sample(i, obs.GaugeActive, ts(), float64(st.active.Len()))
				}
				for !st.active.Empty() {
					v := st.active.Pop()
					st.prog.Update(st.ctx, v)
					updates[i]++
				}
				if tr != nil {
					t1 := ts()
					tr.Count(i, obs.CounterUpdates, t1, updates[i])
					tr.SpanEnd(i, obs.PhaseSuperstep, t1)
				}
			}(i)
		}
		wg.Wait()
		for i := range updates {
			m.Updates += updates[i]
		}
		// Exchange at the barrier.
		any := false
		for i, st := range states {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if msgs := st.takeOut(j); msgs != nil {
					inbox[j] = append(inbox[j], msgs)
					m.MsgsSent += int64(len(msgs))
					m.Batches++
					if tr != nil {
						tr.Count(i, obs.CounterMsgsSent, ts(), int64(len(msgs)))
					}
					any = true
				}
			}
		}
		if !any {
			break
		}
	}
	m.WallTime = sinceFn(start)

	res := &Result[V]{
		Values: make([]V, frags[0].GlobalVertices()),
		Psi:    make([]V, frags[0].GlobalVertices()),
	}
	for _, st := range states {
		st.outputs(res.Values)
		st.finalPsi(res.Psi)
	}
	res.Metrics.Converged = true
	res.Metrics.Mode = ModeBSP
	res.Metrics.Supersteps = m.Rounds
	return res, m, nil
}

// Indirections shared with live.go (kept tiny so tests can stub time).
var (
	nowFn   = timeNow
	sinceFn = timeSince
)
