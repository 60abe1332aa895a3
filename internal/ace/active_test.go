package ace

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"argan/internal/graph"
)

// oracleHeap is the container/heap adapter under the lazy-duplicate active
// set the addressable heap replaced.
type oracleHeap []Item

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)        { *h = append(*h, x.(Item)) }
func (h *oracleHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oracleSet is the lazy-duplicate active set: a re-push adds a second entry
// at the new key, and a pop skims entries whose vertex is no longer queued.
type oracleSet struct {
	inQ   []bool
	size  int
	prio  func(uint32) float64
	items oracleHeap
}

func (a *oracleSet) push(v uint32) {
	heap.Push(&a.items, Item{a.prio(v), v})
	if !a.inQ[v] {
		a.inQ[v] = true
		a.size++
	}
}

func (a *oracleSet) pop() uint32 {
	for !a.inQ[a.items[0].ID] {
		heap.Pop(&a.items)
	}
	v := heap.Pop(&a.items).(Item).ID
	a.inQ[v] = false
	a.size--
	return v
}

func (a *oracleSet) queued() []uint32 {
	var out []uint32
	for v, q := range a.inQ {
		if q {
			out = append(out, uint32(v))
		}
	}
	return out
}

// TestActiveSetMatchesOracle: on every schedule where a vertex's key never
// rises — what a min-aggregate (SSSP, BFS) produces — the addressable heap
// pops what the lazy-duplicate set popped: the lazy set's least entry for a
// vertex is then always its current key, the one entry the addressable heap
// keeps. Re-pushes at an equal or better key, equal keys across vertices,
// and Snapshot/Reset are covered; Snapshot must hold the oracle's queued
// set and leave the set as it was.
func TestActiveSetMatchesOracle(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		prio := make([]float64, n)
		for v := range prio {
			prio[v] = float64(r.Intn(200))
		}
		pf := func(l uint32) float64 { return prio[l] }
		a := NewActiveSet(n, pf)
		o := &oracleSet{inQ: make([]bool, n), prio: pf}
		for op := 0; op < 3000; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				v := uint32(r.Intn(n))
				prio[v] -= float64(r.Intn(4)) // an equal or better key
				a.Push(v)
				o.push(v)
			case k < 9:
				if o.size == 0 {
					continue
				}
				if got, want := a.Pop(), o.pop(); got != want {
					t.Fatalf("seed %d op %d: pop %d, oracle %d", seed, op, got, want)
				}
			default:
				snap := a.Snapshot()
				if got := slices.Sorted(slices.Values(snap)); !slices.Equal(got, o.queued()) {
					t.Fatalf("seed %d op %d: snapshot %v, oracle %v", seed, op, got, o.queued())
				}
				// Half the time carry on from the snapshot untouched: Snapshot
				// must leave the set as it was.
				if r.Intn(2) == 0 {
					a.Reset(snap)
					o.inQ, o.size, o.items = make([]bool, n), 0, nil
					for _, v := range snap {
						o.push(v)
					}
				}
			}
			if a.Len() != o.size {
				t.Fatalf("seed %d op %d: len %d, oracle %d", seed, op, a.Len(), o.size)
			}
		}
	}
}

// TestActiveSetRekeyRaise: a re-push that raises a vertex's key moves its
// one entry, so the latest key wins. The lazy set popped such a vertex
// early, through its older, smaller entry — whether that entry was queued
// in the same activation or left stale by an earlier one.
func TestActiveSetRekeyRaise(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(push func(v uint32, p float64), pop func() uint32)
		want []uint32
	}{
		{"queued", func(push func(uint32, float64), _ func() uint32) {
			push(0, 1)
			push(1, 2)
			push(0, 3) // raised while queued
		}, []uint32{1, 0}},
		{"stale", func(push func(uint32, float64), pop func() uint32) {
			push(0, 5)
			push(0, 3)
			pop() // 0 at 3; the lazy set keeps a stale entry at 5
			push(0, 7)
			push(1, 6)
		}, []uint32{1, 0}},
	} {
		prio := make([]float64, 2)
		pf := func(l uint32) float64 { return prio[l] }
		a := NewActiveSet(2, pf)
		o := &oracleSet{inQ: make([]bool, 2), prio: pf}
		c.run(func(v uint32, p float64) { prio[v] = p; a.Push(v) }, a.Pop)
		for _, w := range c.want {
			if got := a.Pop(); got != w {
				t.Fatalf("%s: pop = %d, want %d", c.name, got, w)
			}
		}
		c.run(func(v uint32, p float64) { prio[v] = p; o.push(v) }, o.pop)
		if got := o.pop(); got != c.want[1] {
			t.Fatalf("%s: the lazy oracle popped %d first, want its early %d", c.name, got, c.want[1])
		}
	}
	// Random keys, raised or lowered: every pop is the least (key at last
	// push, id) over the queued vertices, found by a linear scan.
	const n = 16
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		prio := make([]float64, n)
		a := NewActiveSet(n, func(l uint32) float64 { return prio[l] })
		queued := map[uint32]float64{}
		for op := 0; op < 2000; op++ {
			if len(queued) == 0 || r.Intn(2) == 0 {
				v := uint32(r.Intn(n))
				prio[v] = float64(r.Intn(8))
				a.Push(v)
				queued[v] = prio[v]
				continue
			}
			want := Item{P: math.Inf(1)}
			for v, p := range queued {
				if it := (Item{p, v}); it.less(want) {
					want = it
				}
			}
			if got := a.Pop(); got != want.ID {
				t.Fatalf("seed %d op %d: pop %d, want %d", seed, op, got, want.ID)
			}
			delete(queued, want.ID)
		}
	}
}

// TestActiveSetKeyAtPush: a vertex's key is read when it is pushed. One
// whose key drops while queued, without a re-push, keeps its queued slot,
// so the heap stays ordered (the sequential runner used to re-read keys
// live inside its comparisons, leaving such a slot out of heap order).
func TestActiveSetKeyAtPush(t *testing.T) {
	prio := []float64{4, 3, 2, 1}
	a := NewActiveSet(4, func(l uint32) float64 { return prio[l] })
	for v := uint32(0); v < 4; v++ {
		a.Push(v)
	}
	prio[0] = 0 // no re-push: 0 stays keyed at 4
	want := []uint32{3, 2, 1, 0}
	for _, w := range want {
		if got := a.Pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}

// TestActiveSetPopAllocFree: once its arrays have grown, a steady
// push/pop cycle allocates nothing.
func TestActiveSetPopAllocFree(t *testing.T) {
	prio := make([]float64, 64)
	a := NewActiveSet(64, func(l uint32) float64 { return prio[l] })
	cycle := func() {
		a.Reset(nil) // drop the stale duplicates the last cycle left
		for v := uint32(0); v < 64; v++ {
			prio[v] = float64(63 - v)
			a.Push(v)
			a.Push(v)
		}
		for !a.Empty() {
			a.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("push/pop cycle allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkHeap replays the heap operations of one Dijkstra run on LJ@0.5
// from its top out-degree vertex — pushes, re-keys and pops, in the order
// SeqSSSP issues them — against one reused heap: ns/op is one whole run's
// queue work, allocs/op must read 0.
func BenchmarkHeap(b *testing.B) {
	g := graph.MustDataset("LJ", 0.5)
	var src graph.VID
	for v := range graph.VID(g.NumVertices()) {
		if g.OutDegree(v) > g.OutDegree(src) {
			src = v
		}
	}
	const pop = math.MaxUint32 // a trace item with this ID pops; any other pushes
	var trace []Item
	rekeys := 0
	dist := make([]float64, g.NumVertices())
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	h := NewHeap(len(dist), len(dist))
	h.Push(src, 0)
	trace = append(trace, Item{0, src})
	for h.Len() > 0 {
		it := h.Pop()
		trace = append(trace, Item{ID: pop})
		ws := g.OutWeights(it.ID)
		for i, u := range g.OutNeighbors(it.ID) {
			if nd := it.P + ws[i]; nd < dist[u] {
				if !math.IsInf(dist[u], 1) {
					rekeys++ // finite and not yet popped: queued
				}
				dist[u] = nd
				h.Push(u, nd)
				trace = append(trace, Item{nd, u})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, it := range trace {
			if it.ID == pop {
				h.Pop()
			} else {
				h.Push(it.ID, it.P)
			}
		}
	}
	b.ReportMetric(float64(len(trace)), "ops/op")
	b.ReportMetric(float64(rekeys), "rekeys/op")
}
