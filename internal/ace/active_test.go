package ace

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// oracleHeap is the container/heap adapter the typed Heap replaced, kept as
// the reference its pops and array must equal.
type oracleHeap []Item

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].P != h[j].P {
		return h[i].P < h[j].P
	}
	return h[i].ID < h[j].ID
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(Item)) }
func (h *oracleHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oracleSet is the lazy-duplicate active set over container/heap, as the
// engine ran it before the typed heap.
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

func (a *oracleSet) snapshot() []uint32 {
	out := []uint32{}
	seen := map[uint32]bool{}
	for _, it := range a.items {
		if a.inQ[it.ID] && !seen[it.ID] {
			seen[it.ID] = true
			out = append(out, it.ID)
		}
	}
	return out
}

// TestHeapMatchesContainerHeap: over random push/pop schedules with
// duplicate ids and equal priorities, the typed heap's array after every
// operation and every popped item equal container/heap's.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		var h Heap
		var o oracleHeap
		for op := 0; op < 2000; op++ {
			if len(h) == 0 || r.Intn(3) > 0 {
				it := Item{float64(r.Intn(8)), uint32(r.Intn(16))}
				h.Push(it)
				heap.Push(&o, it)
			} else if got, want := h.Pop(), heap.Pop(&o).(Item); got != want {
				t.Fatalf("seed %d op %d: pop %v, container/heap %v", seed, op, got, want)
			}
			if !slices.Equal(h, Heap(o)) {
				t.Fatalf("seed %d op %d: array %v, container/heap %v", seed, op, h, o)
			}
		}
	}
}

// TestActiveSetMatchesOracle: the active set over the typed heap gives the
// pop sequence and Snapshot order of the container/heap one, across lazy
// re-pushes at a better priority, equal priorities and Snapshot/Reset.
func TestActiveSetMatchesOracle(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		prio := make([]float64, n)
		pf := func(l uint32) float64 { return prio[l] }
		a := NewActiveSet(n, pf)
		o := &oracleSet{inQ: make([]bool, n), prio: pf}
		for op := 0; op < 3000; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				v := uint32(r.Intn(n))
				if o.inQ[v] && r.Intn(2) == 0 {
					prio[v] -= float64(1 + r.Intn(3)) // re-push at a better key
				} else {
					prio[v] = float64(r.Intn(6))
				}
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
				snap, want := a.Snapshot(), o.snapshot()
				if !slices.Equal(snap, want) {
					t.Fatalf("seed %d op %d: snapshot %v, oracle %v", seed, op, snap, want)
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
