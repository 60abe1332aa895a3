package ace

// Item is one priority-queue entry: an id and the priority it was queued at.
type Item struct {
	P  float64
	ID uint32
}

// Heap is the one priority queue under every Dijkstra-ordered loop (the
// engines' and the sequential runner's active set, SeqSSSP): a binary
// min-heap ordered by (P, ID). Push and Pop sift with exactly the
// comparisons of container/heap's up/down, so the array — and every pop —
// equals that of a container/heap over the same Less, without boxing items
// into interfaces: a pop never allocates, a push only when the array grows.
type Heap []Item

func (it Item) less(o Item) bool {
	if it.P != o.P {
		return it.P < o.P
	}
	return it.ID < o.ID
}

// Push adds it to the heap.
func (h *Heap) Push(it Item) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !it.less(s[i]) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = it
	*h = s
}

// Pop removes and returns the smallest item; the heap must be non-empty.
func (h *Heap) Pop() Item {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].less(s[j]) {
			j = j2
		}
		if !s[j].less(x) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
}

// ActiveSet is the local active set H_{A,i}: the owned vertices whose update
// functions must run. It is a FIFO queue by default; when a priority
// function is supplied (parallelized Dijkstra), it becomes a lazy-deletion
// min-heap popping the smallest priority first. The sim and live engines and
// the sequential runner (gap.RunSequential) all schedule through it.
type ActiveSet struct {
	inQ  []bool
	size int

	// FIFO representation.
	fifo []uint32
	head int

	// Heap representation (prio != nil).
	prio  func(local uint32) float64
	items Heap
}

// NewActiveSet returns an empty set over numOwned vertices, FIFO when prio is
// nil.
func NewActiveSet(numOwned int, prio func(uint32) float64) *ActiveSet {
	return &ActiveSet{inQ: make([]bool, numOwned), prio: prio}
}

// ActiveSetOf returns the active set prog schedules through: keyed by
// Priority(psi[l]) at push time when prog is a Prioritizer, FIFO otherwise.
func ActiveSetOf[V any](prog Program[V], psi []V, numOwned int) *ActiveSet {
	a := NewActiveSet(numOwned, nil)
	if p, ok := prog.(Prioritizer[V]); ok {
		a.prio = func(l uint32) float64 { return p.Priority(psi[l]) }
	}
	return a
}

// Push activates a vertex. Re-activating a queued vertex is a no-op for the
// FIFO, and a lazy re-insert with the (possibly better) current priority for
// the heap: the earlier entry is skipped if this one pops first. The FIFO's
// duplicate check stays here so that Push inlines into every send site.
func (a *ActiveSet) Push(local uint32) {
	if a.prio == nil && a.inQ[local] {
		return
	}
	a.push(local)
}

func (a *ActiveSet) push(local uint32) {
	if a.prio == nil {
		a.fifo = append(a.fifo, local)
	} else {
		a.items.Push(Item{a.prio(local), local})
		if a.inQ[local] {
			return
		}
	}
	a.inQ[local] = true
	a.size++
}

// Empty reports whether H is empty.
func (a *ActiveSet) Empty() bool { return a.size == 0 }

// Len returns |H|.
func (a *ActiveSet) Len() int { return a.size }

// Pop removes and returns the next vertex; H must be non-empty.
func (a *ActiveSet) Pop() uint32 {
	var v uint32
	if a.prio == nil {
		for !a.inQ[a.fifo[a.head]] {
			a.head++
		}
		v = a.fifo[a.head]
		a.head++
		if a.head > 1024 && a.head*2 > len(a.fifo) {
			a.fifo = append(a.fifo[:0], a.fifo[a.head:]...)
			a.head = 0
		}
	} else {
		// Drop stale lazy duplicates from the top.
		for !a.inQ[a.items[0].ID] {
			a.items.Pop()
		}
		v = a.items.Pop().ID
	}
	a.inQ[v] = false
	a.size--
	return v
}

// Snapshot returns the queued vertices without disturbing the set; used by
// the fault-tolerance layer to checkpoint H. The result is the FIFO order,
// or for the heap the array order of each vertex's first entry (Reset
// re-inserts with fresh priorities, so heap order is not part of it).
func (a *ActiveSet) Snapshot() []uint32 {
	out := make([]uint32, 0, a.size)
	// inQ doubles as the "not yet emitted" mark and is restored below.
	emit := func(v uint32) {
		if a.inQ[v] {
			a.inQ[v] = false
			out = append(out, v)
		}
	}
	if a.prio == nil {
		for _, v := range a.fifo[a.head:] {
			emit(v)
		}
	} else {
		for _, it := range a.items {
			emit(it.ID)
		}
	}
	for _, v := range out {
		a.inQ[v] = true
	}
	return out
}

// Reset replaces the set's contents with vs (a prior Snapshot), dropping
// everything queued since.
func (a *ActiveSet) Reset(vs []uint32) {
	clear(a.inQ)
	a.size = 0
	a.fifo = a.fifo[:0]
	a.head = 0
	a.items = a.items[:0]
	for _, v := range vs {
		a.Push(v)
	}
}
