package ace

// Item is one priority-queue entry: an id and its priority.
type Item struct {
	P  float64
	ID uint32
}

// Heap is the one priority queue under every Dijkstra-ordered loop (the
// active set, SeqSSSP, the BFS/SSSP warm planner): an addressable binary
// min-heap of ids ordered by (P, ID). A queued id has exactly one entry, so
// a push of a queued id re-keys it in place and the array never holds more
// than the id range. A pop never allocates, a push only when the array grows.
type Heap struct {
	items []Item
	pos   []int32 // pos[id] is id's index in items plus one; 0 when not queued
}

// NewHeap returns an empty heap over ids [0, n) whose array holds size
// entries before it grows (at most n are ever queued).
func NewHeap(n, size int) Heap { return Heap{items: make([]Item, 0, size), pos: make([]int32, n)} }

func (it Item) less(o Item) bool {
	if it.P != o.P {
		return it.P < o.P
	}
	return it.ID < o.ID
}

// Len returns the number of queued ids.
func (h *Heap) Len() int { return len(h.items) }

// Push queues id at priority p, or re-keys it to p if it is queued already:
// the latest key wins.
func (h *Heap) Push(id uint32, p float64) {
	it := Item{p, id}
	switch i := int(h.pos[id]) - 1; {
	case i < 0:
		h.items = append(h.items, it)
		h.up(len(h.items)-1, it)
	case it.less(h.items[i]):
		h.up(i, it)
	default:
		h.down(i, it)
	}
}

// Pop removes and returns the smallest item; the heap must be non-empty.
func (h *Heap) Pop() Item {
	n := len(h.items) - 1
	top, x := h.items[0], h.items[n]
	h.items = h.items[:n]
	h.pos[top.ID] = 0
	if n > 0 {
		h.down(0, x)
	}
	return top
}

// up places it at slot j or above, shifting larger parents down.
func (h *Heap) up(j int, it Item) {
	s := h.items
	for j > 0 {
		i := (j - 1) / 2
		if !it.less(s[i]) {
			break
		}
		s[j] = s[i]
		h.pos[s[j].ID] = int32(j + 1)
		j = i
	}
	s[j] = it
	h.pos[it.ID] = int32(j + 1)
}

// down places x at slot i or below, shifting smaller children up.
func (h *Heap) down(i int, x Item) {
	s := h.items
	n := len(s)
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
		h.pos[s[i].ID] = int32(i + 1)
		i = j
	}
	s[i] = x
	h.pos[x.ID] = int32(i + 1)
}

// ActiveSet is the local active set H_{A,i}: the owned vertices whose update
// functions must run. It is a FIFO queue by default; when a priority
// function is supplied (parallelized Dijkstra), it is a Heap popping the
// smallest priority first. The sim and live engines and the sequential
// runner (gap.RunSequential) all schedule through it.
type ActiveSet struct {
	inQ  []bool                     // FIFO mode: the queued marks,
	fifo []uint32                   // the queue
	head int                        // and its popped prefix
	prio func(local uint32) float64 // non-nil selects heap mode
	heap Heap
}

// NewActiveSet returns an empty set over numOwned vertices, FIFO when prio is
// nil.
func NewActiveSet(numOwned int, prio func(uint32) float64) *ActiveSet {
	if prio != nil {
		return &ActiveSet{prio: prio, heap: NewHeap(numOwned, 0)}
	}
	return &ActiveSet{inQ: make([]bool, numOwned)}
}

// ActiveSetOf returns the active set prog schedules through: keyed by
// Priority(psi[l]) at push time when prog is a Prioritizer, FIFO otherwise.
func ActiveSetOf[V any](prog Program[V], psi []V, numOwned int) *ActiveSet {
	var prio func(uint32) float64
	if p, ok := prog.(Prioritizer[V]); ok {
		prio = func(l uint32) float64 { return p.Priority(psi[l]) }
	}
	return NewActiveSet(numOwned, prio)
}

// Push activates a vertex. Re-activating a queued vertex is a no-op for the
// FIFO, and re-keys its one heap entry to the current priority. The FIFO's
// duplicate check stays here so that Push inlines into every send site.
func (a *ActiveSet) Push(local uint32) {
	if a.prio == nil && a.inQ[local] {
		return
	}
	a.push(local)
}

func (a *ActiveSet) push(local uint32) {
	if a.prio != nil {
		a.heap.Push(local, a.prio(local))
		return
	}
	a.fifo = append(a.fifo, local)
	a.inQ[local] = true
}

// Empty reports whether H is empty.
func (a *ActiveSet) Empty() bool { return a.Len() == 0 }

// Len returns |H|.
func (a *ActiveSet) Len() int { return len(a.fifo) - a.head + a.heap.Len() }

// Pop removes and returns the next vertex; H must be non-empty.
func (a *ActiveSet) Pop() uint32 {
	if a.prio != nil {
		return a.heap.Pop().ID
	}
	v := a.fifo[a.head]
	a.head++
	if a.head > 1024 && a.head*2 > len(a.fifo) {
		a.fifo = append(a.fifo[:0], a.fifo[a.head:]...)
		a.head = 0
	}
	a.inQ[v] = false
	return v
}

// Snapshot returns the queued vertices without disturbing the set; used by
// the fault-tolerance layer to checkpoint H. The result is the FIFO order,
// or for the heap its array order (Reset re-keys with fresh priorities, so
// heap order is not part of it).
func (a *ActiveSet) Snapshot() []uint32 {
	out := make([]uint32, 0, a.Len())
	out = append(out, a.fifo[a.head:]...)
	for _, it := range a.heap.items {
		out = append(out, it.ID)
	}
	return out
}

// Reset replaces the set's contents with vs (a prior Snapshot), dropping
// everything queued since.
func (a *ActiveSet) Reset(vs []uint32) {
	clear(a.inQ)
	clear(a.heap.pos)
	a.fifo, a.head, a.heap.items = a.fifo[:0], 0, a.heap.items[:0]
	for _, v := range vs {
		a.Push(v)
	}
}
