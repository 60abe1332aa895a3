package graph

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// Fragment is the part of a partitioned graph held by one worker, following
// the paper's vertex-partitioning convention (§II-A): fragment F_i contains
// (1) the owned vertices V'_i, (2) every edge adjacent to V'_i, and (3) the
// ghost vertices induced by those edges.
//
// Vertices are addressed by dense *local indices*: owned vertices occupy
// [0, NumOwned) and ghosts occupy [NumOwned, NumLocal), each group sorted by
// global id. Adjacency is stored in CSR form over local indices:
//
//   - the out-adjacency of an owned vertex is complete; the out-adjacency of
//     a ghost contains only arcs into owned vertices;
//   - symmetrically for the in-adjacency.
//
// Global ids resolve to local ones through a dense array over all of V
// (Local), built once with the fragment and shared read-only by every job
// that runs on it: 4·|V| bytes per fragment, which is what each live job used
// to allocate per worker for a private lookup table of its own.
//
// Replica routing: for an owned border vertex v, ReplicasOut(v) lists the
// workers that hold v as a ghost because v has an out-edge into their owned
// set (they need v's value when update functions read in-neighbors), and
// ReplicasIn(v) the workers reached through v's in-edges.
//
// A Fragment is immutable once built or patched: no method changes it, so
// any number of concurrent jobs may run over one, and the versions derived
// by UpdateFragments share its arrays by pointer.
type Fragment struct {
	worker     int
	numWorkers int
	directed   bool

	numOwned int
	locals   []VID    // local -> global
	index    []uint32 // global -> local, noLocal where the vertex is absent
	owner    []uint16 // global -> owning worker (shared, read-only)

	outIndex []int64
	outTo    []uint32 // local indices
	outW     []float64
	inIndex  []int64
	inTo     []uint32
	inW      []float64

	labels []int32 // per local vertex; nil when unlabeled

	repOutIdx []int32
	repOut    []uint16
	repInIdx  []int32
	repIn     []uint16

	globalN int
}

// Worker returns the id of the worker owning this fragment (0-based).
func (f *Fragment) Worker() int { return f.worker }

// NumWorkers returns the number of fragments the graph was split into.
func (f *Fragment) NumWorkers() int { return f.numWorkers }

// Directed reports whether the underlying graph is directed.
func (f *Fragment) Directed() bool { return f.directed }

// NumOwned returns |V'_i|.
func (f *Fragment) NumOwned() int { return f.numOwned }

// NumLocal returns the number of local vertices including ghosts.
func (f *Fragment) NumLocal() int { return len(f.locals) }

// NumGhosts returns the number of ghost vertices.
func (f *Fragment) NumGhosts() int { return len(f.locals) - f.numOwned }

// NumArcs returns the number of arcs stored in the fragment's out-CSR.
func (f *Fragment) NumArcs() int { return len(f.outTo) }

// GlobalVertices returns |V| of the whole graph.
func (f *Fragment) GlobalVertices() int { return f.globalN }

// IsOwned reports whether the local index denotes an owned vertex.
func (f *Fragment) IsOwned(local uint32) bool { return int(local) < f.numOwned }

// Global maps a local index to its global vertex id.
func (f *Fragment) Global(local uint32) VID { return f.locals[local] }

// noLocal marks a global vertex that is neither owned nor a ghost here.
const noLocal = ^uint32(0)

// Local maps a global id to the local index, if the vertex is present. Ids
// outside the graph (a corrupt message) are reported absent.
func (f *Fragment) Local(v VID) (uint32, bool) {
	if int(v) >= len(f.index) {
		return 0, false
	}
	l := f.index[v]
	return l, l != noLocal
}

// OwnerOf returns the worker owning global vertex v.
func (f *Fragment) OwnerOf(v VID) int { return int(f.owner[v]) }

// Label returns the label of the local vertex (0 when unlabeled).
func (f *Fragment) Label(local uint32) int32 {
	if f.labels == nil {
		return 0
	}
	return f.labels[local]
}

// OutDegree returns the stored out-degree of the local vertex.
func (f *Fragment) OutDegree(local uint32) int {
	return int(f.outIndex[local+1] - f.outIndex[local])
}

// InDegree returns the stored in-degree of the local vertex.
func (f *Fragment) InDegree(local uint32) int {
	return int(f.inIndex[local+1] - f.inIndex[local])
}

// OutNeighbors returns the out-adjacency (local indices) of the local vertex.
// The slice aliases internal storage and must not be modified.
func (f *Fragment) OutNeighbors(local uint32) []uint32 {
	return f.outTo[f.outIndex[local]:f.outIndex[local+1]]
}

// OutWeights returns weights parallel to OutNeighbors.
func (f *Fragment) OutWeights(local uint32) []float64 {
	return f.outW[f.outIndex[local]:f.outIndex[local+1]]
}

// InNeighbors returns the in-adjacency (local indices) of the local vertex.
func (f *Fragment) InNeighbors(local uint32) []uint32 {
	return f.inTo[f.inIndex[local]:f.inIndex[local+1]]
}

// InWeights returns weights parallel to InNeighbors.
func (f *Fragment) InWeights(local uint32) []float64 {
	return f.inW[f.inIndex[local]:f.inIndex[local+1]]
}

// ReplicasOut lists the workers holding the owned vertex as a ghost via its
// out-edges. Empty for interior vertices.
func (f *Fragment) ReplicasOut(local uint32) []uint16 {
	return f.repOut[f.repOutIdx[local]:f.repOutIdx[local+1]]
}

// ReplicasIn lists the workers holding the owned vertex as a ghost via its
// in-edges.
func (f *Fragment) ReplicasIn(local uint32) []uint16 {
	return f.repIn[f.repInIdx[local]:f.repInIdx[local+1]]
}

func (f *Fragment) String() string {
	return fmt.Sprintf("fragment{worker=%d owned=%d ghosts=%d arcs=%d}",
		f.worker, f.numOwned, f.NumGhosts(), f.NumArcs())
}

// BuildFragments splits g into numWorkers fragments according to the owner
// assignment (owner[v] = worker id for every global vertex). It validates the
// assignment and returns one fragment per worker.
func BuildFragments(g *Graph, owner []uint16, numWorkers int) ([]*Fragment, error) {
	if len(owner) != g.n {
		return nil, fmt.Errorf("graph: owner assignment has %d entries, want %d", len(owner), g.n)
	}
	for v, o := range owner {
		if int(o) >= numWorkers {
			return nil, fmt.Errorf("graph: vertex %d assigned to worker %d >= %d", v, o, numWorkers)
		}
	}
	frags := make([]*Fragment, numWorkers)
	fillMissing(frags, func(i int) *Fragment { return buildFragment(g, owner, numWorkers, i) })
	return frags, nil
}

// fillMissing sets every slot of frags that is still nil to derive(i), one
// goroutine each over at most GOMAXPROCS at a time. Derivations share only
// read-only inputs and write distinct slots.
func fillMissing(frags []*Fragment, derive func(i int) *Fragment) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, f := range frags {
		if f != nil {
			continue
		}
		if cap(sem) == 1 {
			frags[i] = derive(i)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			frags[i] = derive(i)
			<-sem
		}()
	}
	wg.Wait()
}

// buildFragment builds one worker's fragment in four sequential passes over
// the global CSR, hashing and sorting nothing: every order it needs (locals by
// global id, adjacency by local index, parallel arcs by weight) is g's own.
func buildFragment(g *Graph, owner []uint16, numWorkers, worker int) *Fragment {
	w := uint16(worker)
	f := &Fragment{
		worker:     worker,
		numWorkers: numWorkers,
		directed:   g.directed,
		index:      make([]uint32, g.n),
		owner:      owner,
		globalN:    g.n,
	}

	// Pass 1: flag every neighbour of an owned vertex (pass 2 tells ghosts
	// from owned ones) and count E_i: the distinct out-arcs of owned vertices
	// plus their in-arcs from remote sources. The store is unconditional:
	// under hash ownership "is u remote" mispredicts on every other arc.
	for v := range f.index {
		f.index[v] = noLocal
	}
	const flagged = noLocal - 1
	arcs := 0
	for v := 0; v < g.n; v++ {
		if owner[v] != w {
			continue
		}
		f.numOwned++
		for dir, adj := range [2][]VID{g.OutNeighbors(VID(v)), g.InNeighbors(VID(v))} {
			for i, u := range adj {
				if i > 0 && adj[i-1] == u {
					continue
				}
				f.index[u] = flagged
				if dir == 0 || owner[u] != w {
					arcs++
				}
			}
		}
	}

	// Pass 2: number the locals, owned then ghosts, each by global id.
	f.locals = make([]VID, f.numOwned)
	nextOwned := uint32(0)
	for v := range f.index {
		switch {
		case owner[v] == w:
			f.index[v], f.locals[nextOwned] = nextOwned, VID(v)
			nextOwned++
		case f.index[v] == flagged:
			f.index[v] = uint32(len(f.locals))
			f.locals = append(f.locals, VID(v))
		}
	}
	f.labels = localLabels(g.labels, f.locals)

	// Pass 3: localized adjacency. An undirected graph's CSR stores both
	// directions in one set of arrays, and so does the fragment's.
	f.outIndex, f.outTo, f.outW = f.localCSR(g.outIndex, g.outTo, g.outW, arcs)
	if g.directed {
		f.inIndex, f.inTo, f.inW = f.localCSR(g.inIndex, g.inTo, g.inW, arcs)
	} else {
		f.inIndex, f.inTo, f.inW = f.outIndex, f.outTo, f.outW
	}

	// Pass 4: replica routing tables for owned vertices.
	f.repOutIdx, f.repOut = f.replicas(g.outIndex, g.outTo, nil, nil, nil)
	if g.directed {
		f.repInIdx, f.repIn = f.replicas(g.inIndex, g.inTo, nil, nil, nil)
	} else {
		f.repInIdx, f.repIn = f.repOutIdx, f.repOut
	}
	return f
}

// localLabels gathers the labels of the local vertices; nil when unlabeled.
func localLabels(labels []int32, locals []VID) []int32 {
	if labels == nil {
		return nil
	}
	out := make([]int32, len(locals))
	for l, v := range locals {
		out[l] = labels[v]
	}
	return out
}

// localCSR translates one direction of the global CSR (gIdx/gTo/gW) into the
// fragment's local CSR holding arcs distinct arcs, one emitRow per local.
func (f *Fragment) localCSR(gIdx []int64, gTo []VID, gW []float64, arcs int) ([]int64, []uint32, []float64) {
	idx := make([]int64, len(f.locals)+1)
	to := make([]uint32, arcs+1) // emitRow's slot of slack
	ws := make([]float64, arcs+1)
	var e rowEmitter
	k := 0
	for l, v := range f.locals {
		k = e.emitRow(f, to, ws, k, gTo[gIdx[v]:gIdx[v+1]], gW[gIdx[v]:gIdx[v+1]], l < f.numOwned)
		idx[l+1] = int64(k)
	}
	return idx, to[:arcs], ws[:arcs]
}

// rowEmitter is the one row kernel of the local CSR, shared by the cold build
// (localCSR) and the patch (patchCSR); it holds the ghost-neighbour scratch.
type rowEmitter struct {
	ghostTo []uint32
	ghostW  []float64
}

// emitRow writes the local row (numbered by f's index) of a vertex whose
// global row is adj/adjW into to/ws from k on and returns its end. An owned
// vertex keeps its whole adjacency, a ghost only its arcs to owned vertices,
// and of parallel arcs the first (smallest weight). Owned neighbours, then
// ghost ones, is local-index order: g's rows are sorted by target and both
// groups are numbered by global id. Branch-free: an arc is stored at both
// cursors before it is known which advances, so to/ws need a slot of slack.
func (e *rowEmitter) emitRow(f *Fragment, to []uint32, ws []float64, k int, adj []VID, adjW []float64, owned bool) int {
	if len(adj) > len(e.ghostTo) {
		e.ghostTo, e.ghostW = make([]uint32, len(adj)), make([]float64, len(adj))
	}
	// Locals: the stores below would make the compiler reload fields per arc.
	index, ghostTo, ghostW := f.index, e.ghostTo, e.ghostW
	numOwned := uint64(f.numOwned)
	nGhost := 0
	for p, u := range adj {
		if p > 0 && adj[p-1] == u {
			continue
		}
		lu, w := index[u], adjW[p]
		to[k], ws[k] = lu, w
		ghostTo[nGhost], ghostW[nGhost] = lu, w
		isOwned := int((uint64(lu) - numOwned) >> 63) // 1 when lu < numOwned
		k += isOwned
		nGhost += 1 - isOwned
	}
	if owned { // every neighbour of an owned vertex is local
		copy(to[k:], ghostTo[:nGhost])
		copy(ws[k:], ghostW[:nGhost])
		k += nGhost
	}
	return k
}

// replicas computes, for each owned vertex, the ascending set of remote
// workers owning its neighbours in one direction of the global CSR. Ghost
// entries keep empty ranges. Given the parent's table (pIdx/pRep), as the
// patch does, only the rows of redo — the touched owned vertices — are
// recomputed and every other row is copied: owned rows never move.
func (f *Fragment) replicas(gIdx []int64, gTo []VID, pIdx []int32, pRep []uint16, redo []patchRow) ([]int32, []uint16) {
	idx := make([]int32, len(f.locals)+1)
	var flat []uint16
	set := make([]uint64, (f.numWorkers+63)/64) // workers seen for the current vertex
	for l, v := range f.locals[:f.numOwned] {
		switch {
		case len(redo) > 0 && redo[0].at == l:
			redo = redo[1:]
		case pIdx != nil:
			flat = append(flat, pRep[pIdx[l]:pIdx[l+1]]...)
			idx[l+1] = int32(len(flat))
			continue
		}
		for _, u := range gTo[gIdx[v]:gIdx[v+1]] {
			o := f.owner[u]
			set[o/64] |= 1 << (o % 64)
		}
		set[f.worker/64] &^= 1 << (f.worker % 64)
		for i, word := range set {
			for ; word != 0; word &= word - 1 {
				flat = append(flat, uint16(i*64+bits.TrailingZeros64(word)))
			}
			set[i] = 0
		}
		idx[l+1] = int32(len(flat))
	}
	for l := f.numOwned; l < len(f.locals); l++ {
		idx[l+1] = idx[l]
	}
	return idx, flat
}
