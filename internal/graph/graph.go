// Package graph provides the in-memory graph substrate used by the Argan
// engine: compact CSR storage, weighted and labeled graphs, builders,
// loaders, synthetic generators, and the Fragment type produced by
// partitioning (owned vertices plus ghost replicas with routing metadata).
package graph

import (
	"fmt"
	"sort"
)

// VID identifies a vertex globally. Vertex identifiers are dense: a graph
// with n vertices uses identifiers 0..n-1.
type VID = uint32

// NoVID is a sentinel for "no vertex".
const NoVID = ^VID(0)

// Edge is a single directed (or half of an undirected) edge with a weight.
// The JSON form is used by the serve mutation API.
type Edge struct {
	Src VID     `json:"src"`
	Dst VID     `json:"dst"`
	W   float64 `json:"w,omitempty"`
}

// Graph is an immutable directed or undirected graph in CSR form. Undirected
// graphs store each edge in both directions, so OutDegree == InDegree for
// every vertex and the in- and out-adjacency share storage.
type Graph struct {
	n        int
	directed bool

	outIndex []int64
	outTo    []VID
	outW     []float64

	inIndex []int64
	inTo    []VID
	inW     []float64

	labels []int32 // optional vertex labels; nil when unlabeled

	// frozen guards shared instances (the dataset cache): once set, fprint
	// holds the structural fingerprint taken at freeze time, and any later
	// mutation through an aliasing accessor is detectable.
	frozen bool
	fprint uint64
	// rowSum is the fingerprint's sum of row hashes (fingerprint.go), valid
	// once carried is set: by Freeze, which hashes every row, or by
	// ApplyMutations on a frozen parent, which re-hashes only the rows its
	// batch names. Only Freeze reads it; Fingerprint never does.
	rowSum  uint64
	carried bool

	// version counts mutation batches applied since the base build:
	// ApplyMutations returns a fresh graph with version+1 and never touches
	// this one. fver records the version at freeze time, so a version bump
	// smuggled onto a frozen shared instance fails CheckFrozen with
	// ErrVersionMismatch even before re-fingerprinting.
	version uint64
	fver    uint64
}

// Version returns how many mutation batches separate this graph from its
// base build (0 for a freshly built graph).
func (g *Graph) Version() uint64 { return g.version }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of stored directed arcs. For an undirected
// graph this is twice the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Labeled reports whether vertices carry labels.
func (g *Graph) Labeled() bool { return g.labels != nil }

// Label returns the label of v, or 0 for unlabeled graphs.
func (g *Graph) Label(v VID) int32 {
	if g.labels == nil {
		return 0
	}
	return g.labels[v]
}

// Labels returns the underlying label slice (nil when unlabeled). The slice
// must not be modified.
func (g *Graph) Labels() []int32 { return g.labels }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VID) int { return int(g.outIndex[v+1] - g.outIndex[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VID) int { return int(g.inIndex[v+1] - g.inIndex[v]) }

// OutNeighbors returns the out-neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VID) []VID { return g.outTo[g.outIndex[v]:g.outIndex[v+1]] }

// OutWeights returns the weights parallel to OutNeighbors(v).
func (g *Graph) OutWeights(v VID) []float64 { return g.outW[g.outIndex[v]:g.outIndex[v+1]] }

// InNeighbors returns the in-neighbor list of v.
func (g *Graph) InNeighbors(v VID) []VID { return g.inTo[g.inIndex[v]:g.inIndex[v+1]] }

// InWeights returns the weights parallel to InNeighbors(v).
func (g *Graph) InWeights(v VID) []float64 { return g.inW[g.inIndex[v]:g.inIndex[v+1]] }

// Size returns |G| = |V| + |E| as used by the paper's scalability study.
func (g *Graph) Size() int64 { return int64(g.n) + int64(len(g.outTo)) }

func (g *Graph) String() string {
	kind := "directed"
	if !g.directed {
		kind = "undirected"
	}
	return fmt.Sprintf("graph{%s |V|=%d arcs=%d labeled=%v}", kind, g.n, len(g.outTo), g.labels != nil)
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; construct with NewBuilder.
type Builder struct {
	n        int
	directed bool
	edges    []Edge
	labels   []int32
	dedup    bool
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// SetDedup makes Build remove parallel edges, keeping the smallest weight.
func (b *Builder) SetDedup(on bool) *Builder { b.dedup = on; return b }

// AddEdge records an edge with weight 1.
func (b *Builder) AddEdge(src, dst VID) *Builder { return b.AddWeighted(src, dst, 1) }

// AddWeighted records a weighted edge. Self-loops are permitted; they are
// kept as-is (algorithms that cannot use them skip them).
func (b *Builder) AddWeighted(src, dst VID, w float64) *Builder {
	b.edges = append(b.edges, Edge{src, dst, w})
	return b
}

// SetLabel assigns a label to vertex v. Assigning any label makes the graph
// labeled; unassigned vertices keep label 0.
func (b *Builder) SetLabel(v VID, label int32) *Builder {
	if b.labels == nil {
		b.labels = make([]int32, b.n)
	}
	b.labels[v] = label
	return b
}

// NumPendingEdges returns the number of edges recorded so far.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build validates the recorded edges and produces the CSR graph. Edges with
// endpoints outside [0,n) cause an error.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if int(e.Src) >= b.n || int(e.Dst) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, b.n)
		}
	}
	arcs := b.edges
	if !b.directed {
		arcs = make([]Edge, 0, 2*len(b.edges))
		for _, e := range b.edges {
			arcs = append(arcs, e)
			if e.Src != e.Dst {
				arcs = append(arcs, Edge{e.Dst, e.Src, e.W})
			}
		}
	}
	if b.dedup {
		arcs = dedupEdges(arcs)
	}
	g := &Graph{n: b.n, directed: b.directed, labels: b.labels}
	g.outIndex, g.outTo, g.outW = buildCSR(b.n, arcs, false)
	if b.directed {
		g.inIndex, g.inTo, g.inW = buildCSR(b.n, arcs, true)
	} else {
		g.inIndex, g.inTo, g.inW = g.outIndex, g.outTo, g.outW
	}
	return g, nil
}

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func dedupEdges(arcs []Edge) []Edge {
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].Src != arcs[j].Src {
			return arcs[i].Src < arcs[j].Src
		}
		if arcs[i].Dst != arcs[j].Dst {
			return arcs[i].Dst < arcs[j].Dst
		}
		return arcs[i].W < arcs[j].W
	})
	out := arcs[:0]
	for i, e := range arcs {
		if i > 0 && e.Src == out[len(out)-1].Src && e.Dst == out[len(out)-1].Dst {
			continue
		}
		out = append(out, e)
	}
	return out
}

// buildCSR builds index/targets/weights arrays. When reverse is true the CSR
// is keyed by destination (an in-adjacency).
func buildCSR(n int, arcs []Edge, reverse bool) ([]int64, []VID, []float64) {
	index := make([]int64, n+1)
	for _, e := range arcs {
		k := e.Src
		if reverse {
			k = e.Dst
		}
		index[k+1]++
	}
	for i := 0; i < n; i++ {
		index[i+1] += index[i]
	}
	to := make([]VID, len(arcs))
	w := make([]float64, len(arcs))
	cursor := make([]int64, n)
	for _, e := range arcs {
		k, other := e.Src, e.Dst
		if reverse {
			k, other = e.Dst, e.Src
		}
		p := index[k] + cursor[k]
		cursor[k]++
		to[p] = other
		w[p] = e.W
	}
	// Sort each adjacency list for deterministic iteration and binary search.
	for v := 0; v < n; v++ {
		lo, hi := index[v], index[v+1]
		sortAdj(to[lo:hi], w[lo:hi])
	}
	return index, to, w
}

func sortAdj(to []VID, w []float64) {
	sort.Sort(&adjSorter{to, w})
}

type adjSorter struct {
	to []VID
	w  []float64
}

func (s *adjSorter) Len() int { return len(s.to) }
func (s *adjSorter) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}
func (s *adjSorter) Less(i, j int) bool {
	if s.to[i] != s.to[j] {
		return s.to[i] < s.to[j]
	}
	return s.w[i] < s.w[j]
}

// HasEdge reports whether the arc src->dst exists.
func (g *Graph) HasEdge(src, dst VID) bool {
	_, ok := g.EdgeWeight(src, dst)
	return ok
}

// EdgeWeight returns the weight of the arc src->dst and whether it exists.
// With parallel arcs it returns the smallest weight (adjacency is sorted by
// target, then weight).
func (g *Graph) EdgeWeight(src, dst VID) (float64, bool) {
	adj := g.OutNeighbors(src)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= dst })
	if i < len(adj) && adj[i] == dst {
		return g.OutWeights(src)[i], true
	}
	return 0, false
}
