package graph

import "slices"

// patchRow is a local row the patch re-derives: that of a touched vertex v
// local in the parent fragment (was), in the child (is), or in both. at is
// the parent row v occupies or, for a ghost being born, the parent row it is
// inserted before; patch rows are in local order.
type patchRow struct {
	v       VID
	at      int
	was, is bool
}

// patch derives the fragment of f's worker over g, whose adjacency differs
// from that of f's graph only in the rows of touched (sorted, distinct). The
// result equals buildFragment's field for field, for one copy of f's local
// arrays plus O(Σ deg(touched)) rather than four passes over the global CSR;
// f is not modified.
//
// Every arc a batch changes has both endpoints in touched, so only three
// things can differ: the rows of touched vertices local here (owned, or a
// ghost before or after), the ghost status of touched vertices owned
// elsewhere (born with an arc to an owned vertex, dead with the last one),
// and the replica rows of touched owned vertices. Every other row is copied;
// while the ghost set stays put, so does the numbering, shared by pointer.
func (f *Fragment) patch(g *Graph, touched []VID) *Fragment {
	c := *f
	w := uint16(f.worker)
	ownedHere := func(u VID) bool { return f.owner[u] == w }

	var owned, ghosts []patchRow
	reshaped := false
	for _, v := range touched {
		l := f.index[v]
		if ownedHere(v) {
			owned = append(owned, patchRow{v: v, at: int(l), was: true, is: true})
			continue
		}
		r := patchRow{v: v, at: int(l), was: l != noLocal,
			is: slices.ContainsFunc(g.OutNeighbors(v), ownedHere) || slices.ContainsFunc(g.InNeighbors(v), ownedHere)}
		if !r.was {
			if !r.is {
				continue
			}
			pos, _ := slices.BinarySearch(f.locals[f.numOwned:], v)
			r.at = f.numOwned + pos
		}
		reshaped = reshaped || r.was != r.is
		ghosts = append(ghosts, r)
	}

	// A ghost born or dead renumbers the ghosts after it: new locals, index
	// and labels, and remap (parent local -> child local) for copied rows.
	var remap []uint32
	if reshaped {
		remap = make([]uint32, len(f.locals))
		c.locals = append(make([]VID, 0, len(f.locals)+len(ghosts)), f.locals[:f.numOwned]...)
		for l := range f.numOwned {
			remap[l] = uint32(l)
		}
		c.index = slices.Clone(f.index)
		at := f.numOwned // parent ghosts [numOwned, at) are placed
		place := func(end int) {
			for ; at < end; at++ {
				remap[at] = uint32(len(c.locals))
				c.index[f.locals[at]] = remap[at]
				c.locals = append(c.locals, f.locals[at])
			}
		}
		for _, r := range ghosts {
			place(r.at)
			l := noLocal
			if r.is {
				l = uint32(len(c.locals))
				c.locals = append(c.locals, r.v)
			}
			c.index[r.v] = l
			if r.was {
				remap[at] = l
				at++
			}
		}
		place(len(f.locals))
		c.labels = localLabels(g.labels, c.locals)
	}

	rows := append(owned, ghosts...)
	var e rowEmitter
	c.outIndex, c.outTo, c.outW = c.patchCSR(&e, rows, remap, f.outIndex, f.outTo, f.outW, g.outIndex, g.outTo, g.outW)
	c.repOutIdx, c.repOut = c.replicas(g.outIndex, g.outTo, f.repOutIdx, f.repOut, owned)
	if g.directed {
		c.inIndex, c.inTo, c.inW = c.patchCSR(&e, rows, remap, f.inIndex, f.inTo, f.inW, g.inIndex, g.inTo, g.inW)
		c.repInIdx, c.repIn = c.replicas(g.inIndex, g.inTo, f.repInIdx, f.repIn, owned)
	} else {
		c.inIndex, c.inTo, c.inW = c.outIndex, c.outTo, c.outW
		c.repInIdx, c.repIn = c.repOutIdx, c.repOut
	}
	return &c
}

// patchCSR derives one side of c's local CSR from the parent's (idx/to/ws):
// the patch rows are re-emitted from the global side (gIdx/gTo/gW) by the
// row kernel, every other row is copied in runs, one copy per gap between
// patch rows as spliceCSR copies global rows, with its targets renumbered
// through remap when the ghost set changed.
func (c *Fragment) patchCSR(e *rowEmitter, rows []patchRow, remap []uint32, idx []int64, to []uint32, ws []float64,
	gIdx []int64, gTo []VID, gW []float64) ([]int64, []uint32, []float64) {
	// Emit the patch rows first: their lengths size the result exactly.
	span := 1 // emitRow's slot of slack
	for _, r := range rows {
		if r.is {
			span += int(gIdx[r.v+1] - gIdx[r.v])
		}
	}
	rowTo, rowW := make([]uint32, span), make([]float64, span)
	ends := make([]int, len(rows))
	k, arcs := 0, len(to)
	for i, r := range rows {
		if r.was {
			arcs -= int(idx[r.at+1] - idx[r.at])
		}
		if r.is {
			lo, hi := gIdx[r.v], gIdx[r.v+1]
			k = e.emitRow(c, rowTo, rowW, k, gTo[lo:hi], gW[lo:hi], r.at < c.numOwned)
		}
		ends[i] = k
	}
	arcs += k

	nIdx := make([]int64, len(c.locals)+1)
	nTo, nW := make([]uint32, arcs), make([]float64, arcs)
	from, row, n := 0, 0, int64(0) // parent rows [0,from) fill child rows [0,row), arcs [0,n)
	run := func(end int) {
		lo, hi := idx[from], idx[end]
		if remap == nil {
			copy(nTo[n:], to[lo:hi])
		} else {
			for i, t := range to[lo:hi] {
				nTo[n+int64(i)] = remap[t]
			}
		}
		copy(nW[n:], ws[lo:hi])
		for shift := n - lo; from < end; from, row = from+1, row+1 {
			nIdx[row+1] = idx[from+1] + shift
		}
		n += hi - lo
	}
	start := 0
	for i, r := range rows {
		run(r.at)
		if r.was {
			from++
		}
		if r.is {
			copy(nTo[n:], rowTo[start:ends[i]])
			copy(nW[n:], rowW[start:ends[i]])
			n += int64(ends[i] - start)
			row++
			nIdx[row] = n
		}
		start = ends[i]
	}
	run(len(idx) - 1)
	return nIdx, nTo, nW
}
