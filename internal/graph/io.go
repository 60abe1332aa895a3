package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a text edge list. The header line is
//
//	# argan directed=<bool> n=<int> labeled=<bool>
//
// followed by optional "l <vid> <label>" lines and one "src dst weight" line
// per arc (undirected edges are written once, with src <= dst).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# argan directed=%v n=%d labeled=%v\n", g.directed, g.n, g.labels != nil)
	if g.labels != nil {
		for v, l := range g.labels {
			if l != 0 {
				fmt.Fprintf(bw, "l %d %d\n", v, l)
			}
		}
	}
	for v := 0; v < g.n; v++ {
		adj, ws := g.OutNeighbors(VID(v)), g.OutWeights(VID(v))
		for i, u := range adj {
			if !g.directed && u < VID(v) {
				continue // written from the smaller endpoint
			}
			fmt.Fprintf(bw, "%d %d %g\n", v, u, ws[i])
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Plain edge lists
// without the header are also accepted: lines of "src dst [weight]" build a
// directed graph with n = max id + 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	directed := true
	n := -1
	var edges []Edge
	type labelAssign struct {
		v VID
		l int32
	}
	var labels []labelAssign
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			for _, f := range strings.Fields(line[1:]) {
				if v, ok := strings.CutPrefix(f, "directed="); ok {
					directed = v == "true"
				}
				if v, ok := strings.CutPrefix(f, "n="); ok {
					x, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("graph: line %d: bad n: %v", lineNo, err)
					}
					if x < 0 {
						return nil, fmt.Errorf("graph: line %d: header declares negative n=%d", lineNo, x)
					}
					n = x
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "l" {
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: bad label line", lineNo)
			}
			v, err1 := strconv.ParseUint(fields[1], 10, 32)
			l, err2 := strconv.ParseInt(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad label line", lineNo)
			}
			labels = append(labels, labelAssign{VID(v), int32(l)})
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: expected 'src dst [w]'", lineNo)
		}
		src, err1 := strconv.ParseUint(fields[0], 10, 32)
		dst, err2 := strconv.ParseUint(fields[1], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex id", lineNo)
		}
		w := 1.0
		if len(fields) == 3 {
			var err error
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
			}
		}
		edges = append(edges, Edge{VID(src), VID(dst), w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		max := -1
		for _, e := range edges {
			if int(e.Src) > max {
				max = int(e.Src)
			}
			if int(e.Dst) > max {
				max = int(e.Dst)
			}
		}
		n = max + 1
	}
	b := NewBuilder(n, directed)
	b.edges = edges
	for _, a := range labels {
		if int(a.v) >= n {
			return nil, fmt.Errorf("graph: label assigned to vertex %d out of range for n=%d", a.v, n)
		}
		b.SetLabel(a.v, a.l)
	}
	return b.Build()
}

const binMagic = uint32(0x41524732) // "ARG2"

// WriteLE writes data in the repo's canonical little-endian binary form. It
// is the serialization seam shared by the graph codec, durable snapshots and
// the live driver's spilled recovery logs/checkpoints: one encoding, one
// place to change it.
func WriteLE(w io.Writer, data any) error {
	return binary.Write(w, binary.LittleEndian, data)
}

// ReadLE reads data written by WriteLE.
func ReadLE(r io.Reader, data any) error {
	return binary.Read(r, binary.LittleEndian, data)
}

// readerSize reports the number of bytes remaining in r when that is cheap
// to learn (files, byte/string readers, anything seekable). ok is false for
// plain streams.
func readerSize(r io.Reader) (size int64, ok bool) {
	switch v := r.(type) {
	case interface{ Len() int }: // bytes.Reader, strings.Reader, bytes.Buffer
		return int64(v.Len()), true
	case io.Seeker:
		cur, err1 := v.Seek(0, io.SeekCurrent)
		end, err2 := v.Seek(0, io.SeekEnd)
		if err1 != nil || err2 != nil {
			return 0, false
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return 0, false
		}
		return end - cur, true
	}
	return 0, false
}

// WriteSliceLE writes a fixed-size element slice in bounded chunks, so an
// encoder working under a memory budget (the durable warm-fixpoint snapshot
// writer) never stages more than one chunk of encoding state regardless of
// slice length. It is the writer dual of ReadSliceLE.
func WriteSliceLE[T int32 | int64 | uint32 | float64](w io.Writer, data []T) error {
	const chunk = 1 << 16
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if err := WriteLE(w, data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// ReadSliceLE reads count fixed-size elements into a fresh slice. When the
// input may be shorter than the header claims (sized=false, so the caller
// could not pre-validate), it reads in bounded chunks and grows the result
// incrementally, so a corrupt header that declares billions of elements
// fails fast with a truncation error instead of one huge up-front
// allocation.
func ReadSliceLE[T int32 | int64 | uint32 | float64](r io.Reader, count int, sized bool, what string) ([]T, error) {
	if count == 0 {
		return []T{}, nil
	}
	if sized {
		out := make([]T, count)
		if err := ReadLE(r, out); err != nil {
			return nil, fmt.Errorf("graph: reading %s (%d entries): %w", what, count, err)
		}
		return out, nil
	}
	const chunk = 1 << 16
	out := make([]T, 0, min(count, chunk))
	buf := make([]T, min(count, chunk))
	for read := 0; read < count; {
		c := min(count-read, chunk)
		if err := ReadLE(r, buf[:c]); err != nil {
			return nil, fmt.Errorf("graph: %s truncated after %d of %d entries: %w", what, read, count, err)
		}
		out = append(out, buf[:c]...)
		read += c
	}
	return out, nil
}

// WriteBinary writes a compact binary encoding (little-endian), much faster
// to reload than the text form for large graphs.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	flags := uint32(0)
	if g.directed {
		flags |= 1
	}
	if g.labels != nil {
		flags |= 2
	}
	hdr := []uint32{binMagic, flags, uint32(g.n), uint32(len(g.outTo))}
	if err := WriteLE(bw, hdr); err != nil {
		return err
	}
	if err := WriteLE(bw, g.outIndex); err != nil {
		return err
	}
	if err := WriteLE(bw, g.outTo); err != nil {
		return err
	}
	if err := WriteLE(bw, g.outW); err != nil {
		return err
	}
	if g.labels != nil {
		if err := WriteLE(bw, g.labels); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the format written by WriteBinary, reconstructing the
// reverse adjacency. The header counts are validated against the reader's
// size (when it is knowable) before anything is allocated, and the CSR
// structure is validated after decoding, so truncated or corrupt inputs
// produce descriptive errors instead of huge allocations or silent short
// reads.
func ReadBinary(r io.Reader) (*Graph, error) {
	size, sized := readerSize(r)
	br := bufio.NewReader(r)
	var hdr [4]uint32
	if err := ReadLE(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if hdr[0] != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	n, m := int(hdr[2]), int(hdr[3])
	need := int64(16) + 8*int64(n+1) + 12*int64(m)
	if hdr[1]&2 != 0 {
		need += 4 * int64(n)
	}
	if sized && size < need {
		return nil, fmt.Errorf("graph: binary header declares n=%d m=%d requiring %d bytes, input has only %d", n, m, need, size)
	}
	g := &Graph{n: n, directed: hdr[1]&1 != 0}
	var err error
	if g.outIndex, err = ReadSliceLE[int64](br, n+1, sized, "out-index"); err != nil {
		return nil, err
	}
	if g.outTo, err = ReadSliceLE[VID](br, m, sized, "arc targets"); err != nil {
		return nil, err
	}
	if g.outW, err = ReadSliceLE[float64](br, m, sized, "arc weights"); err != nil {
		return nil, err
	}
	if hdr[1]&2 != 0 {
		if g.labels, err = ReadSliceLE[int32](br, n, sized, "labels"); err != nil {
			return nil, err
		}
	}
	if g.outIndex[0] != 0 {
		return nil, fmt.Errorf("graph: corrupt CSR: index[0] = %d, want 0", g.outIndex[0])
	}
	for v := 0; v < n; v++ {
		if g.outIndex[v+1] < g.outIndex[v] {
			return nil, fmt.Errorf("graph: corrupt CSR: index decreases at vertex %d (%d -> %d)", v, g.outIndex[v], g.outIndex[v+1])
		}
	}
	if g.outIndex[n] != int64(m) {
		return nil, fmt.Errorf("graph: corrupt CSR: index covers %d arcs, header declares %d", g.outIndex[n], m)
	}
	for i, t := range g.outTo {
		if int(t) >= n {
			return nil, fmt.Errorf("graph: corrupt CSR: arc %d targets vertex %d >= n=%d", i, t, n)
		}
	}
	if g.directed {
		arcs := make([]Edge, 0, m)
		for v := 0; v < g.n; v++ {
			for i := g.outIndex[v]; i < g.outIndex[v+1]; i++ {
				arcs = append(arcs, Edge{VID(v), g.outTo[i], g.outW[i]})
			}
		}
		g.inIndex, g.inTo, g.inW = buildCSR(g.n, arcs, true)
	} else {
		g.inIndex, g.inTo, g.inW = g.outIndex, g.outTo, g.outW
	}
	return g, nil
}
