package graph

import (
	"hash/fnv"
	"math"
)

// FingerprintV1 is the fingerprint WAL format 1 recorded with each batch:
// byte-wise FNV-1a over shape, the CSR index, target and weight arrays (out
// side, and in side when directed) and the labels. It has two uses left —
// replaying a format-1 log against the values it holds, once, before the log
// is rewritten as format 2 (internal/serve recovery), and standing as an
// independent oracle in tests. Nothing checks a live graph with it: it costs
// 6–8× Fingerprint and cannot follow a mutation.
func (g *Graph) FingerprintV1() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w64(uint64(g.n))
	if g.directed {
		w64(1)
	} else {
		w64(0)
	}
	for _, v := range g.outIndex {
		w64(uint64(v))
	}
	for _, v := range g.outTo {
		w64(uint64(v))
	}
	for _, v := range g.outW {
		w64(math.Float64bits(v))
	}
	if g.directed {
		for _, v := range g.inIndex {
			w64(uint64(v))
		}
		for _, v := range g.inTo {
			w64(uint64(v))
		}
		for _, v := range g.inW {
			w64(math.Float64bits(v))
		}
	}
	w64(uint64(len(g.labels)))
	for _, v := range g.labels {
		w64(uint64(uint32(v)))
	}
	return h.Sum64()
}
