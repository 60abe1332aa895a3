package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The graph fingerprint: the integrity check every pin, every write and every
// replayed WAL record pays, so it is built to stream the CSR at memory speed
// and to follow a mutation at the cost of the rows the mutation names.
//
// Each adjacency row hashes on its own (rowHash, seeded by CSR side and row
// id), the row hashes combine by wrapping addition, and the fingerprint is a
// finalised mix of the graph's shape, that sum and a hash of the labels.
// Addition commutes, so a row's contribution can be taken out and put back
// without visiting any other row: ApplyMutations hands a frozen parent's sum,
// minus the old hashes of the rows its batch names plus their new ones, to
// the child, and the child's Freeze hashes no row. Fingerprint and CheckFrozen
// never read a carried sum; they re-hash every row, so a wrong carry is found
// at the next check like any other mutation of a frozen graph.

// Odd 64-bit multipliers: the golden ratio and murmur3's two finaliser
// constants.
const (
	fpK0 = 0x9E3779B97F4A7C15
	fpK1 = 0xFF51AFD7ED558CCD
	fpK2 = 0xC4CEB9FE1A85EC53
)

// CSR sides, folded into every row's seed so that an out-row and an in-row
// with the same id and content hash apart.
const (
	sideOut = 0
	sideIn  = 1
)

// fmix64 is murmur3's finaliser, a bijection on uint64 in which every input
// bit reaches every output bit.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= fpK1
	h ^= h >> 33
	h *= fpK2
	h ^= h >> 33
	return h
}

// rowHash hashes one adjacency row, a word per step on each of two lanes that
// do not depend on each other: targets on one, weight bit patterns on the
// other. A lane step is xor, rotate, multiply — a bijection of the lane for a
// fixed word, the rotation carrying high bits down to where the next multiply
// spreads them. The seed holds the side, the row id and the row length, so
// equal lists in different rows, or on different sides, hash differently.
func rowHash(side uint64, v VID, to []VID, w []float64) uint64 {
	a := (uint64(v)<<1|side)*fpK0 + uint64(len(to))
	b := bits.RotateLeft64(a, 32) ^ fpK0
	w = w[:len(to)]
	for i, t := range to {
		a = bits.RotateLeft64(a^uint64(t), 27) * fpK1
		b = bits.RotateLeft64(b^math.Float64bits(w[i]), 31) * fpK2
	}
	return fmix64(a ^ bits.RotateLeft64(b, 32))
}

// rowsSum is the wrapping sum of rowHash over every row of one CSR side.
func rowsSum(side uint64, idx []int64, to []VID, w []float64) uint64 {
	var sum uint64
	for v := 0; v+1 < len(idx); v++ {
		lo, hi := idx[v], idx[v+1]
		if lo < 0 || hi < lo || hi > int64(len(to)) {
			// A damaged index cannot be sliced by. Its words still reach the
			// sum, so the check reports the damage instead of panicking on it.
			sum += fmix64(uint64(lo)*fpK1 ^ uint64(hi)*fpK2)
			continue
		}
		sum += rowHash(side, VID(v), to[lo:hi], w[lo:hi])
	}
	return sum
}

// hashRows is the wrapping sum of rowHash over every row: the out side, plus
// the in side when directed. It reads the arrays and trusts nothing carried.
func (g *Graph) hashRows() uint64 {
	sum := rowsSum(sideOut, g.outIndex, g.outTo, g.outW)
	if g.directed {
		sum += rowsSum(sideIn, g.inIndex, g.inTo, g.inW)
	}
	return sum
}

// labelHash hashes the label array, a word per step.
func (g *Graph) labelHash() uint64 {
	h := uint64(len(g.labels))
	for _, l := range g.labels {
		h = bits.RotateLeft64(h^uint64(uint32(l)), 27) * fpK1
	}
	return h
}

// fingerprintOf mixes the graph's shape and labels with the given row sum.
func (g *Graph) fingerprintOf(rowSum uint64) uint64 {
	shape := uint64(g.n) << 1
	if g.directed {
		shape |= 1
	}
	h := uint64(fpK0)
	for _, w := range [...]uint64{shape, uint64(len(g.outTo)), rowSum, g.labelHash()} {
		h = fmix64(h ^ w)
	}
	return h
}

// Fingerprint returns a 64-bit hash of the graph's entire structure: vertex
// count, directedness, arc count, every adjacency row (targets and weight bit
// patterns, out side and, when directed, in side) and the labels. It is
// always a from-scratch pass over the arrays — one sequential sweep, a few ms
// per million arcs — and never consults what Freeze or ApplyMutations stored.
// Two graphs with equal fingerprints are structurally identical for all
// practical purposes; a single flipped weight bit, a rewired arc, an arc moved
// between rows or a changed label changes it. The version is not part of it.
//
// This is the fingerprint WAL format 2 records. Format-1 logs recorded
// FingerprintV1.
func (g *Graph) Fingerprint() uint64 { return g.fingerprintOf(g.hashRows()) }

// Mutation-safety errors for frozen shared graphs. Both are returned
// wrapped with context; test with errors.Is.
var (
	// ErrFrozenMutated means a frozen graph's structure no longer matches
	// the fingerprint recorded at freeze time: some writer mutated shared
	// data through an aliasing accessor.
	ErrFrozenMutated = errors.New("graph: frozen graph was mutated")
	// ErrVersionMismatch means a graph version does not match the one the
	// caller (or the freeze stamp) expected: the dataset evolved underneath
	// an operation that pinned an older version.
	ErrVersionMismatch = errors.New("graph: version mismatch")
)

// Freeze marks the graph as shared read-only and records its fingerprint
// and version. Adjacency accessors alias internal storage, so immutability
// cannot be enforced by the type system; Freeze + CheckFrozen make
// violations detectable instead. Freezing twice is a no-op.
//
// A graph that ApplyMutations derived from a frozen parent arrives with its
// row sum already carried forward, and freezing it costs one pass over the
// labels (4 bytes a vertex, none when unlabeled); any other graph is hashed in
// full here. Either way the next CheckFrozen re-derives the fingerprint from
// the arrays, so a carry that went wrong fails there with ErrFrozenMutated.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	if !g.carried {
		g.rowSum, g.carried = g.hashRows(), true
	}
	g.fprint = g.fingerprintOf(g.rowSum)
	g.fver = g.version
	g.frozen = true
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// FrozenFingerprint returns the fingerprint recorded at freeze time without
// rehashing: the value the service logs with each acknowledged batch, and the
// one WAL replay compares a re-applied batch against (each replayed version
// is frozen at the cost of its batch; the full re-hash is CheckFrozen's, once
// at the end of recovery and at every pin after). ok is false for unfrozen
// graphs, whose stamp is meaningless.
func (g *Graph) FrozenFingerprint() (fp uint64, ok bool) {
	return g.fprint, g.frozen
}

// CheckFrozen re-validates a frozen graph and returns a typed error if it
// was mutated since Freeze (nil for unfrozen graphs): ErrVersionMismatch
// when the version counter moved — someone applied a mutation batch to the
// shared instance instead of the copy-on-write path — and ErrFrozenMutated
// when the structural fingerprint, recomputed in full, changed.
func (g *Graph) CheckFrozen() error {
	if !g.frozen {
		return nil
	}
	if g.version != g.fver {
		return fmt.Errorf("%w: frozen %v is at version %d, frozen at %d (mutations must go through ApplyMutations, which copies)",
			ErrVersionMismatch, g, g.version, g.fver)
	}
	if got := g.Fingerprint(); got != g.fprint {
		return fmt.Errorf("%w: %v fingerprint %#x, expected %#x (adjacency accessors alias internal storage and must be treated as read-only)",
			ErrFrozenMutated, g, got, g.fprint)
	}
	return nil
}
