package gap

import (
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/graph"
	"argan/internal/partition"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return graph.PowerLaw(graph.GenConfig{N: 4000, M: 24_000, Directed: true, Seed: 21, MaxW: 20})
}

func benchFrags(b *testing.B, g *graph.Graph, n int) []*graph.Fragment {
	b.Helper()
	fs, err := partition.Partition(g, partition.Hash{}, n)
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkFragmentBuild measures partitioning a mid-size graph into four
// fragments — the fixed setup cost every live run pays.
func BenchmarkFragmentBuild(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Partition(g, partition.Hash{}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushIngest measures the flush → transport → h_in round trip
// between two workers.
func BenchmarkFlushIngest(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 2)
	pool := &batchPool[float64]{}
	s0 := newLiveState(0, fs[0], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, pool)
	s1 := newLiveState(1, fs[1], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, pool)
	// Drain the InitialSync payloads so iterations start clean.
	for j := range s0.out {
		s0.takeOut(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint32(0); int(l) < s0.frag.NumOwned(); l++ {
			for _, r := range s0.frag.ReplicasOut(l) {
				s0.enqueue(int(r), l, s0.frag.Global(l), 0.5)
			}
		}
		msgs := s0.takeOut(1)
		if msgs == nil {
			b.Fatal("no cross-fragment traffic; enlarge the bench graph")
		}
		s1.ingest(msgs)
		pool.put(msgs)
	}
}

// BenchmarkRunLivePageRank is the end-to-end async live driver on four
// workers.
func BenchmarkRunLivePageRank(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 4)
	cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
