package graph_test

import (
	"testing"

	"argan/internal/graph"
	"argan/internal/partition"
)

// The write-path kernels at the service benchmark's size: LJ@0.5 (24 000
// vertices, 330 k arcs) split over 2 hash-owned workers, as `arganrun serve
// -preload LJ@0.5 -max-workers 2` holds it.

var benchSink any

func benchLJ(b *testing.B) (*graph.Graph, []uint16) {
	b.Helper()
	g := graph.MustDataset("LJ", 0.5)
	return g, partition.Hash{}.Assign(g, 2)
}

// benchPoint is churn-point's batch shape: one delete and one insert whose
// sources lie in different partitions, so both fragments are re-derived.
func benchPoint(b *testing.B, g *graph.Graph, owner []uint16) graph.MutationBatch {
	b.Helper()
	for u := 0; u < g.NumVertices(); u++ {
		for v := u + 1; v < g.NumVertices(); v++ {
			if owner[u] != owner[v] && g.OutDegree(graph.VID(u)) > 0 && !g.HasEdge(graph.VID(v), graph.VID(u)) {
				return graph.MutationBatch{
					Deletes: []graph.Edge{{Src: graph.VID(u), Dst: g.OutNeighbors(graph.VID(u))[0]}},
					Inserts: []graph.Edge{{Src: graph.VID(v), Dst: graph.VID(u), W: 3}},
				}
			}
		}
	}
	b.Fatal("no cross-partition point batch")
	return graph.MutationBatch{}
}

func BenchmarkBuildFragments(b *testing.B) {
	g, owner := benchLJ(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frags, err := graph.BuildFragments(g, owner, 2)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = frags
	}
}

type benchBatch struct {
	name  string
	batch graph.MutationBatch
}

// benchBatches are the two write shapes of the service benchmark.
func benchBatches(b *testing.B, g *graph.Graph, owner []uint16) []benchBatch {
	return []benchBatch{
		{"Point", benchPoint(b, g, owner)},
		// churn-bulk's shape: 1 % of the arcs, half deletes, half inserts.
		{"Bulk", stormBatch(g, 1, g.NumEdges()/100)},
	}
}

func BenchmarkUpdateFragments(b *testing.B) {
	g, owner := benchLJ(b)
	frags, err := graph.BuildFragments(g, owner, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range benchBatches(b, g, owner) {
		ng, _, err := g.ApplyMutations(bc.batch)
		if err != nil {
			b.Fatal(err)
		}
		touched := bc.batch.Endpoints()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nf, dirty, err := graph.UpdateFragments(frags, ng, touched)
				if err != nil || len(dirty) != 2 {
					b.Fatalf("re-derived %v, err %v", dirty, err)
				}
				benchSink = nf
			}
		})
	}
}

func BenchmarkApplyMutations(b *testing.B) {
	g, owner := benchLJ(b)
	for _, bc := range benchBatches(b, g, owner) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ng, _, err := g.ApplyMutations(bc.batch)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = ng
			}
		})
	}
}

// The integrity check at the same size: the full re-hash every pin and mutate
// pays (CheckFrozen), and what a frozen parent's fingerprint saves a point
// write (ApplyMutations + Freeze against BenchmarkApplyMutations/Point alone).

func BenchmarkFingerprint(b *testing.B) {
	g, _ := benchLJ(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = g.Fingerprint()
	}
}

func BenchmarkCheckFrozen(b *testing.B) {
	g, _ := benchLJ(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.CheckFrozen(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreezeAfterPoint(b *testing.B) {
	g, owner := benchLJ(b)
	batch := benchPoint(b, g, owner)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ng, _, err := g.ApplyMutations(batch)
		if err != nil {
			b.Fatal(err)
		}
		ng.Freeze()
		benchSink = ng
	}
}
