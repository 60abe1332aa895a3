package fixpoint

import (
	"math"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/partition"
)

func TestRunEqualsSequentialReferences(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 300, M: 1800, Directed: true, Seed: 31, MaxW: 9, Labels: 8})

	dist, updates, err := Run(g, algorithms.NewSSSP(), ace.Query{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if updates == 0 {
		t.Fatal("no updates recorded")
	}
	for v, d := range algorithms.SeqSSSP(g, 0) {
		if dist[v] != d {
			t.Fatalf("sssp[%d] = %v, want %v", v, dist[v], d)
		}
	}

	colors, _, err := Run(g, algorithms.NewColor(), ace.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqColor(g) {
		if colors[v] != c {
			t.Fatalf("color[%d] = %d, want %d", v, colors[v], c)
		}
	}

	ranks, _, err := Run(g, algorithms.NewPageRank(), ace.Query{Eps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range algorithms.SeqPageRank(g, 1e-4) {
		if math.Abs(ranks[v]-r) > 0.02*(r+1) {
			t.Fatalf("pr[%d] = %v, want ~%v", v, ranks[v], r)
		}
	}

	gu := graph.PowerLaw(graph.GenConfig{N: 200, M: 1400, Directed: false, Seed: 32})
	core, _, err := Run(gu, algorithms.NewCore(), ace.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqCore(gu) {
		if core[v] != c {
			t.Fatalf("core[%d] = %d, want %d", v, core[v], c)
		}
	}

	pat := algorithms.RandomPattern(g, 4, 5, 5)
	sim, _, err := Run(g, algorithms.NewSim(), ace.Query{Pattern: pat})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range algorithms.SeqSim(g, pat) {
		if sim[v] != m {
			t.Fatalf("sim[%d] = %b, want %b", v, sim[v], m)
		}
	}
}

func TestVerifyPasses(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 250, M: 1500, Directed: true, Seed: 33, MaxW: 7})
	frags, err := partition.Partition(g, partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = Verify(g, frags, algorithms.NewSSSP(), ace.Query{Source: 0},
		gap.Config{Mode: gap.ModeGAP},
		func(a, b float64) bool { return a == b })
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsMismatch(t *testing.T) {
	g := graph.Chain(6, true)
	frags, err := partition.Partition(g, partition.Hash{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = Verify(g, frags, algorithms.NewSSSP(), ace.Query{Source: 0},
		gap.Config{Mode: gap.ModeGAP},
		func(a, b float64) bool { return false }) // everything "differs"
	if err == nil {
		t.Fatal("want mismatch error")
	}
}
