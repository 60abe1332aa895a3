package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"argan/internal/graph"
)

// testScale keeps the generator's datasets small (LJ: 2400 vertices).
const testScale = 0.05

// plan is the materialized head of a generator's output: what a run with
// this seed sends, as far as rounds rounds.
type plan struct {
	Sources map[string]int `json:"sources"`
	Batches []Batch        `json:"batches"`
}

func buildPlan(t *testing.T, w Workload, seed int64, rounds int) plan {
	t.Helper()
	g, err := NewGenerator(w, seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	p := plan{Sources: g.source}
	n := rounds
	if !w.churn() {
		n = historyMutates
	}
	for i := 0; i < n; i++ {
		var b Batch
		if w.churn() {
			b, err = g.NextRound(w.Datasets[0])
		} else {
			b, err = g.NextHistory(i)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Batches = append(p.Batches, b)
	}
	return p
}

func planJSON(t *testing.T, w Workload, seed int64, rounds int) []byte {
	t.Helper()
	blob, err := json.Marshal(buildPlan(t, w, seed, rounds))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := planJSON(t, w, 7, 6), planJSON(t, w, 7, 6), planJSON(t, w, 8, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: plans from seeds 7 and 8 are identical", w.Name)
		}
	}
}

// Every batch must apply cleanly, in order, to the dataset it names: deletes
// name arcs that exist at that version, inserts arcs that do not, and the
// expect_version guard counts up from 0 per dataset.
func TestPlanBatchesApplyInOrder(t *testing.T) {
	for _, w := range workloads {
		p := buildPlan(t, w, 3, 6)
		cur := map[string]*graph.Graph{}
		for _, d := range w.Datasets {
			cur[d] = graph.MustDataset(d, testScale)
		}
		for i, b := range p.Batches {
			g := cur[b.Dataset]
			if b.Expect != g.Version() {
				t.Fatalf("%s batch %d: expect_version %d, dataset at %d", w.Name, i, b.Expect, g.Version())
			}
			for _, e := range b.Inserts {
				if g.HasEdge(e.Src, e.Dst) {
					t.Errorf("%s batch %d inserts existing arc (%d,%d)", w.Name, i, e.Src, e.Dst)
				}
			}
			next, _, err := g.ApplyMutations(graph.MutationBatch{Inserts: b.Inserts, Deletes: b.Deletes})
			if err != nil {
				t.Fatalf("%s batch %d: %v", w.Name, i, err)
			}
			cur[b.Dataset] = next
		}
	}
}

func TestBatchSizes(t *testing.T) {
	point, _ := workloadByName("churn-point")
	bulk, _ := workloadByName("churn-bulk")
	g, err := NewGenerator(bulk, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	arcs := g.Shadow("LJ").NumEdges()
	b, err := g.NextRound("LJ")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(b.Deletes)+len(b.Inserts), arcs/100; got != want || len(b.Deletes) != want/2 {
		t.Errorf("bulk batch: %d deletes + %d inserts, want %d ops split in half", len(b.Deletes), len(b.Inserts), want)
	}

	// A point batch always reaches both of the server's partitions.
	g, err = NewGenerator(point, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	owner := g.frags["LJ"][0].OwnerOf
	for i := 0; i < 50; i++ {
		b, err := g.NextRound("LJ")
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Deletes) != 1 || len(b.Inserts) != 1 {
			t.Fatalf("point batch %d: %d deletes, %d inserts", i, len(b.Deletes), len(b.Inserts))
		}
		if owner(b.Deletes[0].Src) == owner(b.Inserts[0].Src) {
			t.Errorf("point batch %d touches only worker %d's partition", i, owner(b.Deletes[0].Src))
		}
	}
}

func TestSourceComesFromTheHighDegreePool(t *testing.T) {
	g := graph.MustDataset("LJ", testScale)
	// The pool's weakest member bounds every pick from below.
	degs := make([]int, g.NumVertices())
	for v := range degs {
		degs[v] = g.OutDegree(graph.VID(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	floor := degs[sourcePool-1]
	w, _ := workloadByName("cold-static")
	seen := map[int]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		gen, err := NewGenerator(w, seed, testScale)
		if err != nil {
			t.Fatal(err)
		}
		src := gen.Source("LJ")
		seen[src] = true
		if g.OutDegree(graph.VID(src)) < floor {
			t.Errorf("seed %d: source %d has out-degree %d, below the pool's floor %d", seed, src, g.OutDegree(graph.VID(src)), floor)
		}
	}
	if len(seen) < 10 {
		t.Errorf("40 seeds picked only %d distinct sources", len(seen))
	}
}
