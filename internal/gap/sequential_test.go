package gap

import (
	"math"
	"testing"

	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
	"argan/internal/graph"
)

func TestRunSequentialMatchesReferences(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 300, M: 1800, Directed: true, Seed: 31, MaxW: 9, Labels: 8})

	dist, updates, err := RunSequential(g, algorithms.NewSSSP(), ace.Query{Source: 0})
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

	colors, _, err := RunSequential(g, algorithms.NewColor(), ace.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqColor(g) {
		if colors[v] != c {
			t.Fatalf("color[%d] = %d, want %d", v, colors[v], c)
		}
	}

	ranks, _, err := RunSequential(g, algorithms.NewPageRank(), ace.Query{Eps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range algorithms.SeqPageRank(g, 1e-4) {
		if math.Abs(ranks[v]-r) > 0.02*(r+1) {
			t.Fatalf("pr[%d] = %v, want ~%v", v, ranks[v], r)
		}
	}

	gu := graph.PowerLaw(graph.GenConfig{N: 200, M: 1400, Directed: false, Seed: 32})
	core, _, err := RunSequential(gu, algorithms.NewCore(), ace.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqCore(gu) {
		if core[v] != c {
			t.Fatalf("core[%d] = %d, want %d", v, core[v], c)
		}
	}

	pat := algorithms.RandomPattern(g, 4, 5, 5)
	sim, _, err := RunSequential(g, algorithms.NewSim(), ace.Query{Pattern: pat})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range algorithms.SeqSim(g, pat) {
		if sim[v] != m {
			t.Fatalf("sim[%d] = %b, want %b", v, sim[v], m)
		}
	}
}

// TestSimMatchesSequentialRunner is the §IV correctness property for the
// parallel engine: ρ_A under RunSim returns what A returns under
// RunSequential.
func TestSimMatchesSequentialRunner(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 250, M: 1500, Directed: true, Seed: 33, MaxW: 7})
	want, _, err := RunSequential(g, algorithms.NewSSSP(), ace.Query{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0},
		Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Converged {
		t.Fatal("parallel run did not converge")
	}
	for v := range want {
		if want[v] != res.Values[v] {
			t.Fatalf("vertex %d: sequential %v != parallel %v", v, want[v], res.Values[v])
		}
	}
}

// noFixpoint re-activates its vertex on every update, so the active set
// never drains.
type noFixpoint struct{ algorithms.BFS }

func (p *noFixpoint) Update(ctx *ace.Ctx[int32], l uint32) { ctx.Activate(l) }

func TestRunSequentialCapsNonConvergence(t *testing.T) {
	g := graph.Chain(6, false)
	_, updates, err := RunSequential(g, func() ace.Program[int32] { return &noFixpoint{} }, ace.Query{})
	if err == nil {
		t.Fatal("want a non-convergence error")
	}
	if want := int64(2000*(6+1)) + 1; updates != want {
		t.Fatalf("gave up after %d updates, want %d", updates, want)
	}
}
