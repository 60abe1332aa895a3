package core

import (
	"math"
	"testing"

	"argan/internal/algorithms"
	"argan/internal/gap"
	"argan/internal/graph"
)

func testGraph() *graph.Graph {
	return graph.PowerLaw(graph.GenConfig{N: 400, M: 2400, Directed: true, Seed: 41, MaxW: 12, Labels: 8})
}

func TestEnvDefaults(t *testing.T) {
	var e Env
	frags, err := e.Fragments(testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 16 {
		t.Fatalf("default workers = %d, want 16", len(frags))
	}
	cfg := e.DefaultConfig()
	if cfg.Mode != gap.ModeGAP {
		t.Fatal("default mode must be GAP")
	}
}

func TestTypedRunners(t *testing.T) {
	g := testGraph()
	env := Env{Workers: 4}
	cfg := env.DefaultConfig()

	sssp, err := SSSP(g, 0, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range algorithms.SeqSSSP(g, 0) {
		if sssp.Values[v] != d {
			t.Fatalf("sssp[%d] = %v, want %v", v, sssp.Values[v], d)
		}
	}

	bfs, err := BFS(g, 0, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range algorithms.SeqBFS(g, 0) {
		if d >= 0 && bfs.Values[v] != d {
			t.Fatalf("bfs[%d] = %d, want %d", v, bfs.Values[v], d)
		}
	}

	wcc, err := WCC(g, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqWCC(g) {
		if wcc.Values[v] != c {
			t.Fatalf("wcc[%d] = %d, want %d", v, wcc.Values[v], c)
		}
	}

	col, err := Color(g, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqColor(g) {
		if col.Values[v] != c {
			t.Fatalf("color[%d] = %d, want %d", v, col.Values[v], c)
		}
	}

	pr, err := PageRank(g, 1e-4, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range algorithms.SeqPageRank(g, 1e-4) {
		if math.Abs(pr.Values[v]-r) > 0.02*(r+1) {
			t.Fatalf("pr[%d] = %v, want ~%v", v, pr.Values[v], r)
		}
	}

	gu := graph.PowerLaw(graph.GenConfig{N: 300, M: 2100, Directed: false, Seed: 42})
	cd, err := CoreDecomposition(gu, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range algorithms.SeqCore(gu) {
		if cd.Values[v] != c {
			t.Fatalf("core[%d] = %d, want %d", v, cd.Values[v], c)
		}
	}

	pat := algorithms.RandomPattern(g, 4, 5, 3)
	sim, err := Simulation(g, pat, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range algorithms.SeqSim(g, pat) {
		if sim.Values[v] != m {
			t.Fatalf("sim[%d] = %b, want %b", v, sim.Values[v], m)
		}
	}
}

func TestJobFor(t *testing.T) {
	g := testGraph()
	env := Env{Workers: 3}
	frags, err := env.Fragments(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range algorithms.AppNames() {
		job, err := JobFor(app, false)
		if err != nil {
			t.Fatal(err)
		}
		q := job.Reads.Query(func() graph.VID { return 0 }, 1e-3,
			func() *graph.Graph { return algorithms.RandomPattern(g, 4, 5, 1) })
		out, err := job.Run(frags, q, env.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if !out.Converged || out.Updates == 0 {
			t.Fatalf("%s: bad metrics %+v", app, out.Metrics)
		}
		if out.Summary(3) == "" {
			t.Fatalf("%s: empty summary", app)
		}
	}
	if _, err := JobFor("nope", false); err == nil {
		t.Fatal("want unknown-app error")
	}
	// The naive color variant is a distinct program.
	j, err := JobFor("color", true)
	if err != nil || j.Run == nil {
		t.Fatal("naive color job missing")
	}
}
