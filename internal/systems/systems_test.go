package systems

import (
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/gap"
	"argan/internal/graph"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 || all[0].Name != "Argan" {
		t.Fatalf("registry wrong: %v", all)
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Fatalf("duplicate system %q", s.Name)
		}
		seen[s.Name] = true
		got, err := ByName(s.Name)
		if err != nil || got.Mode != s.Mode {
			t.Fatalf("ByName(%q) broken", s.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("want unknown-system error")
	}
	fam := GrapeFamily()
	if len(fam) != 4 || fam[0].Name != "Argan" || fam[3].Name != "Grape" {
		t.Fatalf("grape family wrong: %v", fam)
	}
}

func TestConfigMapping(t *testing.T) {
	base := gap.Config{Hetero: 0.5}
	cfg := Grape.Config(base)
	if cfg.Mode != gap.ModeBSP || cfg.Hetero != 0.5 {
		t.Fatalf("Grape config wrong: %+v", cfg)
	}
	if Argan.Config(base).Mode != gap.ModeGAP {
		t.Fatal("Argan must run GAP")
	}
}

func TestColorVariantSelection(t *testing.T) {
	g := graph.Uniform(graph.GenConfig{N: 120, M: 500, Directed: false, Seed: 51})
	env := core.Env{Workers: 3}
	frags, err := env.Fragments(g)
	if err != nil {
		t.Fatal(err)
	}
	// GraphLab_sync's symmetric coloring oscillates under its synchronous
	// model; Argan's id-priority coloring converges everywhere.
	for _, s := range []System{GraphLabSync, PowerSwitch} {
		job, err := s.Job("color")
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Config(env.DefaultConfig())
		cfg.MaxUpdatesPerVertex = 40
		m, err := job.Run(frags, ace.Query{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Converged {
			t.Fatalf("%s color should not converge", s.Name)
		}
	}
	job, err := Argan.Job("color")
	if err != nil {
		t.Fatal(err)
	}
	m, err := job.Run(frags, ace.Query{}, Argan.Config(env.DefaultConfig()))
	if err != nil || !m.Converged {
		t.Fatalf("Argan color must converge: %v %+v", err, m)
	}
}

// TestAllSystemsRunAllApps is the cross-product integration test behind
// Fig. 5: every system executes every application (Color NA cases aside).
func TestAllSystemsRunAllApps(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 250, M: 1500, Directed: true, Seed: 52, MaxW: 10, Labels: 8})
	env := core.Env{Workers: 4}
	frags, err := env.Fragments(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		for _, app := range algorithms.AppNames() {
			job, err := s.Job(app)
			if err != nil {
				t.Fatal(err)
			}
			q := job.Reads.Query(func() graph.VID { return 0 }, 1e-3, func() *graph.Graph { return graphPattern(g) })
			cfg := s.Config(env.DefaultConfig())
			cfg.MaxUpdatesPerVertex = 120
			m, err := job.Run(frags, q, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, app, err)
			}
			if app == "color" && s.NaiveColor {
				continue // NA expected
			}
			if !m.Converged {
				t.Fatalf("%s/%s did not converge", s.Name, app)
			}
		}
	}
}

func graphPattern(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(3, true)
	b.SetLabel(0, g.Label(0)).SetLabel(1, g.Label(1)).SetLabel(2, g.Label(2))
	b.AddEdge(0, 1).AddEdge(1, 2)
	return b.MustBuild()
}
