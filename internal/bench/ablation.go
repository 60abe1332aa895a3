package bench

import (
	"fmt"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/gap"
	"argan/internal/graph"
)

// Ablation quantifies the contribution of each GAP design choice by
// disabling one at a time: rules R1 (eager forwarding to idle workers), R2
// (last-busy-worker ingestion), R3 (the granularity bound) and the
// adaptive tuner (η frozen at its initial value). This is the repository's
// extension of the paper's study — the paper motivates each rule (§II-B,
// Example 3) but does not isolate them.
func Ablation(o Options) error {
	o = o.withDefaults()
	g, err := graph.LoadDataset("LJ", o.Scale)
	if err != nil {
		return err
	}
	n := 16
	if o.Workers != nil {
		n = o.Workers[len(o.Workers)-1]
	}
	env := core.Env{Workers: n, Hetero: o.Hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return err
	}
	q := ace.Query{Source: pickSource(g)}

	variants := []struct {
		name string
		mut  func(*gap.Config)
	}{
		{"full GAP", func(*gap.Config) {}},
		{"-R1 (no eager fwd)", func(c *gap.Config) { c.DisableR1 = true }},
		{"-R2 (no last-busy ingest)", func(c *gap.Config) { c.DisableR2 = true }},
		{"-R3 (no granularity bound)", func(c *gap.Config) { c.DisableR3 = true }},
		{"-tuner (frozen eta0)", func(c *gap.Config) { c.Adapt = 0; /* PolicyFixed */ c.Eta0 = 1024 }},
		{"-R1-R2-R3", func(c *gap.Config) { c.DisableR1, c.DisableR2, c.DisableR3 = true, true, true }},
	}
	fmt.Fprintf(o.Out, "== ablation: SSSP over LJ (n=%d) — contribution of each GAP mechanism ==\n", n)
	fmt.Fprintf(o.Out, "%-28s %12s %10s %12s %12s %8s\n", "variant", "resp", "vs full", "T_w", "T_c", "rounds")
	var base float64
	for _, v := range variants {
		cfg := env.DefaultConfig()
		v.mut(&cfg)
		res, err := gap.RunSim(frags, algorithms.NewSSSP(), q, cfg)
		if err != nil {
			return err
		}
		m := res.Metrics
		if base == 0 {
			base = m.RespTime
		}
		fmt.Fprintf(o.Out, "%-28s %12.0f %9.2fx %12.0f %12.0f %8d\n",
			v.name, m.RespTime, m.RespTime/base, m.TotalTw, m.TotalTc, m.Rounds)
	}
	return nil
}
