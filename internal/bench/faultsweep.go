package bench

import (
	"fmt"
	"math"

	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/graph"
)

// FaultSweep measures what failures cost the GAP runtime: SSSP over the LJ
// stand-in, fault-free first (the baseline and the reference answers),
// then under crash-and-recover plans of increasing severity and under
// lossy/duplicating/reordering links. Crashed workers come back by
// localized recovery (each worker checkpoints once per CheckpointEvery; the
// victim alone restores and replays its peers' logs). Every faulty run must
// still reach the fault-free fixpoint — the sweep reports the
// response-time overhead, the fault-handling cost T_f (checkpoints,
// restores and replayed h_in), and the recovery accounting. All runs use
// the deterministic sim driver, so the table is byte-reproducible.
func FaultSweep(o Options) error {
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
	q := queryFor("sssp", g, 0)

	baseCfg := env.DefaultConfig()
	base, err := gap.RunSim(frags, algorithms.NewSSSP(), q, baseCfg)
	if err != nil {
		return err
	}
	bm := base.Metrics
	// Crash times as fractions of the fault-free response; restart delay is
	// 5% of it so recovery latency stays in proportion at every scale.
	crashAt := func(frac float64) string {
		return fmt.Sprintf("crash=1@%.0f+%.0f", bm.RespTime*frac, bm.RespTime*0.05+20)
	}
	plans := []struct {
		name string
		spec string
	}{
		{"fault-free", ""},
		{"crash early (10%)", crashAt(0.10)},
		{"crash mid (50%)", crashAt(0.50)},
		{"crash late (80%)", crashAt(0.80)},
		{"two crashes", crashAt(0.25) + "; " + fmt.Sprintf("crash=3@%.0f+%.0f", bm.RespTime*0.6, bm.RespTime*0.05+20)},
		{"drop 5%", "seed=7; drop=0.05"},
		{"dup+reorder 5%", "seed=7; dup=0.05; reorder=0.05"},
		{"full chaos", crashAt(0.4) + "; seed=7; drop=0.03; dup=0.02; reorder=0.02"},
	}

	fmt.Fprintf(o.Out, "== faults: SSSP over LJ (n=%d) — cost of crash recovery and link faults ==\n", n)
	fmt.Fprintf(o.Out, "%-20s %12s %10s %12s %8s %6s %6s %6s\n",
		"plan", "resp", "vs clean", "T_f", "answers", "crash", "recov", "ckpts")
	for _, p := range plans {
		cfg := baseCfg
		if p.spec != "" {
			plan, err := fault.Parse(p.spec)
			if err != nil {
				return fmt.Errorf("faultsweep %q: %v", p.name, err)
			}
			cfg.Faults = plan
			cfg.FT = gap.FTConfig{CheckpointEvery: bm.RespTime / 8}
		}
		res, err := gap.RunSim(frags, algorithms.NewSSSP(), q, cfg)
		if err != nil {
			return err
		}
		m := res.Metrics
		exact := "exact"
		for v := range res.Values {
			if math.Abs(res.Values[v]-base.Values[v]) > 1e-9 {
				exact = "DIFF"
				break
			}
		}
		fmt.Fprintf(o.Out, "%-20s %12.0f %9.2fx %12.0f %8s %6d %6d %6d\n",
			p.name, m.RespTime, m.RespTime/bm.RespTime, m.TotalTf, exact,
			m.Crashes, m.Recoveries, m.Checkpoints)
	}
	return nil
}
