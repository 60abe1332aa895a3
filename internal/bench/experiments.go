package bench

import (
	"fmt"
	"math"

	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/systems"
	"argan/internal/ticksim"
)

// Table1 prints the tick-level SSSP traces of the running example under the
// four model combinations, next to the paper's reported totals.
func Table1(o Options) error {
	o = o.withDefaults()
	ex := ticksim.PaperExample()
	fmt.Fprintln(o.Out, "== Table I: SSSP from v1 under different models (reconstructed example) ==")
	paper := map[ticksim.Model]int{ticksim.BSPGC: 19, ticksim.AAPGC: 17, ticksim.APVC: 13, ticksim.GAPACE: 12}
	for _, m := range []ticksim.Model{ticksim.BSPGC, ticksim.AAPGC, ticksim.APVC, ticksim.GAPACE} {
		tr := ticksim.Run(ex, m, 2)
		fmt.Fprint(o.Out, tr.Render())
		fmt.Fprintf(o.Out, "  paper reports %d ticks on its (unavailable) Figure-1 graph\n", paper[m])
	}
	// Example 3's granularity-sensitivity claim: η = 2 is the sweet spot.
	fmt.Fprintf(o.Out, "GAP & ACE under different granularity bounds:")
	for _, eta := range []int{1, 2, 3, 8} {
		fmt.Fprintf(o.Out, "  eta=%d: %d ticks", eta, ticksim.Run(ex, ticksim.GAPACE, eta).Ticks)
	}
	fmt.Fprintln(o.Out)
	return nil
}

// fig4Setup prepares the §VI-A setting: SSSP over the LJ stand-in.
func fig4Setup(o Options) (*graph.Graph, []*graph.Fragment, ace.Query, core.Env, error) {
	g, err := graph.LoadDataset("LJ", o.Scale)
	if err != nil {
		return nil, nil, ace.Query{}, core.Env{}, err
	}
	n := 16
	if o.Workers != nil {
		n = o.Workers[len(o.Workers)-1]
	}
	env := core.Env{Workers: n, Hetero: o.Hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return nil, nil, ace.Query{}, core.Env{}, err
	}
	return g, frags, ace.Query{Source: pickSource(g)}, env, nil
}

// Fig4a sweeps GAwD's discretization parameter k (paper: flat plateau for
// 4 ≤ k ≤ 10³, a small penalty at k = 2, blow-up beyond 10⁵).
func Fig4a(o Options) error {
	o = o.withDefaults()
	_, frags, q, env, err := fig4Setup(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "== fig4a: SSSP response time vs GAwD parameter k (LJ, n=%d) ==\n", env.Workers)
	fmt.Fprintf(o.Out, "%-12s %14s %14s\n", "k", "resp", "T_a")
	for _, k := range []int{2, 4, 16, 1000, 100000, 10000000} {
		cfg := env.DefaultConfig()
		cfg.K = k
		res, err := gap.RunSim(frags, algorithms.NewSSSP(), q, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-12d %14.0f %14.0f\n", k, res.Metrics.RespTime, res.Metrics.TotalTa)
	}
	return nil
}

// Fig4b compares the tuner's staleness estimate (fixpoint substituted by
// x^{2η}, Eq. 6) against the real staleness computed from the precomputed
// fixpoint (Eq. 5), reporting the correlation coefficient.
func Fig4b(o Options) error {
	o = o.withDefaults()
	g, frags, q, env, err := fig4Setup(o)
	if err != nil {
		return err
	}
	truth := algorithms.SeqSSSP(g, q.Source)
	cfg := env.DefaultConfig()
	res, err := gap.RunSimTruth(frags, algorithms.NewSSSP(), q, cfg, truth)
	if err != nil {
		return err
	}
	samples := res.Metrics.TwSamples
	fmt.Fprintf(o.Out, "== fig4b: estimated T_w vs real T_w* (%d samples) ==\n", len(samples))
	under := 0
	var sx, sy, sxx, syy, sxy float64
	for _, s := range samples {
		if s.Est <= s.Real+1e-9 {
			under++
		}
		sx += s.Est
		sy += s.Real
		sxx += s.Est * s.Est
		syy += s.Real * s.Real
		sxy += s.Est * s.Real
	}
	k := float64(len(samples))
	var corr float64
	if k > 1 {
		den := math.Sqrt(k*sxx-sx*sx) * math.Sqrt(k*syy-sy*sy)
		if den > 0 {
			corr = (k*sxy - sx*sy) / den
		}
	}
	for i, s := range samples {
		if i >= 10 {
			fmt.Fprintf(o.Out, "  ... (%d more)\n", len(samples)-10)
			break
		}
		fmt.Fprintf(o.Out, "  est=%12.1f  real=%12.1f\n", s.Est, s.Real)
	}
	fmt.Fprintf(o.Out, "T_w <= T_w* in %d/%d samples; correlation coefficient = %.2f (paper: 0.79)\n",
		under, len(samples), corr)
	return nil
}

// Fig4c prints the response-time composition of GAwD, GA and the fixed
// granularity baselines FG+ (η = ∞) and FG- (η = 0).
func Fig4c(o Options) error {
	o = o.withDefaults()
	_, frags, q, env, err := fig4Setup(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "== fig4c: composition of response time (SSSP, LJ, n=%d) ==\n", env.Workers)
	fmt.Fprintf(o.Out, "%-8s %12s %12s %12s %12s %8s %8s\n", "variant", "resp", "T_w", "T_c", "T_a", "phi", "rounds")
	rows := []struct {
		name string
		cfg  func() gap.Config
	}{
		{"GAwD", func() gap.Config { return env.DefaultConfig() }},
		{"GA", func() gap.Config { c := env.DefaultConfig(); c.Adapt = adapt.PolicyGA; return c }},
		{"FG+", func() gap.Config {
			c := env.Config(gap.ModeGAP, adapt.PolicyFixed)
			c.Eta0 = math.Inf(1)
			return c
		}},
		{"FG-", func() gap.Config { c := env.Config(gap.ModeGAP, adapt.PolicyFixed); c.Eta0 = 0; return c }},
	}
	for _, r := range rows {
		res, err := gap.RunSim(frags, algorithms.NewSSSP(), q, r.cfg())
		if err != nil {
			return err
		}
		m := res.Metrics
		fmt.Fprintf(o.Out, "%-8s %12.0f %12.0f %12.0f %12.0f %7.1f%% %8d\n",
			r.name, m.RespTime, m.TotalTw, m.TotalTc, m.TotalTa, 100*m.Phi, m.Rounds)
	}
	return nil
}

// Fig5 compares every system on every application over the TW stand-in,
// marking non-convergent runs NA as the paper does for Color under
// GraphLab_sync and PowerSwitch.
func Fig5(o Options) error {
	o = o.withDefaults()
	g, err := graph.LoadDataset("TW", o.Scale)
	if err != nil {
		return err
	}
	n := 16
	if o.Workers != nil {
		n = o.Workers[len(o.Workers)-1]
	}
	fmt.Fprintf(o.Out, "== fig5: all systems over TW (|V|=%d, arcs=%d, n=%d) — response time ==\n",
		g.NumVertices(), g.NumEdges(), n)
	fmt.Fprintf(o.Out, "%-16s", "system")
	for _, app := range algorithms.PaperAppNames() {
		fmt.Fprintf(o.Out, "%12s", app)
	}
	fmt.Fprintln(o.Out)
	best := map[string]float64{}
	argan := map[string]float64{}
	for _, sys := range systems.All() {
		fmt.Fprintf(o.Out, "%-16s", sys.Name)
		for _, app := range algorithms.PaperAppNames() {
			resp, _, ok, err := runPoint(o, sys, app, g, n)
			if err != nil {
				return err
			}
			if !ok {
				fmt.Fprintf(o.Out, "%12s", "NA")
				continue
			}
			fmt.Fprintf(o.Out, "%12.0f", resp)
			if sys.Name == "Argan" {
				argan[app] = resp
			} else if b, has := best[app]; !has || resp < b {
				best[app] = resp
			}
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "Argan vs best competitor:")
	for _, app := range algorithms.PaperAppNames() {
		if argan[app] > 0 && best[app] > 0 {
			fmt.Fprintf(o.Out, "  %s %.0f%% faster", app, 100*(best[app]-argan[app])/argan[app])
		}
	}
	fmt.Fprintln(o.Out)
	return nil
}

// Fig6l is the scalability study: Argan at fixed n over synthetic
// power-law graphs of growing size |G| = |V| + |E|.
func Fig6l(o Options) error {
	o = o.withDefaults()
	n := 16
	if o.Workers != nil {
		n = o.Workers[len(o.Workers)-1]
	}
	baseV := int(12000 * o.Scale * 10)
	if baseV < 2000 {
		baseV = 2000
	}
	fmt.Fprintf(o.Out, "== fig6l: Argan scalability, n=%d, power-law alpha=2.5, |G| swept x5 ==\n", n)
	fmt.Fprintf(o.Out, "%-12s", "|G|")
	apps := algorithms.PaperAppNames()
	for _, app := range apps {
		fmt.Fprintf(o.Out, "%12s", app)
	}
	fmt.Fprintln(o.Out)
	var firstG, lastG int64
	first := map[string]float64{}
	last := map[string]float64{}
	for _, mul := range []int{1, 2, 3, 5} {
		nv := baseV * mul
		g := graph.PowerLaw(graph.GenConfig{
			N: nv, M: 12 * nv, Directed: true, Alpha: 2.5, Seed: 7, MaxW: 100, Labels: 16,
		})
		fmt.Fprintf(o.Out, "%-12d", g.Size())
		for _, app := range apps {
			resp, _, ok, err := runPoint(o, systems.Argan, app, g, n)
			if err != nil {
				return err
			}
			if !ok {
				fmt.Fprintf(o.Out, "%12s", "NA")
				continue
			}
			fmt.Fprintf(o.Out, "%12.0f", resp)
			if mul == 1 {
				first[app] = resp
				firstG = g.Size()
			}
			if mul == 5 {
				last[app] = resp
				lastG = g.Size()
			}
		}
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "growth when |G| x%.1f:", float64(lastG)/float64(firstG))
	for _, app := range apps {
		if first[app] > 0 {
			fmt.Fprintf(o.Out, "  %s %.1fx", app, last[app]/first[app])
		}
	}
	fmt.Fprintln(o.Out)
	return nil
}
