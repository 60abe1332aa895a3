// Package systems expresses the paper's competitor systems as
// configurations of the one engine, the same methodology as §VI: the
// systems differ exactly in their parallel model (BSP / AP / AAP / GAP /
// switching), programming model (graph-centric vs vertex-centric) and,
// where the paper had to port applications by hand, in the application
// variant (the naive symmetric coloring of the synchronous vertex-centric
// systems).
package systems

import (
	"fmt"

	"argan/internal/adapt"
	"argan/internal/core"
	"argan/internal/gap"
)

// System identifies one of the compared systems.
type System struct {
	// Name as used in the paper's figures.
	Name string
	// Mode is the parallel model the system runs under.
	Mode gap.Mode
	// Adapt is the granularity policy (Argan only).
	Adapt adapt.Policy
	// NaiveColor marks systems whose greedy coloring is the symmetric
	// vertex program that oscillates under synchronous execution
	// (GraphLab_sync and PowerSwitch, per Fig. 5's "NA").
	NaiveColor bool
	// Incremental marks systems whose programming model supports
	// re-convergence over evolving graphs from a retained fixpoint: the
	// graph-centric GRAPE family ships it as IncEval, and Argan's ACE
	// programs get it from their declared ace.Algebra (see
	// internal/algorithms' warm planners). The vertex-centric systems
	// compared here recompute from scratch after a mutation.
	Incremental bool
}

// The compared systems.
var (
	// Argan is the paper's system: GAP with GAwD granularity adjustment.
	Argan = System{Name: "Argan", Mode: gap.ModeGAP, Adapt: adapt.PolicyGAwD, Incremental: true}
	// Grape is graph-centric BSP (Fan et al., TODS'18).
	Grape = System{Name: "Grape", Mode: gap.ModeBSP, Incremental: true}
	// GrapePlus is graph-centric AAP (Fan et al., SIGMOD'18/TODS'20).
	GrapePlus = System{Name: "Grape+", Mode: gap.ModeAAP, Incremental: true}
	// GrapeStar is Grape+ restricted to plain AP (the paper's Grape*).
	GrapeStar = System{Name: "Grape*", Mode: gap.ModeAPGC, Incremental: true}
	// GraphLabSync is vertex-centric synchronous GraphLab/PowerGraph.
	GraphLabSync = System{Name: "GraphLab_sync", Mode: gap.ModeBSPVC, NaiveColor: true}
	// GraphLabAsync is vertex-centric asynchronous GraphLab.
	GraphLabAsync = System{Name: "GraphLab_async", Mode: gap.ModeAPVC}
	// PowerSwitch starts synchronous and switches to asynchronous on its
	// throughput heuristic (Xie et al., PPoPP'15).
	PowerSwitch = System{Name: "PowerSwitch", Mode: gap.ModePowerSwitch, NaiveColor: true}
	// Maiter is delta-based asynchronous vertex-centric (Zhang et al.).
	Maiter = System{Name: "Maiter", Mode: gap.ModeAPVC}
)

// All returns the systems in the order Fig. 5 lists them.
func All() []System {
	return []System{Argan, Grape, GrapePlus, GrapeStar, GraphLabSync, GraphLabAsync, PowerSwitch, Maiter}
}

// GrapeFamily returns the systems of the Fig. 6 parallel-model comparison.
func GrapeFamily() []System { return []System{Argan, GrapePlus, GrapeStar, Grape} }

// ByName resolves a system name.
func ByName(name string) (System, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("systems: unknown system %q", name)
}

// Config merges the system's parallel model into an environment config.
func (s System) Config(base gap.Config) gap.Config {
	base.Mode = s.Mode
	base.Adapt = s.Adapt
	return base
}

// Job returns the runnable job of an application under this system,
// selecting the system's application variant where relevant.
func (s System) Job(app string) (core.Job, error) {
	return core.JobFor(app, s.NaiveColor && app == "color")
}
