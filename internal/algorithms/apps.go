package algorithms

import (
	"fmt"
	"math"
	"strings"

	"argan/internal/ace"
	"argan/internal/graph"
)

// LiveApp is one row of the live-app table: everything a caller needs to
// run an application under the live driver and judge its answer — the
// program, its sequential reference, how the two compare, how a retained
// fixpoint is carried across an edge mutation, and what a client sees of the
// result. Callers reach a row through DispatchLive, which hands it over at
// its value type V.
type LiveApp[V any] struct {
	Name    string
	Factory ace.Factory[V]
	// TakesSource marks traversal queries, whose Query.Source must name a
	// vertex of the graph (see CheckSource).
	TakesSource bool
	// Ref is the sequential reference, expressed in the engine's value
	// domain so that got and want compare position by position.
	Ref func(g *graph.Graph, q ace.Query) []V
	// Equal is the comparison relation between an engine value and the
	// reference's.
	Equal func(got, want V) bool
	// Warm plans the warm start on newG from the fixpoint (raw Ψ and output
	// values, gap.Result's Psi/Values) converged on oldG; touched lists every
	// vertex whose adjacency differs between the two.
	Warm func(oldG, newG *graph.Graph, touched []graph.VID, psi, values []V, q ace.Query) *ace.WarmState[V]
	// Num projects a value onto the result checksum ("unreached" counts 0).
	Num func(V) float64
}

func exact[V comparable](got, want V) bool { return got == want }

// liveApps is the table. Each row is a *LiveApp[V] for its own V.
var liveApps = []interface{ name() string }{
	&LiveApp[float64]{
		Name: "sssp", Factory: NewSSSP(), TakesSource: true,
		Ref:   func(g *graph.Graph, q ace.Query) []float64 { return SeqSSSP(g, q.Source) },
		Equal: exact[float64],
		Warm: func(oldG, newG *graph.Graph, touched []graph.VID, _, dist []float64, q ace.Query) *ace.WarmState[float64] {
			return WarmSSSP(oldG, newG, touched, dist, q.Source)
		},
		Num: func(d float64) float64 {
			if math.IsInf(d, 1) {
				return 0
			}
			return d
		},
	},
	&LiveApp[int32]{
		Name: "bfs", Factory: NewBFS(), TakesSource: true,
		Ref:   func(g *graph.Graph, q ace.Query) []int32 { return seqHops(g, q.Source) },
		Equal: exact[int32],
		Warm: func(oldG, newG *graph.Graph, touched []graph.VID, _, hops []int32, q ace.Query) *ace.WarmState[int32] {
			return WarmBFS(oldG, newG, touched, hops, q.Source)
		},
		Num: func(h int32) float64 {
			if h == bfsInf {
				return 0
			}
			return float64(h)
		},
	},
	&LiveApp[uint32]{
		Name: "wcc", Factory: NewWCC(),
		Ref:   func(g *graph.Graph, _ ace.Query) []uint32 { return SeqWCC(g) },
		Equal: exact[uint32],
		Warm: func(oldG, newG *graph.Graph, touched []graph.VID, _, labels []uint32, _ ace.Query) *ace.WarmState[uint32] {
			return WarmWCC(oldG, newG, touched, labels)
		},
		Num: func(l uint32) float64 { return float64(l) },
	},
	&LiveApp[float64]{
		Name: "pr", Factory: NewPageRank(),
		Ref: func(g *graph.Graph, q ace.Query) []float64 { return SeqPageRank(g, q.Eps) },
		// Parked sub-eps deltas depend on execution order, so ranks
		// legitimately differ within ~eps of each other.
		Equal: func(got, want float64) bool { return math.Abs(got-want) <= 0.02*(want+1) },
		Warm: func(oldG, newG *graph.Graph, touched []graph.VID, psi, ranks []float64, q ace.Query) *ace.WarmState[float64] {
			return WarmPageRank(oldG, newG, touched, psi, ranks, q.Eps)
		},
		Num: func(r float64) float64 { return r },
	},
}

// DispatchLive is the one dispatch on a live app's name: it finds the row
// and calls the callback of the row's value type with it. Callers pass the
// same generic function instantiated three ways. An unknown name is
// CheckLiveApp's error.
func DispatchLive[R any](name string,
	f64 func(*LiveApp[float64]) (R, error),
	i32 func(*LiveApp[int32]) (R, error),
	u32 func(*LiveApp[uint32]) (R, error)) (R, error) {
	for _, row := range liveApps {
		if row.name() != name {
			continue
		}
		switch a := row.(type) {
		case *LiveApp[float64]:
			return f64(a)
		case *LiveApp[int32]:
			return i32(a)
		case *LiveApp[uint32]:
			return u32(a)
		}
	}
	var zero R
	return zero, CheckLiveApp(name)
}

func (a *LiveApp[V]) name() string { return a.Name }

// LiveAppNames lists the table's apps in row order.
func LiveAppNames() []string {
	names := make([]string, len(liveApps))
	for i, row := range liveApps {
		names[i] = row.name()
	}
	return names
}

// CheckLiveApp returns nil when name is in the table, else the error every
// caller reports for an app the live driver does not run.
func CheckLiveApp(name string) error {
	names := LiveAppNames()
	for _, n := range names {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("app %q does not run under the live driver (want %s)", name, strings.Join(names, ", "))
}

// CheckSource rejects a query source that is not a vertex of an n-vertex
// graph, for the apps that take one. source is the caller's untruncated
// integer: a negative or oversized value would otherwise wrap in graph.VID
// and index out of range inside the reference or the planner.
func (a *LiveApp[V]) CheckSource(source, n int) error {
	if a.TakesSource && (source < 0 || source >= n) {
		return fmt.Errorf("%s: source %d outside [0, %d)", a.Name, source, n)
	}
	return nil
}

// Wrong counts the positions where got differs from the reference want.
func (a *LiveApp[V]) Wrong(got, want []V) int {
	wrong := 0
	for i := range want {
		if !a.Equal(got[i], want[i]) {
			wrong++
		}
	}
	return wrong
}

// Checksum sums the values' checksum projections.
func (a *LiveApp[V]) Checksum(values []V) float64 {
	var sum float64
	for _, v := range values {
		sum += a.Num(v)
	}
	return sum
}
