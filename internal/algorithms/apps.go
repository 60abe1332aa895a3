package algorithms

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"argan/internal/ace"
	"argan/internal/graph"
)

// App is one row of the application table: everything a caller needs to run
// an application and report its answer — the program, the query fields it
// reads and a summary of the answer. The rows the live driver runs also say
// how their answer is judged: the sequential reference, how the two compare,
// how a retained fixpoint is carried across an edge mutation, and what a
// client sees of the result. Callers reach a row through Dispatch (or
// DispatchLive), which hands it over at its value type V.
type App[V any] struct {
	Name    string
	Factory ace.Factory[V]
	// Naive, when set, is the variant the synchronous vertex-centric systems
	// run instead of Factory: the symmetric greedy coloring, which
	// oscillates there.
	Naive ace.Factory[V]
	// Reads is the set of query fields the program reads.
	Reads Reads
	// Paper marks the applications of the paper's evaluation (§VI).
	Paper bool
	// Summary renders a short account of an answer to q; k bounds the
	// vertices it lists.
	Summary func(values []V, q ace.Query, k int) string

	// The live columns follow; they are nil on the rows the live driver does
	// not run.

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

// Reads is a set of ace.Query fields.
type Reads uint8

const (
	// ReadsSource marks traversal queries, whose Query.Source must name a
	// vertex of the graph (see CheckSource).
	ReadsSource Reads = 1 << iota
	ReadsEps
	ReadsPattern
)

// Query assembles a query of the fields in r. The source and the pattern are
// asked for only when r holds them.
func (r Reads) Query(source func() graph.VID, eps float64, pattern func() *graph.Graph) ace.Query {
	var q ace.Query
	if r&ReadsSource != 0 {
		q.Source = source()
	}
	if r&ReadsEps != 0 {
		q.Eps = eps
	}
	if r&ReadsPattern != 0 {
		q.Pattern = pattern()
	}
	return q
}

// CheckSource rejects a query source that is not a vertex of an n-vertex
// graph when r reads one; app names the application in the error. source is
// the caller's untruncated integer: a negative or oversized value would
// otherwise wrap in graph.VID and index out of range inside the engine, the
// reference or the planner.
func (r Reads) CheckSource(app string, source, n int) error {
	if r&ReadsSource != 0 && (source < 0 || source >= n) {
		return fmt.Errorf("%s: source %d outside [0, %d)", app, source, n)
	}
	return nil
}

func exact[V comparable](got, want V) bool { return got == want }

// row is what the table knows of a row without its value type.
type row interface {
	name() string
	live() bool
	paper() bool
}

// apps is the table: the paper's applications in its order, with the other
// traversals after SSSP. Each row is an *App[V] for its own V.
var apps = []row{
	&App[float64]{
		Name: "sssp", Factory: NewSSSP(), Reads: ReadsSource, Paper: true, Summary: nearest,
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
	&App[float64]{Name: "bellman-ford", Factory: NewBellmanFord(), Reads: ReadsSource, Summary: nearest},
	&App[int32]{
		Name: "bfs", Factory: NewBFS(), Reads: ReadsSource,
		Summary: func(hops []int32, q ace.Query, _ int) string {
			reached, far := 0, int32(0)
			for _, h := range hops {
				if h != bfsInf {
					reached++
					far = max(far, h)
				}
			}
			return fmt.Sprintf("reached from %d: %d of %d vertices, the farthest %d hops away\n", q.Source, reached, len(hops), far)
		},
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
	&App[uint32]{
		Name: "wcc", Factory: NewWCC(),
		Summary: func(labels []uint32, _ ace.Query, _ int) string {
			size := map[uint32]int{}
			largest := 0
			for _, l := range labels {
				size[l]++
				largest = max(largest, size[l])
			}
			return fmt.Sprintf("weakly connected components: %d, the largest %d vertices\n", len(size), largest)
		},
		Ref:   func(g *graph.Graph, _ ace.Query) []uint32 { return SeqWCC(g) },
		Equal: exact[uint32],
		Warm: func(oldG, newG *graph.Graph, touched []graph.VID, _, labels []uint32, _ ace.Query) *ace.WarmState[uint32] {
			return WarmWCC(oldG, newG, touched, labels)
		},
		Num: func(l uint32) float64 { return float64(l) },
	},
	&App[int32]{
		Name: "color", Factory: NewColor(), Naive: NewNaiveColor(), Paper: true,
		Summary: func(colors []int32, _ ace.Query, _ int) string {
			return fmt.Sprintf("colors used: %d\n", maxOf(colors)+1)
		},
	},
	&App[float64]{
		Name: "pr", Factory: NewPageRank(), Reads: ReadsEps, Paper: true,
		Summary: func(ranks []float64, _ ace.Query, k int) string {
			type pair struct {
				v graph.VID
				r float64
			}
			ps := make([]pair, len(ranks))
			for v, r := range ranks {
				ps[v] = pair{graph.VID(v), r}
			}
			sort.Slice(ps, func(i, j int) bool { return ps[i].r > ps[j].r })
			var b strings.Builder
			fmt.Fprintf(&b, "top %d by PageRank:\n", k)
			for i := 0; i < k && i < len(ps); i++ {
				fmt.Fprintf(&b, "  v%-8d rank %.4f\n", ps[i].v, ps[i].r)
			}
			return b.String()
		},
		Ref: func(g *graph.Graph, q ace.Query) []float64 { return SeqPageRank(g, q.Eps) },
		// Parked sub-eps deltas depend on execution order, so ranks
		// legitimately differ within ~eps of each other.
		Equal: func(got, want float64) bool { return math.Abs(got-want) <= 0.02*(want+1) },
		Warm: func(oldG, newG *graph.Graph, touched []graph.VID, psi, ranks []float64, q ace.Query) *ace.WarmState[float64] {
			return WarmPageRank(oldG, newG, touched, psi, ranks, q.Eps)
		},
		Num: func(r float64) float64 { return r },
	},
	&App[int32]{
		Name: "core", Factory: NewCore(), Paper: true,
		Summary: func(coreness []int32, _ ace.Query, _ int) string {
			return fmt.Sprintf("degeneracy (max coreness): %d\n", maxOf(coreness))
		},
	},
	&App[SimSet]{
		Name: "sim", Factory: NewSim(), Reads: ReadsPattern, Paper: true,
		Summary: func(sim []SimSet, _ ace.Query, _ int) string {
			matches := 0
			for _, m := range sim {
				if m != 0 {
					matches++
				}
			}
			return fmt.Sprintf("vertices simulating some pattern vertex: %d\n", matches)
		},
	},
}

// nearest is the shortest-path summary: the k nearest vertices other than the
// source, by distance.
func nearest(dist []float64, q ace.Query, k int) string {
	type pair struct {
		v graph.VID
		d float64
	}
	var ps []pair
	for v, d := range dist {
		if d > 0 && d < Inf {
			ps = append(ps, pair{graph.VID(v), d})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].d < ps[j].d })
	var b strings.Builder
	fmt.Fprintf(&b, "nearest %d vertices from %d:\n", k, q.Source)
	for i := 0; i < k && i < len(ps); i++ {
		fmt.Fprintf(&b, "  v%-8d dist %.1f\n", ps[i].v, ps[i].d)
	}
	return b.String()
}

// maxOf is the largest value, or 0.
func maxOf(values []int32) int32 {
	m := int32(0)
	for _, v := range values {
		m = max(m, v)
	}
	return m
}

// Dispatch is the one dispatch on an app's name: it finds the row and calls
// the callback of the row's value type with it. Callers pass the same generic
// function instantiated four ways. An unknown name is CheckApp's error.
func Dispatch[R any](name string,
	f64 func(*App[float64]) (R, error),
	i32 func(*App[int32]) (R, error),
	u32 func(*App[uint32]) (R, error),
	u64 func(*App[SimSet]) (R, error)) (R, error) {
	for _, row := range apps {
		if row.name() != name {
			continue
		}
		switch a := row.(type) {
		case *App[float64]:
			return f64(a)
		case *App[int32]:
			return i32(a)
		case *App[uint32]:
			return u32(a)
		case *App[SimSet]:
			return u64(a)
		}
	}
	var zero R
	return zero, CheckApp(name)
}

// DispatchLive is Dispatch over the rows the live driver runs, whose values
// are of the first three types. Any other name is CheckLiveApp's error.
func DispatchLive[R any](name string,
	f64 func(*App[float64]) (R, error),
	i32 func(*App[int32]) (R, error),
	u32 func(*App[uint32]) (R, error)) (R, error) {
	if err := CheckLiveApp(name); err != nil {
		var zero R
		return zero, err
	}
	return Dispatch(name, f64, i32, u32, nil)
}

func (a *App[V]) name() string { return a.Name }
func (a *App[V]) live() bool   { return a.Ref != nil }
func (a *App[V]) paper() bool  { return a.Paper }

// names lists the rows keep admits, in row order.
func names(keep func(row) bool) []string {
	var out []string
	for _, row := range apps {
		if keep(row) {
			out = append(out, row.name())
		}
	}
	return out
}

// AppNames lists the table's apps in row order.
func AppNames() []string { return names(func(row) bool { return true }) }

// PaperAppNames lists the apps of the paper's evaluation in its order.
func PaperAppNames() []string { return names(row.paper) }

// LiveAppNames lists the apps the live driver runs, in row order.
func LiveAppNames() []string { return names(row.live) }

// CheckApp returns nil when name is in the table, else the error every caller
// reports for an unknown app.
func CheckApp(name string) error {
	return checkIn(name, AppNames(), "is not an application")
}

// CheckLiveApp returns nil when the live driver runs name, else the error
// every caller reports for an app it does not run.
func CheckLiveApp(name string) error {
	return checkIn(name, LiveAppNames(), "does not run under the live driver")
}

func checkIn(name string, names []string, not string) error {
	for _, n := range names {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("app %q %s (want %s)", name, not, strings.Join(names, ", "))
}

// CheckSource is Reads.CheckSource for the row's own reads and name.
func (a *App[V]) CheckSource(source, n int) error { return a.Reads.CheckSource(a.Name, source, n) }

// Wrong counts the positions where got differs from the reference want.
func (a *App[V]) Wrong(got, want []V) int {
	wrong := 0
	for i := range want {
		if !a.Equal(got[i], want[i]) {
			wrong++
		}
	}
	return wrong
}

// Checksum sums the values' checksum projections.
func (a *App[V]) Checksum(values []V) float64 {
	var sum float64
	for _, v := range values {
		sum += a.Num(v)
	}
	return sum
}
