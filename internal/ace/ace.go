// Package ace defines the paper's ACE programming model (§II-A): local
// computation over a fragment is expressed as fixpoint iterations of
// per-vertex update functions f_xv over status variables x_v, with an
// aggregate function g_aggr merging remote updates. Because the runtime can
// pause between any two update batches to ingest or forward messages, one
// ACE program runs unchanged at every granularity from vertex-centric to
// whole-subgraph batches — granularity is owned by the parallel model
// (package gap), not by user code.
package ace

import (
	"fmt"

	"argan/internal/graph"
)

// Category classifies an algorithm by the access pattern of its status
// variables (paper §III-C, Table III); the category selects the staleness
// function τ used by granularity adjustment.
type Category int

const (
	// CategoryI — PAF sequentially and in parallel (Sim, peeling Core):
	// τ = 0, no staleness is possible.
	CategoryI Category = iota + 1
	// CategoryII — PAF sequentially, PBF in parallel (Dijkstra SSSP, BFS,
	// WCC, Borůvka MST, Color): an update is entirely stale when the value
	// it produced is later overridden (Eq. 8).
	CategoryII
	// CategoryIII — PBF in both (Δ-PageRank, h-index Core, Bellman-Ford,
	// SimRank): staleness is the residual-change fraction of the update
	// cost (Eq. 9).
	CategoryIII
)

func (c Category) String() string {
	switch c {
	case CategoryI:
		return "I"
	case CategoryII:
		return "II"
	case CategoryIII:
		return "III"
	}
	return "?"
}

// DepKind declares which status variables form Y_xv, the inputs of the
// update function, which in turn determines message routing: whose replicas
// must learn about a change, and which vertices to re-activate when a value
// changes.
type DepKind int

const (
	// DepIn: Y_xv is the in-neighborhood (pull along incoming edges);
	// changes to x_v re-activate out-neighbors and are shipped to the
	// workers owning out-neighbors of v.
	DepIn DepKind = iota
	// DepOut: Y_xv is the out-neighborhood (pull along outgoing edges, e.g.
	// graph simulation reads successor status).
	DepOut
	// DepSelf: the program pushes explicit deltas to neighbors via
	// Ctx.Send; an incoming message re-activates its target only.
	DepSelf
	// DepBoth: Y_xv is the full neighborhood regardless of direction
	// (coloring on directed graphs); changes propagate both ways.
	DepBoth
)

// Query carries the per-run input Q broadcast by the coordinator at start.
type Query struct {
	// Source is the source vertex for traversal queries (SSSP, BFS).
	Source graph.VID
	// Eps is a convergence threshold (Δ-PageRank).
	Eps float64
	// Pattern is the labeled query pattern for graph simulation.
	Pattern *graph.Graph
	// Args carries any extra scalar parameters.
	Args map[string]float64
	// Warm, when non-nil, is a *WarmState[V] for the program's value type:
	// a prior fixpoint to re-converge from instead of the cold start.
	// Programs that understand warm starts read it in Setup/InitValue; the
	// dynamic type is checked with WarmOf, so a mismatched V falls back to
	// cold init rather than failing.
	Warm any
}

// WarmState is a prior fixpoint handed to a program through Query.Warm for
// incremental re-convergence. All slices are global-vertex indexed; the
// incremental planners (internal/algorithms) construct it from a previous
// Result plus the mutation batch that separates the two graph versions.
type WarmState[V any] struct {
	// Values holds the converged Ψ per global vertex, already adjusted by
	// the planner for the mutation (dirty SSSP distances reset to +Inf,
	// Δ-PageRank re-seed corrections folded into the pending deltas).
	Values []V
	// Active marks the vertices the scheduler must start from. A vertex not
	// marked active starts parked at its warm value.
	Active []bool
	// Aux is program-private auxiliary state captured at the prior fixpoint
	// (e.g. Δ-PageRank's accumulated rank array), pre-adjusted by the
	// planner where needed.
	Aux any
}

// WarmOf extracts the warm state from a query if it carries one of the
// right value type.
func WarmOf[V any](q Query) *WarmState[V] {
	w, _ := q.Warm.(*WarmState[V])
	return w
}

// Validate checks the state's shape against the vertex count of the graph
// it is about to seed. Warm states built from a just-completed run are
// correct by construction, but a service that persists fixpoints across
// restarts re-derives them from disk — Validate is the gate that keeps a
// stale or corrupt reseed from indexing out of bounds deep inside the
// engine. A nil state is valid (cold start).
func (w *WarmState[V]) Validate(n int) error {
	if w == nil {
		return nil
	}
	if len(w.Values) != n {
		return fmt.Errorf("ace: warm state carries %d values for a %d-vertex graph", len(w.Values), n)
	}
	if w.Active != nil && len(w.Active) != n {
		return fmt.Errorf("ace: warm state carries %d active marks for a %d-vertex graph", len(w.Active), n)
	}
	return nil
}

// Arg returns Args[k] or def when absent.
func (q Query) Arg(k string, def float64) float64 {
	if v, ok := q.Args[k]; ok {
		return v
	}
	return def
}

// Ctx is the engine-provided view an update function works through: the
// fragment, the status variables Ψ_i, and the channels by which changes
// leave the update function (publish, scatter, activate). All methods must
// be called only from within Program callbacks. It holds Ψ, g_aggr and H,
// so only what leaves the worker — a ghost Send, a Set that must reach
// replicas — calls into the engine, through one hook each.
type Ctx[V any] struct {
	frag    *graph.Fragment
	psi     []V
	owned   uint32
	prog    Program[V]
	active  *ActiveSet
	self    bool // prog.Deps() == DepSelf
	publish func(local uint32, v V)
	ghost   func(local uint32, d V)
	onPush  func(local uint32)
}

// NewCtx wires a context over Ψ and H: publish takes a non-DepSelf Set, ghost
// a Send to a ghost, and onPush (nil-able) every owned vertex a Send changed.
func NewCtx[V any](f *graph.Fragment, psi []V, prog Program[V], active *ActiveSet,
	publish func(uint32, V), ghost func(uint32, V), onPush func(uint32)) *Ctx[V] {
	return &Ctx[V]{frag: f, psi: psi, owned: uint32(f.NumOwned()), prog: prog, active: active,
		self: prog.Deps() == DepSelf, publish: publish, ghost: ghost, onPush: onPush}
}

// Frag returns the fragment being computed over.
func (c *Ctx[V]) Frag() *graph.Fragment { return c.frag }

// Get reads the status variable of a local vertex.
func (c *Ctx[V]) Get(local uint32) V { return c.psi[local] }

// Set publishes a new value for the *owned* vertex the update function is
// responsible for. A DepSelf program propagates by Send, so its Set only
// stores; otherwise the engine stores it, forwards ⟨v, x_v⟩ to v's replicas,
// and re-activates dependents according to the program's DepKind.
func (c *Ctx[V]) Set(local uint32, v V) {
	if c.self {
		c.psi[local] = v
		return
	}
	c.publish(local, v)
}

// Send scatters a delta toward a vertex (DepSelf programs), aggregating it
// into the target's status variable at once: an owned target that changes is
// activated, a ghost's Ψ is the out-buffer toward its owner (see Algebra).
func (c *Ctx[V]) Send(local uint32, d V) {
	if local >= c.owned {
		c.ghost(local, d)
		return
	}
	if nv, ch := c.prog.Aggregate(c.psi[local], d); ch {
		c.psi[local] = nv
		if c.onPush != nil {
			c.onPush(local)
		}
		c.active.Push(local)
	}
}

// Activate re-inserts an owned vertex into the active set H.
func (c *Ctx[V]) Activate(local uint32) {
	if local < c.owned {
		c.active.Push(local)
	}
}

// Program is a parallel ACE program ρ. One instance is created per worker
// (programs may hold per-fragment auxiliary state).
type Program[V any] interface {
	// Name identifies the program ("sssp", "pr", ...).
	Name() string
	// Category selects the staleness function τ (§III-C).
	Category() Category
	// Deps declares the shape of Y_xv (see DepKind).
	Deps() DepKind

	// Setup is called once per worker before initialization; programs
	// allocate auxiliary per-vertex state here.
	Setup(f *graph.Fragment, q Query)
	// InitValue returns the initial status variable of a local vertex and
	// whether the vertex starts in the active set (ghosts are never
	// activated regardless).
	InitValue(f *graph.Fragment, local uint32, q Query) (V, bool)
	// Update is the update function f_xv applied to an owned active vertex.
	// It reads Y_xv through ctx.Get and emits changes via ctx.Set/Send.
	Update(ctx *Ctx[V], local uint32)
	// Aggregate is g_aggr: it merges an incoming value into the current one
	// and reports whether the result differs (h_in only acts on changes).
	Aggregate(cur, in V) (V, bool)

	// Equal reports value equality; drives Category II staleness and
	// correctness checks.
	Equal(a, b V) bool
	// Delta returns |a-b|, the change magnitude; drives Category III
	// staleness (Eq. 9).
	Delta(a, b V) float64
	// Size estimates the wire size of a value in bytes for the network
	// cost model.
	Size(v V) int
	// Output extracts the answer for an owned vertex once the fixpoint is
	// reached (usually just the status variable).
	Output(ctx *Ctx[V], local uint32) V
}

// InitialSyncer is an optional Program extension: when InitialSync reports
// true, the runtime ships every border vertex's initial value to its
// replicas before computation starts. Pull-style programs whose owned
// initial values cannot be derived locally at the replica side (e.g. Core's
// x_v = deg(v)) require this.
type InitialSyncer interface {
	InitialSync() bool
}

// Checkpointer is an optional Program extension for programs that hold
// mutable auxiliary state outside the status variables Ψ (e.g. PageRank's
// accumulated rank vector). The fault-tolerance layer snapshots that state
// alongside Ψ at each checkpoint and restores it on rollback; without it,
// only Ψ and the active set are captured, which is sufficient for programs
// whose entire mutable state lives in Ψ.
type Checkpointer interface {
	// SnapshotAux returns a deep copy of the program's auxiliary state.
	SnapshotAux() any
	// RestoreAux restores state previously returned by SnapshotAux. The
	// argument may be restored more than once, so implementations must not
	// alias it into mutable state — copy out of it.
	RestoreAux(snap any)
}

// Coster is an optional Program extension overriding the default update
// cost model (deg(Y_xv) + 1 edge-scan units).
type Coster interface {
	Cost(f *graph.Fragment, local uint32) float64
}

// Prioritizer is an optional Program extension: when implemented, the
// engine's active set becomes a priority queue popping the smallest
// priority first (parallelized Dijkstra processes nearest vertices first).
type Prioritizer[V any] interface {
	Priority(v V) float64
}

// UpdateCost returns the modeled cost of one f_xv invocation: |Y_xv| + 1
// edge scans (the paper's GAwD estimate for fixed-size values), honoring a
// Coster override.
func UpdateCost[V any](p Program[V], f *graph.Fragment, local uint32) float64 {
	if c, ok := p.(Coster); ok {
		return c.Cost(f, local)
	}
	switch p.Deps() {
	case DepIn:
		return float64(f.InDegree(local)) + 1
	case DepOut:
		return float64(f.OutDegree(local)) + 1
	case DepBoth:
		return float64(f.InDegree(local)+f.OutDegree(local)) + 1
	default: // DepSelf scatters along out-edges
		return float64(f.OutDegree(local)) + 1
	}
}

// Message is one ⟨v, x_v⟩ pair in flight. V is the vertex's *global* id so
// that it survives crossing fragments.
type Message[V any] struct {
	V   graph.VID
	Val V
}

// Batch is a set of messages M_{i,j} travelling together, with enough
// metadata for the cost model.
type Batch[V any] struct {
	From  int
	To    int
	Msgs  []Message[V]
	Bytes int
}

// Factory builds a fresh program instance for one worker.
type Factory[V any] func() Program[V]
