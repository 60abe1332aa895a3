package graph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"argan/internal/fault"
	"argan/internal/graph"
	"argan/internal/partition"
)

// The linear write-path kernels (map-free buildFragment, CSR-splice
// ApplyMutations, concurrent UpdateFragments) held to the constructions they
// replaced: equal, not approximately equal.

// messyGraph is a random multigraph: parallel arcs with distinct and with
// equal weights, self-loops, optional labels.
func messyGraph(seed int64, n, m int, directed, labeled bool) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, directed)
	for i := 0; i < m; i++ {
		u, v := graph.VID(r.Intn(n)), graph.VID(r.Intn(n))
		if r.Intn(20) == 0 {
			v = u
		}
		b.AddWeighted(u, v, float64(1+r.Intn(9)))
		for r.Intn(6) == 0 { // parallel copies, sometimes of equal weight
			b.AddWeighted(u, v, float64(1+r.Intn(3)))
		}
	}
	if labeled {
		for v := 0; v < n; v++ {
			b.SetLabel(graph.VID(v), int32(r.Intn(5)))
		}
	}
	return b.MustBuild()
}

var kernelGraphs = []struct {
	name              string
	directed, labeled bool
}{
	{"directed", true, false},
	{"directed-labeled", true, true},
	{"undirected", false, false},
	{"undirected-labeled", false, true},
}

var kernelOwners = []partition.Partitioner{partition.Hash{}, partition.Range{}, partition.Greedy{Seed: 3}}

// sameFragments fails with the name of the first differing field and the
// text around the first difference, so a broken kernel says what it got wrong
// (ordering, weights, replica table).
func sameFragments(t *testing.T, what string, got, want []*graph.Fragment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d fragments, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if reflect.DeepEqual(got[i], want[i]) {
			continue
		}
		g, w := reflect.ValueOf(got[i]).Elem(), reflect.ValueOf(want[i]).Elem()
		for f := 0; f < g.NumField(); f++ {
			gs, ws := fmt.Sprint(g.Field(f)), fmt.Sprint(w.Field(f))
			at := 0
			for at < len(gs) && at < len(ws) && gs[at] == ws[at] {
				at++
			}
			if at < len(gs) || at < len(ws) {
				t.Fatalf("%s: fragment %d field %s differs from the oracle at byte %d of its text:\n got  …%s\n want …%s",
					what, i, g.Type().Field(f).Name, at, gs[max(0, at-40):min(len(gs), at+40)], ws[max(0, at-40):min(len(ws), at+40)])
			}
		}
		t.Fatalf("%s: fragment %d differs from the oracle (nil against empty slice)", what, i)
	}
}

func TestBuildFragmentsMatchOracle(t *testing.T) {
	for _, kg := range kernelGraphs {
		g := messyGraph(11, 150, 900, kg.directed, kg.labeled)
		for _, p := range kernelOwners {
			for _, k := range []int{1, 2, 4, 7} {
				owner := p.Assign(g, k)
				got, err := graph.BuildFragments(g, owner, k)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s/%s/k=%d", kg.name, p.Name(), k)
				sameFragments(t, what, got, graph.OracleBuildFragments(g, owner, k))
				for _, f := range got {
					for l := 0; l < f.NumLocal(); l++ {
						if back, ok := f.Local(f.Global(uint32(l))); !ok || back != uint32(l) {
							t.Fatalf("%s: Local(Global(%d)) = %d,%v", what, l, back, ok)
						}
					}
				}
				if _, ok := got[0].Local(graph.VID(g.NumVertices())); ok {
					t.Fatalf("%s: Local reports a vertex outside the graph present", what)
				}
			}
		}
	}
}

// stormBatch draws one batch of ops operations against g: half deletes of
// arcs that exist, half inserts of random pairs (some land on existing edges
// and replace their weight).
func stormBatch(g *graph.Graph, seed int64, ops int) graph.MutationBatch {
	r := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	var b graph.MutationBatch
	for len(b.Deletes) < ops/2 {
		u := graph.VID(r.Intn(n))
		if adj := g.OutNeighbors(u); len(adj) > 0 {
			b.Deletes = append(b.Deletes, graph.Edge{Src: u, Dst: adj[r.Intn(len(adj))]})
		}
	}
	for len(b.Inserts) < ops-ops/2 {
		b.Inserts = append(b.Inserts, graph.Edge{
			Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n)), W: float64(1 + r.Intn(50)),
		})
	}
	return b
}

// absentEdge returns a pair of vertices with no edge between them.
func absentEdge(t *testing.T, g *graph.Graph, r *rand.Rand) graph.Edge {
	t.Helper()
	for try := 0; try < 10000; try++ {
		u, v := graph.VID(r.Intn(g.NumVertices())), graph.VID(r.Intn(g.NumVertices()))
		if !g.HasEdge(u, v) && !g.HasEdge(v, u) {
			return graph.Edge{Src: u, Dst: v}
		}
	}
	t.Fatal("no absent edge found")
	return graph.Edge{}
}

// parallelArc returns an edge of g stored as two or more parallel arcs.
func parallelArc(g *graph.Graph) (graph.Edge, bool) {
	for u := range graph.VID(g.NumVertices()) {
		adj := g.OutNeighbors(u)
		for i := 1; i < len(adj); i++ {
			if adj[i] == adj[i-1] {
				return graph.Edge{Src: u, Dst: adj[i]}, true
			}
		}
	}
	return graph.Edge{}, false
}

// localArc returns an edge of g between two distinct vertices owned by one
// worker, so a batch naming only it dirties a single fragment.
func localArc(g *graph.Graph, owner []uint16) (graph.Edge, bool) {
	for u := range graph.VID(g.NumVertices()) {
		for _, v := range g.OutNeighbors(u) {
			if v != u && owner[v] == owner[u] {
				return graph.Edge{Src: u, Dst: v}, true
			}
		}
	}
	return graph.Edge{}, false
}

// ghostTurnover builds a batch that, in fragment f, kills the ghost dying
// (every arc linking it to an owned vertex is deleted) and gives birth to the
// ghost born (an arc links an absent vertex to an owned one). ok is false
// when f has no ghost or no absent vertex.
func ghostTurnover(g *graph.Graph, f *graph.Fragment) (b graph.MutationBatch, dying, born graph.VID, ok bool) {
	if f.NumGhosts() == 0 || f.NumOwned() == 0 {
		return b, 0, 0, false
	}
	born = graph.NoVID
	for v := range graph.VID(g.NumVertices()) {
		if _, local := f.Local(v); !local {
			born = v
			break
		}
	}
	if born == graph.NoVID {
		return b, 0, 0, false
	}
	dying = f.Global(uint32(f.NumOwned()))
	for _, u := range g.OutNeighbors(dying) {
		if f.OwnerOf(u) == f.Worker() {
			b.Deletes = append(b.Deletes, graph.Edge{Src: dying, Dst: u})
		}
	}
	for _, u := range g.InNeighbors(dying) {
		if f.OwnerOf(u) == f.Worker() {
			b.Deletes = append(b.Deletes, graph.Edge{Src: u, Dst: dying})
		}
	}
	b.Inserts = []graph.Edge{{Src: born, Dst: f.Global(0), W: 4}}
	return b, dying, born, true
}

// TestMutationKernelsMatchOracle replays fault.MutationStorm schedules — point
// batches and 1 %-of-the-arcs bulk batches, each followed by the awkward
// shapes (delete+reinsert of one key, the same delete twice, a delete of an
// absent edge) — through ApplyMutations and UpdateFragments, comparing every
// step with the edge-list oracle and a from-scratch oracle fragment build:
// the patched fragments must equal it field for field, and the parent
// fragments they were patched from must still equal the previous step's.
// Shapes aimed at the patch come first: parallel arcs collapsed by a delete,
// a self-loop inserted and deleted, a ghost born and one dying in one batch,
// a batch that dirties one fragment only, and an empty batch with no touched
// set, which must share every fragment. Every result is frozen, so all steps
// but the first and the one after "delete+reinsert" start from a frozen
// parent and check the fingerprint carried forward against a full hash. Run
// under -race it also exercises the concurrent fragment patch.
func TestMutationKernelsMatchOracle(t *testing.T) {
	for _, kg := range kernelGraphs {
		turnovers := 0 // ghost births and deaths seen on this graph
		for pi, p := range kernelOwners {
			for _, k := range []int{1, 2, 4, 7} {
				g := messyGraph(int64(23+pi), 150, 900, kg.directed, kg.labeled)
				owner := p.Assign(g, k)
				frags, err := graph.BuildFragments(g, owner, k)
				if err != nil {
					t.Fatal(err)
				}
				parents := graph.OracleBuildFragments(g, owner, k) // what frags must stay
				what := fmt.Sprintf("%s/%s/k=%d", kg.name, p.Name(), k)
				r := rand.New(rand.NewSource(int64(k)))

				// leaveUnfrozen makes the next step hand an unfrozen graph to
				// the one after it, which then has no carried sum to start from.
				leaveUnfrozen := false
				// apply returns the ids of the fragments UpdateFragments re-derived.
				apply := func(step string, b graph.MutationBatch) []int {
					t.Helper()
					ng, inv, err := g.ApplyMutations(b)
					og, oinv, oerr := g.OracleApplyMutations(b)
					if (err == nil) != (oerr == nil) || errors.Is(err, graph.ErrNoSuchEdge) != errors.Is(oerr, graph.ErrNoSuchEdge) {
						t.Fatalf("%s %s: error %v, oracle %v", what, step, err, oerr)
					}
					if err != nil {
						return nil
					}
					if ng.Fingerprint() != og.Fingerprint() || ng.FingerprintV1() != og.FingerprintV1() || ng.Version() != og.Version() {
						t.Fatalf("%s %s: fingerprint %#x v%d, oracle %#x v%d (batch %+v)",
							what, step, ng.Fingerprint(), ng.Version(), og.Fingerprint(), og.Version(), b)
					}
					// The fingerprint Freeze takes over from a frozen parent is
					// the one a full hash of the oracle-built graph gives.
					if leaveUnfrozen {
						leaveUnfrozen = false
					} else {
						parentFrozen := g.Frozen()
						ng.Freeze()
						if fp, _ := ng.FrozenFingerprint(); fp != ng.Fingerprint() || fp != og.Fingerprint() {
							t.Fatalf("%s %s: Freeze stamped %#x (parent frozen: %v), from scratch %#x, oracle %#x (batch %+v)",
								what, step, fp, parentFrozen, ng.Fingerprint(), og.Fingerprint(), b)
						}
						if err := ng.CheckFrozen(); err != nil {
							t.Fatalf("%s %s: %v", what, step, err)
						}
					}
					if !reflect.DeepEqual(inv, oinv) {
						t.Fatalf("%s %s: inverse %+v, oracle %+v", what, step, inv, oinv)
					}
					touched := b.Endpoints()
					if b.Empty() {
						touched = nil
					}
					nf, derived, err := graph.UpdateFragments(frags, ng, touched)
					if err != nil {
						t.Fatal(err)
					}
					want := graph.OracleBuildFragments(ng, owner, k)
					sameFragments(t, what+" "+step, nf, want)
					sameFragments(t, what+" "+step+" (parent after)", frags, parents)
					for _, i := range derived {
						if nf[i] == frags[i] {
							t.Fatalf("%s %s: re-derived fragment %d is the old one", what, step, i)
						}
					}
					if touched == nil && len(derived) != 0 {
						t.Fatalf("%s %s: no touched vertex, yet fragments %v re-derived", what, step, derived)
					}
					g, frags, parents = ng, nf, want
					return derived
				}

				if e, ok := parallelArc(g); ok {
					apply("parallel arcs collapsed", graph.MutationBatch{Deletes: []graph.Edge{e}})
				}
				loop := graph.VID(r.Intn(g.NumVertices()))
				for g.HasEdge(loop, loop) {
					loop = (loop + 1) % graph.VID(g.NumVertices())
				}
				apply("self-loop inserted", graph.MutationBatch{Inserts: []graph.Edge{{Src: loop, Dst: loop, W: 6}}})
				apply("self-loop deleted", graph.MutationBatch{Deletes: []graph.Edge{{Src: loop, Dst: loop}}})
				for w := range frags {
					b, dying, born, ok := ghostTurnover(g, frags[w])
					if !ok {
						continue
					}
					apply(fmt.Sprintf("ghost turnover in fragment %d", w), b)
					_, dyingLocal := frags[w].Local(dying)
					_, bornLocal := frags[w].Local(born)
					if dyingLocal || !bornLocal {
						t.Fatalf("%s: fragment %d holds ghost %d: %v, ghost %d: %v, want false, true",
							what, w, dying, dyingLocal, born, bornLocal)
					}
					turnovers++
				}
				if e, ok := localArc(g, owner); ok && k > 1 {
					derived := apply("one fragment dirty", graph.MutationBatch{Deletes: []graph.Edge{e}})
					if len(derived) != 1 || derived[0] != int(owner[e.Src]) {
						t.Fatalf("%s: a batch inside fragment %d re-derived %v", what, owner[e.Src], derived)
					}
				}

				for i, ev := range fault.MutationStorm(int64(100+k), 6, fault.MutationStormOpts{MinOps: 2, MaxOps: 2}) {
					apply(fmt.Sprintf("point %d", i), stormBatch(g, ev.Seed, ev.Ops))
				}
				bulk := max(2, g.NumEdges()/100)
				for i, ev := range fault.MutationStorm(int64(200+k), 4, fault.MutationStormOpts{MinOps: bulk, MaxOps: bulk}) {
					apply(fmt.Sprintf("bulk %d", i), stormBatch(g, ev.Seed, ev.Ops))

					one := stormBatch(g, ev.Seed+1, 2).Deletes[0]
					leaveUnfrozen = true
					apply("delete+reinsert", graph.MutationBatch{
						Deletes: []graph.Edge{one},
						Inserts: []graph.Edge{{Src: one.Src, Dst: one.Dst, W: 77}, {Src: one.Dst, Dst: one.Src, W: 78}},
					})
					one = stormBatch(g, ev.Seed+2, 2).Deletes[0]
					apply("duplicate delete", graph.MutationBatch{Deletes: []graph.Edge{one, one, {Src: one.Src, Dst: one.Dst, W: 5}}})
					gone := absentEdge(t, g, r)
					apply("absent delete", graph.MutationBatch{Deletes: []graph.Edge{gone}})
					apply("absent delete, reinserted", graph.MutationBatch{
						Deletes: []graph.Edge{gone}, Inserts: []graph.Edge{{Src: gone.Src, Dst: gone.Dst, W: 2}},
					})
					apply("empty", graph.MutationBatch{})
				}
			}
		}
		if turnovers == 0 {
			t.Fatalf("%s: no partition had a ghost to kill and a vertex to make one", kg.name)
		}
	}
}
