package gap

import (
	"math/rand"
	"slices"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/graph"
)

// oracleOut is the sim's B⁻_j as it was before the out-buffer moved into
// Ψ: a map from target vertex to batch slot, an Aggregate fold on
// coalescing and a running byte count. It is the reference the ghost-as-
// buffer state must agree with — exactly for a program whose ghosts restart
// every flush window, minus the entries that could not improve the owner
// for a replay-tolerant one.
type oracleOut[V any] struct {
	msgs  []ace.Message[V]
	index map[graph.VID]int
	bytes int
}

func (o *oracleOut[V]) reset() {
	o.msgs = o.msgs[:0]
	o.bytes = 0
	for k := range o.index {
		delete(o.index, k)
	}
}

func (o *oracleOut[V]) enqueue(p ace.Program[V], g graph.VID, val V) {
	if i, ok := o.index[g]; ok {
		agg, _ := p.Aggregate(o.msgs[i].Val, val)
		o.bytes += p.Size(agg) - p.Size(o.msgs[i].Val)
		o.msgs[i].Val = agg
		return
	}
	o.index[g] = len(o.msgs)
	o.msgs = append(o.msgs, ace.Message[V]{V: g, Val: val})
	o.bytes += 4 + p.Size(val)
}

func (o *oracleOut[V]) restore(msgs []ace.Message[V], bytes int) {
	o.reset()
	o.msgs = append(o.msgs, msgs...)
	o.bytes = bytes
	for k, m := range o.msgs {
		o.index[m.V] = k
	}
}

// TestOutAccMatchesOracle drives the worker state, through its Ctx, and the
// map oracle through the same random send/set/take/snapshot/restore
// schedules, with few distinct vertices so coalescing is frequent. PageRank,
// Color and the variable-size program must produce the oracle's batches —
// message order and values — and byte totals throughout; SSSP's must be the
// oracle's minus the entries that do not improve what the owner was already
// sent. A push program also sends to owned vertices, which must fold into Ψ
// and H in place and never reach a batch. A Category II program runs with
// the sim's streak accounting on: every change to an owned value must close
// its streak into stale2.
func TestOutAccMatchesOracle(t *testing.T) {
	fs := frags(t, testGraph(true, 21), 3)
	t.Run("sssp", func(t *testing.T) {
		checkOutAcc(t, fs[0], algorithms.NewSSSP(), func(r *rand.Rand) float64 { return float64(r.Intn(50)) })
	})
	t.Run("pagerank", func(t *testing.T) {
		checkOutAcc(t, fs[0], algorithms.NewPageRank(), func(r *rand.Rand) float64 { return float64(r.Intn(8)) / 4 })
	})
	t.Run("color", func(t *testing.T) {
		checkOutAcc(t, fs[0], algorithms.NewColor(), func(r *rand.Rand) int32 { return int32(r.Intn(6)) })
	})
	// Every built-in value has a fixed wire size; this one does not, so
	// folding moves the byte count.
	t.Run("sized", func(t *testing.T) {
		sized := func() ace.Program[float64] { return sizedSSSP{algorithms.NewSSSP()()} }
		checkOutAcc(t, fs[0], sized, func(r *rand.Rand) float64 { return float64(r.Intn(50)) })
	})
}

// sizedSSSP is SSSP with a variable wire size and no declared algebra, so
// its ghosts restart every flush window.
type sizedSSSP struct{ ace.Program[float64] }

func (sizedSSSP) Size(v float64) int { return 4 + 4*(int(v)%3) }

// pending is B⁻_peer as the batch takeOut would build now.
func pending[V any](st *workerState[V], peer int) []ace.Message[V] {
	var msgs []ace.Message[V]
	for _, l := range st.out[peer].ids {
		msgs = append(msgs, ace.Message[V]{V: st.frag.Global(l), Val: st.psi[l]})
	}
	return msgs
}

func checkOutAcc[V comparable](t *testing.T, f *graph.Fragment, factory ace.Factory[V], val func(*rand.Rand) V) {
	push := factory().Deps() == ace.DepSelf
	cache := ace.AlgebraOf(factory()).ReplayTolerant()
	streaks := factory().Category() == ace.CategoryII
	var verts []uint32 // every local vertex for a push program, replicated owned vertices otherwise
	for l := uint32(0); int(l) < f.NumLocal(); l++ {
		if push || f.IsOwned(l) && len(f.ReplicasOut(l))+len(f.ReplicasIn(l)) > 0 {
			verts = append(verts, l)
		}
	}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := f.NumWorkers()
		bytes := make([]int, n)
		st := &workerState[V]{onEnqueue: func(peer, d int) { bytes[peer] += d }}
		if streaks {
			st.vcost = make([]float64, f.NumOwned())
		}
		st.init(0, f, factory(), ace.Query{}, nil)
		wantStale := 0.0
		prog := st.prog
		oracle := make([]oracleOut[V], n)
		for j := range oracle {
			oracle[j].index = map[graph.VID]int{}
		}
		// sent is what each cached ghost's owner has been shipped.
		sent := map[graph.VID]V{}
		if cache {
			for _, l := range verts {
				if !f.IsOwned(l) {
					sent[f.Global(l)] = st.psi[l]
				}
			}
		}
		// want is the oracle's batch for peer, less what cannot improve sent.
		want := func(peer int) ([]ace.Message[V], int) {
			if !cache {
				return oracle[peer].msgs, oracle[peer].bytes
			}
			var msgs []ace.Message[V]
			b := 0
			for _, m := range oracle[peer].msgs {
				if _, ch := prog.Aggregate(sent[m.V], m.Val); ch {
					msgs = append(msgs, m)
					b += 4 + prog.Size(m.Val)
				}
			}
			return msgs, b
		}
		// InitialSync may have marked already: start both sides empty.
		for j := range st.out {
			st.takeOut(j)
			bytes[j] = 0
		}
		pick := make([]uint32, 1+r.Intn(12))
		for i := range pick {
			pick[i] = verts[r.Intn(len(verts))]
		}
		var snap stateSnap[V]
		var snapBytes, oracleBytes []int
		var oracleSnap [][]ace.Message[V]
		var sentSnap map[graph.VID]V
		for step := 0; step < 400; step++ {
			peer := 1 + r.Intn(n-1)
			if streaks {
				st.vcost[r.Intn(f.NumOwned())] += float64(1 + r.Intn(5))
			}
			switch op := r.Intn(20); {
			case op < 15:
				l := pick[r.Intn(len(pick))]
				g, v := f.Global(l), val(r)
				var streak float64
				if streaks && f.IsOwned(l) {
					streak = st.vcost[l]
				}
				if push && !f.IsOwned(l) {
					st.ctx.Send(l, v)
					oracle[f.OwnerOf(g)].enqueue(prog, g, v)
					break
				}
				if push {
					nv, ch := prog.Aggregate(st.psi[l], v)
					st.ctx.Send(l, v)
					if st.psi[l] != nv || ch && !slices.Contains(st.active.Snapshot(), l) {
						t.Fatalf("seed %d step %d: owned send left Ψ %v (want %v), changed %v, H %v",
							seed, step, st.psi[l], nv, ch, st.active.Snapshot())
					}
					if ch {
						wantStale += streak
					}
					break
				}
				changed := !prog.Equal(st.psi[l], v)
				st.ctx.Set(l, v)
				if changed {
					wantStale += streak
					for _, j := range f.ReplicasOut(l) {
						oracle[j].enqueue(prog, g, v)
					}
					for _, j := range f.ReplicasIn(l) {
						if !slices.Contains(f.ReplicasOut(l), j) {
							oracle[j].enqueue(prog, g, v)
						}
					}
				}
			case op < 18:
				wantMsgs, wantBytes := want(peer)
				got := st.takeOut(peer)
				if !sameBatch(got, wantMsgs, !cache) {
					t.Fatalf("seed %d step %d: take(%d) = %v, oracle %v", seed, step, peer, got, wantMsgs)
				}
				if bytes[peer] != wantBytes {
					t.Fatalf("seed %d step %d: %d bytes, oracle %d", seed, step, bytes[peer], wantBytes)
				}
				for _, m := range got {
					sent[m.V] = m.Val
				}
				oracle[peer].reset()
				bytes[peer] = 0
			case op < 19:
				snap = st.capture()
				snapBytes = append([]int(nil), bytes...)
				oracleSnap = make([][]ace.Message[V], n)
				oracleBytes = make([]int, n)
				for j := range oracle {
					oracleSnap[j] = append([]ace.Message[V](nil), oracle[j].msgs...)
					oracleBytes[j] = oracle[j].bytes
				}
				sentSnap = map[graph.VID]V{}
				for k, v := range sent {
					sentSnap[k] = v
				}
			default:
				if snap.out == nil {
					continue
				}
				st.restore(&snap)
				copy(bytes, snapBytes)
				for j := range oracle {
					oracle[j].restore(oracleSnap[j], oracleBytes[j])
				}
				sent = map[graph.VID]V{}
				for k, v := range sentSnap {
					sent[k] = v
				}
			}
			for j := range oracle {
				wantMsgs, wantBytes := want(j)
				if got := pending(st, j); !sameBatch(got, wantMsgs, !cache) || bytes[j] != wantBytes {
					t.Fatalf("seed %d step %d peer %d: %v (%d B), oracle %v (%d B)",
						seed, step, j, got, bytes[j], wantMsgs, wantBytes)
				}
			}
			if st.stale2 != wantStale {
				t.Fatalf("seed %d step %d: stale2 %v, want %v", seed, step, st.stale2, wantStale)
			}
		}
	}
}

// sameBatch compares two batches, in order or as sets: a cached ghost is
// listed when a send first improves it, which need not be the window's
// first send to it.
func sameBatch[V comparable](a, b []ace.Message[V], ordered bool) bool {
	if len(a) != len(b) {
		return false
	}
	if !ordered {
		byV := func(x, y ace.Message[V]) int { return int(x.V) - int(y.V) }
		a, b = slices.SortedFunc(slices.Values(a), byV), slices.SortedFunc(slices.Values(b), byV)
	}
	return slices.Equal(a, b)
}

// TestGhostIsOutBuffer pins the out-buffer rule on one worker of two: a
// ghost's Ψ is what its owner will be sent, a cached ghost drops a send that
// does not improve it, any other ghost restarts at its InitValue after every
// flush, and a checkpoint carries the pending batch.
func TestGhostIsOutBuffer(t *testing.T) {
	fs := frags(t, testGraph(true, 5), 2)
	f := fs[0]
	var a, b uint32 // two ghosts of worker 0, owned by worker 1
	for l := uint32(f.NumOwned()); int(l) < f.NumLocal(); l++ {
		if a == 0 {
			a = l
		} else {
			b = l
			break
		}
	}
	if b == 0 {
		t.Fatal("test graph has fewer than two ghosts")
	}
	batch := func(st *workerState[float64]) []ace.Message[float64] { return st.takeOut(1) }
	msg := func(l uint32, v float64) []ace.Message[float64] {
		return []ace.Message[float64]{{V: f.Global(l), Val: v}}
	}
	t.Run("sssp_drops_non_improving", func(t *testing.T) {
		st := newWorkerState(0, f, algorithms.NewSSSP()(), ace.Query{Source: f.Global(0)}, nil)
		st.ctx.Send(a, 5)
		st.ctx.Send(a, 9)
		if got := batch(st); !slices.Equal(got, msg(a, 5)) {
			t.Fatalf("first window shipped %v, want %v", got, msg(a, 5))
		}
		st.ctx.Send(a, 7)
		st.ctx.Send(a, 5)
		if got := batch(st); got != nil {
			t.Fatalf("sends that do not lower the ghost shipped %v", got)
		}
		st.ctx.Send(a, 4)
		if got := batch(st); !slices.Equal(got, msg(a, 4)) {
			t.Fatalf("an improving send shipped %v, want %v", got, msg(a, 4))
		}
	})
	t.Run("pagerank_ships_window_sum", func(t *testing.T) {
		st := newWorkerState(0, f, algorithms.NewPageRank()(), ace.Query{Eps: 1e-3}, nil)
		st.ctx.Send(a, 0.25)
		st.ctx.Send(a, 0.5)
		if got := batch(st); !slices.Equal(got, msg(a, 0.75)) {
			t.Fatalf("shipped %v, want %v", got, msg(a, 0.75))
		}
		if st.psi[a] != 0 {
			t.Fatalf("ghost reads %v after takeOut, want 0", st.psi[a])
		}
	})
	t.Run("restore_reproduces_pending", func(t *testing.T) {
		st := newWorkerState(0, f, algorithms.NewPageRank()(), ace.Query{Eps: 1e-3}, nil)
		st.ctx.Send(a, 0.25)
		snap := st.capture()
		st.ctx.Send(a, 0.5)
		st.ctx.Send(b, 1)
		st.restore(&snap)
		if got := batch(st); !slices.Equal(got, msg(a, 0.25)) {
			t.Fatalf("restored batch %v, want %v", got, msg(a, 0.25))
		}
		st.restore(&snap)
		if got := batch(st); !slices.Equal(got, msg(a, 0.25)) {
			t.Fatalf("second restore of one snapshot: %v, want %v", got, msg(a, 0.25))
		}
	})
	t.Run("opaque_sssp_per_window", func(t *testing.T) {
		st := newWorkerState(0, f, opaqueFactory(algorithms.NewSSSP())(), ace.Query{Source: f.Global(0)}, nil)
		st.ctx.Send(a, 5)
		if got := batch(st); !slices.Equal(got, msg(a, 5)) {
			t.Fatalf("first window shipped %v, want %v", got, msg(a, 5))
		}
		st.ctx.Send(a, 7)
		if got := batch(st); !slices.Equal(got, msg(a, 7)) {
			t.Fatalf("a ghost without a declared algebra must restart each window: shipped %v, want %v", got, msg(a, 7))
		}
	})
}
