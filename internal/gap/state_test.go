package gap

import (
	"math/rand"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/graph"
)

// oracleOut is the sim's B⁻_j as it was before the shared workerState: a
// map from target vertex to batch slot, an Aggregate fold on coalescing and
// a running byte count. It is the reference the dense, generation-stamped
// accumulator must agree with.
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

// TestOutAccMatchesOracle drives the shared out-accumulator and the map
// oracle through the same random enqueue/take/snapshot/restore schedules,
// with few distinct vertices so coalescing is frequent, and requires the
// same batches — message order and values — and byte totals throughout.
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
	// coalescing moves the byte count.
	t.Run("sized", func(t *testing.T) {
		sized := func() ace.Program[float64] { return sizedSSSP{algorithms.NewSSSP()().(*algorithms.SSSP)} }
		checkOutAcc(t, fs[0], sized, func(r *rand.Rand) float64 { return float64(r.Intn(50)) })
	})
}

type sizedSSSP struct{ *algorithms.SSSP }

func (sizedSSSP) Size(v float64) int { return 4 + 4*(int(v)%3) }

func checkOutAcc[V comparable](t *testing.T, f *graph.Fragment, factory ace.Factory[V], val func(*rand.Rand) V) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := f.NumWorkers()
		bytes := make([]int, n)
		st := &workerState[V]{onEnqueue: func(peer, d int) { bytes[peer] += d }}
		st.init(0, f, factory(), ace.Query{}, nil)
		prog := st.prog
		oracle := make([]oracleOut[V], n)
		for j := range oracle {
			oracle[j].index = map[graph.VID]int{}
		}
		// InitialSync may have enqueued already: start both sides empty.
		for j := range st.out {
			st.takeOut(j)
			bytes[j] = 0
		}
		verts := make([]uint32, 1+r.Intn(12))
		for i := range verts {
			verts[i] = uint32(r.Intn(f.NumLocal()))
		}
		var snap stateSnap[V]
		var snapBytes, oracleBytes []int
		var oracleSnap [][]ace.Message[V]
		for step := 0; step < 400; step++ {
			peer := 1 + r.Intn(n-1)
			switch op := r.Intn(20); {
			case op < 15:
				l := verts[r.Intn(len(verts))]
				v := val(r)
				st.enqueue(peer, l, f.Global(l), v)
				oracle[peer].enqueue(prog, f.Global(l), v)
			case op < 18:
				got, want := st.takeOut(peer), oracle[peer].msgs
				if !sameMsgs(got, want) {
					t.Fatalf("seed %d step %d: take(%d) = %v, oracle %v", seed, step, peer, got, want)
				}
				if bytes[peer] != oracle[peer].bytes {
					t.Fatalf("seed %d step %d: %d bytes, oracle %d", seed, step, bytes[peer], oracle[peer].bytes)
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
			default:
				if snap.out == nil {
					continue
				}
				st.restore(&snap)
				copy(bytes, snapBytes)
				for j := range oracle {
					oracle[j].restore(oracleSnap[j], oracleBytes[j])
				}
			}
			for j := range oracle {
				if !sameMsgs(st.out[j].msgs, oracle[j].msgs) || bytes[j] != oracle[j].bytes {
					t.Fatalf("seed %d step %d peer %d: %v (%d B), oracle %v (%d B)",
						seed, step, j, st.out[j].msgs, bytes[j], oracle[j].msgs, oracle[j].bytes)
				}
			}
		}
	}
}

func sameMsgs[V comparable](a, b []ace.Message[V]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
