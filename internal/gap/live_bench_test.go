package gap

import (
	"fmt"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/graph"
	"argan/internal/partition"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return graph.PowerLaw(graph.GenConfig{N: 4000, M: 24_000, Directed: true, Seed: 21, MaxW: 20})
}

func benchFrags(b *testing.B, g *graph.Graph, n int) []*graph.Fragment {
	b.Helper()
	fs, err := partition.Partition(g, partition.Hash{}, n)
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkFragmentBuild measures partitioning a mid-size graph into four
// fragments — the fixed setup cost every live run pays.
func BenchmarkFragmentBuild(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Partition(g, partition.Hash{}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushIngest measures the send → flush → h_in round trip between
// two workers: one PageRank scatter along every out-arc of worker 0 (each
// ghost send folds into the ghost's Ψ), takeOut's batch, and worker 1's
// ingest of it.
func BenchmarkFlushIngest(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 2)
	pool := &batchPool[float64]{}
	s0 := newWorkerState(0, fs[0], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, pool)
	s1 := newWorkerState(1, fs[1], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint32(0); int(l) < s0.frag.NumOwned(); l++ {
			for _, u := range s0.frag.OutNeighbors(l) {
				if !s0.frag.IsOwned(u) {
					s0.ctx.Send(u, 0.5)
				}
			}
		}
		msgs := s0.takeOut(1)
		if msgs == nil {
			b.Fatal("no cross-fragment traffic; enlarge the bench graph")
		}
		s1.ingest(msgs)
		pool.put(msgs)
	}
}

// BenchmarkCtxSend measures one PageRank Ctx.Send on LJ@0.5 split over two
// workers: worker 0 scatters along every out-arc whose target is owned
// (fold into Ψ and push into H) or a ghost (fold into the out-buffer and
// mark it for the owner). H is drained and the batch taken between
// iterations, outside the timer, so every iteration pays first pushes and
// first marks as a run's window does.
func BenchmarkCtxSend(b *testing.B) {
	fs := benchFrags(b, graph.MustDataset("LJ", 0.5), 2)
	st := newWorkerState(0, fs[0], algorithms.NewPageRank()(), ace.Query{Eps: 1e-3}, &batchPool[float64]{})
	f := st.frag
	for _, owned := range []bool{true, false} {
		name := map[bool]string{true: "owned", false: "ghost"}[owned]
		var arcs []uint32
		for l := uint32(0); int(l) < f.NumOwned(); l++ {
			for _, u := range f.OutNeighbors(l) {
				if f.IsOwned(u) == owned {
					arcs = append(arcs, u)
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for !st.active.Empty() {
					st.active.Pop()
				}
				st.pool.put(st.takeOut(1))
				b.StartTimer()
				for _, u := range arcs {
					st.ctx.Send(u, 0.5)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(arcs)), "ns/send")
		})
	}
}

// BenchmarkRunLivePageRank is the end-to-end async live driver on four
// workers.
func BenchmarkRunLivePageRank(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 4)
	cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunLiveLJ is one cold live run per iteration on the service
// benchmark's graph, LJ@0.5 hash-split over 1 and 2 workers: SSSP and BFS
// from the top out-degree vertex (the head of the pool the service
// benchmark draws sources from), WCC, and PageRank at the service's eps.
// Each leg reports the run's messages and updates per op beside its time.
func BenchmarkRunLiveLJ(b *testing.B) {
	g := graph.MustDataset("LJ", 0.5)
	src := graph.VID(0)
	for v := 1; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VID(v)) > g.OutDegree(src) {
			src = graph.VID(v)
		}
	}
	cfg := LiveConfig{Mode: ModeGAP}
	run := map[string]func([]*graph.Fragment) (*LiveMetrics, error){
		"sssp": func(fs []*graph.Fragment) (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{Source: src}, cfg)
			return lm, err
		},
		"bfs": func(fs []*graph.Fragment) (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewBFS(), ace.Query{Source: src}, cfg)
			return lm, err
		},
		"wcc": func(fs []*graph.Fragment) (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewWCC(), ace.Query{}, cfg)
			return lm, err
		},
		"pr": func(fs []*graph.Fragment) (*LiveMetrics, error) {
			_, lm, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
			return lm, err
		},
	}
	for _, app := range []string{"sssp", "bfs", "wcc", "pr"} {
		for _, n := range []int{1, 2} {
			fs := benchFrags(b, g, n)
			b.Run(fmt.Sprintf("%s/%d", app, n), func(b *testing.B) {
				b.ReportAllocs()
				var msgs, updates int64
				for i := 0; i < b.N; i++ {
					lm, err := run[app](fs)
					if err != nil {
						b.Fatal(err)
					}
					msgs += lm.MsgsSent
					updates += lm.Updates
				}
				b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
				b.ReportMetric(float64(updates)/float64(b.N), "updates/op")
			})
		}
	}
}
