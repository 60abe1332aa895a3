package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/durable"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/serve"
)

// The traced replay re-runs the head of a run's operation sequence inside
// the benchmark's own process, twice over, interleaved operation by
// operation:
//
//   - the shadow pipeline makes, from this file, the same calls into each
//     layer's public functions that internal/serve makes for a job (pin check,
//     warm plan, sequential reference, gap.RunLive) and for a mutate (check,
//     apply, freeze, fragment update, WAL append), one span per call;
//   - the in-process service (serve.Open + Submit/Wait/Mutate, no HTTP) runs
//     the same operation as one span.
//
// What the shadow spans do not cover of the in-process span is serve's own
// time: admission, result comparison, checksum, bookkeeping.
//
// It always runs a cold section (every job a full run at version 0) and a
// churn section (the run's first mutation batches, each followed by four
// warm increments), whatever the workload, so every layer has a figure on
// every workload. Only the first dataset is replayed.
const (
	replayColdRounds  = 3
	replayChurnRounds = 4
	replayDurableReps = 3
)

// shadowJob is one app's side of the shadow pipeline.
type shadowJob interface {
	run(rp *replay, op int, verify bool, touched []graph.VID) error
	fixpoint(source int) durable.WarmFixpoint
}

// shadowApp carries an app's typed program, reference and warm planner,
// and the fixpoint retained from its last run (what serve keeps in its warm
// cache).
type shadowApp[V any] struct {
	name    string
	factory ace.Factory[V]
	seq     func(g *graph.Graph)
	plan    func(oldG, newG *graph.Graph, touched []graph.VID, psi, values []V) *ace.WarmState[V]

	fixG        *graph.Graph
	values, psi []V
	refs        map[uint64]bool // versions whose reference has been built
}

func (a *shadowApp[V]) run(rp *replay, op int, verify bool, touched []graph.VID) (err error) {
	tr, g := rp.tr, rp.cur
	parent := tr.Start("shadow.job", 0, op)
	defer tr.End(parent)
	tr.Do("graph.check_frozen", parent, op, func() { err = g.CheckFrozen() })
	if err != nil {
		return err
	}
	q := ace.Query{Source: graph.VID(rp.source), Eps: 1e-3}
	layer := "gap.runlive_cold_" + a.name
	if a.fixG != nil && a.fixG.Version() != g.Version() {
		tr.Do("algorithms.warm_"+a.name+"_plan", parent, op, func() {
			q.Warm = a.plan(a.fixG, g, touched, a.psi, a.values)
		})
		layer = "gap.runlive_warm_" + a.name
		verify = true // serve verifies every increment
	}
	if verify && !a.refs[g.Version()] {
		tr.Do("algorithms.seq_"+a.name, parent, op, func() { a.seq(g) })
		a.refs[g.Version()] = true
	}
	var res *gap.Result[V]
	tr.Do(layer, parent, op, func() {
		res, _, err = gap.RunLive(rp.frags[rp.o.Cfg.W.Workers], a.factory, q, gap.LiveConfig{
			Mode: gap.ModeGAP, Recovery: gap.RecoveryLocal, NoEdgeSpill: true,
		})
	})
	if err != nil {
		return err
	}
	a.fixG, a.values, a.psi = g, res.Values, res.Psi
	return nil
}

func (a *shadowApp[V]) fixpoint(source int) durable.WarmFixpoint {
	return durable.WarmFixpoint{
		App: a.name, Source: int32(source), Eps: 1e-3,
		Version: a.fixG.Version(), Values: a.values, Psi: a.psi,
	}
}

func newShadowApps(source int) map[string]shadowJob {
	src := graph.VID(source)
	return map[string]shadowJob{
		"pr": &shadowApp[float64]{
			name: "pr", factory: algorithms.NewPageRank(), refs: map[uint64]bool{},
			seq: func(g *graph.Graph) { algorithms.SeqPageRank(g, 1e-3) },
			plan: func(oldG, newG *graph.Graph, touched []graph.VID, psi, values []float64) *ace.WarmState[float64] {
				return algorithms.WarmPageRank(oldG, newG, touched, psi, values, 1e-3)
			},
		},
		"sssp": &shadowApp[float64]{
			name: "sssp", factory: algorithms.NewSSSP(), refs: map[uint64]bool{},
			seq: func(g *graph.Graph) { algorithms.SeqSSSP(g, src) },
			plan: func(oldG, newG *graph.Graph, touched []graph.VID, _, values []float64) *ace.WarmState[float64] {
				return algorithms.WarmSSSP(oldG, newG, touched, values, src)
			},
		},
		"bfs": &shadowApp[int32]{
			name: "bfs", factory: algorithms.NewBFS(), refs: map[uint64]bool{},
			seq: func(g *graph.Graph) { algorithms.SeqBFS(g, src) },
			plan: func(oldG, newG *graph.Graph, touched []graph.VID, _, values []int32) *ace.WarmState[int32] {
				return algorithms.WarmBFS(oldG, newG, touched, values, src)
			},
		},
		"wcc": &shadowApp[uint32]{
			name: "wcc", factory: algorithms.NewWCC(), refs: map[uint64]bool{},
			seq: func(g *graph.Graph) { algorithms.SeqWCC(g) },
			plan: func(oldG, newG *graph.Graph, touched []graph.VID, _, values []uint32) *ace.WarmState[uint32] {
				return algorithms.WarmWCC(oldG, newG, touched, values)
			},
		},
	}
}

type replay struct {
	o       *Outcome
	tr      *Tracer
	dataset string
	source  int

	cur   *graph.Graph
	frags map[int][]*graph.Fragment // by worker count, like serve's cache
	apps  map[string]shadowJob
	wal   *durable.WAL
	svc   *serve.Service
	ops   Ops
	// matching holds the operations of the section that mirrors the
	// workload's own timed rounds (cold for static workloads, churn
	// otherwise): serve.inproc_* and the coverage figures come from these.
	matching map[int]bool
}

// Replay runs the traced replay for a finished run and returns the in-process
// per-layer metrics.
func Replay(o *Outcome, tr *Tracer) (Metrics, Ops, error) {
	w := o.Cfg.W
	d := w.Datasets[0]
	rp := &replay{
		o: o, tr: tr, dataset: d, source: o.Gen.Source(d),
		frags: map[int][]*graph.Fragment{serverWorkers: o.Gen.frags[d]},
		apps:  newShadowApps(o.Gen.Source(d)), matching: map[int]bool{},
	}
	var err error
	if rp.cur, err = graph.LoadDataset(d, o.Cfg.Scale); err != nil {
		return nil, Ops{}, err
	}
	if rp.frags[w.Workers] == nil {
		if rp.frags[w.Workers], err = (core.Env{Workers: w.Workers}).Fragments(rp.cur); err != nil {
			return nil, Ops{}, err
		}
	}
	dir, err := os.MkdirTemp(o.Cfg.WorkDir, "replay-")
	if err != nil {
		return nil, Ops{}, err
	}
	defer os.RemoveAll(dir)
	store, err := durable.OpenStore(dir + "/shadow")
	if err != nil {
		return nil, Ops{}, err
	}
	key := fmt.Sprintf("%s@%g", d, o.Cfg.Scale)
	if rp.wal, _, _, err = store.OpenWAL(key); err != nil {
		return nil, Ops{}, err
	}
	defer func() { _ = rp.wal.Close() }() // closed on the success path below
	rp.svc, err = serve.Open(serve.Config{
		Cores: 2, MaxWorkersPerJob: serverWorkers,
		StateDir: dir + "/inproc", SnapshotEvery: 10 * time.Second,
	})
	if err != nil {
		return nil, Ops{}, err
	}
	defer rp.svc.Drain(time.Minute)
	if err := rp.svc.Preload(d, o.Cfg.Scale, serverWorkers); err != nil {
		return nil, Ops{}, err
	}

	for i := 0; i < replayColdRounds; i++ {
		if err := rp.jobs(!w.churn(), w.Verify, nil); err != nil {
			return nil, rp.ops, err
		}
	}
	n := 0
	for _, b := range o.Batches {
		if b.Dataset != d {
			continue
		}
		if n++; n > replayChurnRounds {
			break
		}
		if err := rp.mutate(b); err != nil {
			return nil, rp.ops, err
		}
		mb := graph.MutationBatch{Inserts: b.Inserts, Deletes: b.Deletes}
		if err := rp.jobs(w.churn(), w.Verify, mb.Endpoints()); err != nil {
			return nil, rp.ops, err
		}
	}

	// The durable layer's remaining calls, on what the shadow pipeline wrote:
	// reopen (scan) the WAL, write and read back a snapshot of the four
	// retained fixpoints.
	if err := rp.wal.Close(); err != nil {
		return nil, rp.ops, err
	}
	snap := &durable.Snapshot{}
	for _, app := range apps {
		snap.Entries = append(snap.Entries, rp.apps[app].fixpoint(rp.source))
	}
	for i := 0; i < replayDurableReps; i++ {
		op := tr.NewOp()
		tr.Do("durable.wal_open_scan", 0, op, func() {
			var wal *durable.WAL
			if wal, _, _, err = store.OpenWAL(key); err == nil {
				err = wal.Close()
			}
		})
		if err != nil {
			return nil, rp.ops, err
		}
		tr.Do("durable.snapshot_write", 0, op, func() { err = store.WriteSnapshot(key, snap) })
		if err != nil {
			return nil, rp.ops, err
		}
		tr.Do("durable.snapshot_read", 0, op, func() { _, err = store.ReadSnapshot(key) })
		if err != nil {
			return nil, rp.ops, err
		}
	}
	return rp.metrics(), rp.ops, nil
}

// jobs runs one round of the four apps through both pipelines.
func (rp *replay) jobs(matching, verify bool, touched []graph.VID) error {
	for _, app := range apps {
		op := rp.tr.NewOp()
		rp.matching[op] = matching
		if err := rp.apps[app].run(rp, op, verify, touched); err != nil {
			return fmt.Errorf("shadow %s job: %w", app, err)
		}
		var (
			st  serve.JobStatus
			err error
		)
		rp.tr.Do("serve.inproc_"+app+"_job", 0, op, func() {
			var id string
			id, err = rp.svc.Submit(serve.JobSpec{
				App: app, Dataset: rp.dataset, Scale: rp.o.Cfg.Scale, Workers: rp.o.Cfg.W.Workers,
				Source: rp.source, Verify: verify,
			})
			if err == nil {
				st, err = rp.svc.Wait(id, time.Minute)
			}
		})
		switch {
		case err != nil:
			return fmt.Errorf("in-process %s job: %w", app, err)
		case st.State != serve.StateDone:
			rp.ops.fail("in-process %s job %s: %s", app, st.State, st.Err)
		default:
			rp.ops.ok()
		}
	}
	return nil
}

// mutate applies one batch through both pipelines. The replayed batches are
// the run's own (the history on static workloads, the rounds' on churn
// ones), so every mutate mirrors the workload.
func (rp *replay) mutate(b Batch) (err error) {
	tr, op := rp.tr, rp.tr.NewOp()
	rp.matching[op] = true
	mb := graph.MutationBatch{Inserts: b.Inserts, Deletes: b.Deletes}
	old := rp.cur
	var next *graph.Graph
	parent := tr.Start("shadow.mutate", 0, op)
	tr.Do("graph.check_frozen", parent, op, func() { err = old.CheckFrozen() })
	if err == nil {
		tr.Do("graph.apply_mutations", parent, op, func() { next, _, err = old.ApplyMutations(mb) })
	}
	if err == nil {
		tr.Do("graph.freeze", parent, op, func() { next.Freeze() })
		tr.Do("graph.update_fragments", parent, op, func() {
			touched := mb.Endpoints()
			for workers, fs := range rp.frags {
				if rp.frags[workers], _, err = graph.UpdateFragments(fs, next, touched); err != nil {
					return
				}
			}
		})
	}
	if err == nil {
		tr.Do("durable.wal_append", parent, op, func() {
			fp, _ := next.FrozenFingerprint()
			err = rp.wal.Append(durable.Record{Version: next.Version(), Fingerprint: fp, Batch: mb})
		})
	}
	tr.End(parent)
	if err != nil {
		return fmt.Errorf("shadow mutate: %w", err)
	}
	rp.cur = next

	expect := b.Expect
	tr.Do("serve.inproc_mutate", 0, op, func() {
		_, err = rp.svc.Mutate(rp.dataset, serve.MutateRequest{
			Scale: rp.o.Cfg.Scale, ExpectVersion: &expect, Inserts: b.Inserts, Deletes: b.Deletes,
		})
	})
	if err != nil {
		rp.ops.fail("in-process mutate v%d: %v", b.Expect, err)
	} else {
		rp.ops.ok()
	}
	return nil
}

// metrics reduces the replay's spans to the in-process per-layer metrics:
// the median duration of each layer's spans, and how much of the in-process
// service spans the shadow pipeline's layer spans account for.
func (rp *replay) metrics() Metrics {
	spans := rp.tr.Spans()
	m := Metrics{}
	groups := byName(spans)
	layer := func(metric, span string) {
		if s := groups[span]; s != nil {
			m[metric] = Value{median(s.vals), s.N()}
		}
	}
	for _, l := range []string{"graph.check_frozen", "graph.apply_mutations", "graph.freeze", "graph.update_fragments",
		"durable.wal_append", "durable.wal_open_scan", "durable.snapshot_write", "durable.snapshot_read"} {
		layer(l+"_ms", l)
	}
	for _, a := range apps {
		layer("algorithms.seq_"+a+"_ms", "algorithms.seq_"+a)
		layer("algorithms.warm_"+a+"_plan_ms", "algorithms.warm_"+a+"_plan")
		layer("gap.runlive_cold_"+a+"_ms", "gap.runlive_cold_"+a)
		layer("gap.runlive_warm_"+a+"_ms", "gap.runlive_warm_"+a)
	}
	gen := rp.o.Gen
	m["graph.load_dataset_ms"] = Value{median(gen.LoadMS.vals), gen.LoadMS.N()}
	m["core.fragments_build_ms"] = Value{median(gen.FragsMS.vals), gen.FragsMS.N()}

	// From the section that mirrors the workload: the in-process service
	// figures, and the share of them the shadow layer spans cover.
	parents := map[int]string{} // span ID -> shadow.job / shadow.mutate
	var inproc = map[string]*Sample{}
	covered, total := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		if !rp.matching[s.Op] {
			continue
		}
		switch {
		case s.Name == "shadow.job" || s.Name == "shadow.mutate":
			parents[s.ID] = s.Name
		case s.Parent != 0 && parents[s.Parent] != "":
			covered[parents[s.Parent]] += s.ms()
		case strings.HasPrefix(s.Name, "serve.inproc_"):
			if inproc[s.Name] == nil {
				inproc[s.Name] = &Sample{}
			}
			inproc[s.Name].Add(s.ms())
			if s.Name == "serve.inproc_mutate" {
				total["shadow.mutate"] += s.ms()
			} else {
				total["shadow.job"] += s.ms()
			}
		}
	}
	for name, s := range inproc {
		m[name+"_ms"] = Value{median(s.vals), s.N()}
	}
	if total["shadow.job"] > 0 {
		m["trace.coverage_job"] = Value{covered["shadow.job"] / total["shadow.job"], 0}
	}
	if total["shadow.mutate"] > 0 {
		m["trace.coverage_mutate"] = Value{covered["shadow.mutate"] / total["shadow.mutate"], 0}
	}
	return m
}
