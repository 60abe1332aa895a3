package serve

// Tests for the evolving-dataset path: Mutate bumps the version under COW,
// pinned jobs are undisturbed, later jobs re-converge incrementally from the
// retained fixpoint, and every increment is verified against the sequential
// reference on the new version. Plus the timer-leak regression suite and the
// mutate-vs-compute interleaving storm.

import (
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"argan/internal/fault"
	"argan/internal/graph"
)

// churnRequest materializes ops edge operations against g: half deletes of
// existing arcs, half fresh inserts, drawn deterministically from seed.
func churnRequest(g *graph.Graph, scale float64, seed int64, ops int) MutateRequest {
	r := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		adj, ws := g.OutNeighbors(graph.VID(v)), g.OutWeights(graph.VID(v))
		for i, u := range adj {
			edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: u, W: ws[i]})
		}
	}
	k := ops / 2
	if k < 1 {
		k = 1
	}
	req := MutateRequest{Scale: scale}
	seen := map[[2]graph.VID]bool{}
	for _, i := range r.Perm(len(edges))[:k] {
		e := edges[i]
		if seen[[2]graph.VID{e.Src, e.Dst}] {
			continue
		}
		seen[[2]graph.VID{e.Src, e.Dst}] = true
		req.Deletes = append(req.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
	}
	n := g.NumVertices()
	for len(req.Inserts) < k {
		u, v := graph.VID(r.Intn(n)), graph.VID(r.Intn(n))
		if u == v || g.HasEdge(u, v) || seen[[2]graph.VID{u, v}] {
			continue
		}
		seen[[2]graph.VID{u, v}] = true
		req.Inserts = append(req.Inserts, graph.Edge{Src: u, Dst: v, W: float64(1 + r.Intn(9))})
	}
	return req
}

func runVerified(t *testing.T, s *Service, app string) *JobResult {
	t.Helper()
	id, err := s.Submit(tinySpec(app))
	if err != nil {
		t.Fatalf("%s submit: %v", app, err)
	}
	st, err := s.Wait(id, 60*time.Second)
	if err != nil || st.State != StateDone {
		t.Fatalf("%s: %+v err %v", app, st, err)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatalf("%s result: %v", app, err)
	}
	if res.Wrong != 0 {
		t.Fatalf("%s diverged: %d wrong of %d", app, res.Wrong, res.Vertices)
	}
	return res
}

func TestMutateBumpsVersionAndWarmStartsJobs(t *testing.T) {
	s := New(Config{Cores: 4})
	apps := []string{"pr", "sssp", "bfs", "wcc"}
	for _, app := range apps {
		res := runVerified(t, s, app)
		if res.Version != 0 || res.Incremental || res.Fallback != "" {
			t.Fatalf("%s cold run mislabeled: %+v", app, res)
		}
	}
	p, err := s.data.pin("HW", 0.02, 2)
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	req := churnRequest(p.g, 0.02, 7, 12)
	mr, err := s.Mutate("HW", req)
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if mr.OldVersion != 0 || mr.NewVersion != 1 || mr.RebuiltFragments == 0 {
		t.Fatalf("mutate result: %+v", mr)
	}
	// The pinned snapshot is undisturbed by the swap; the service now serves
	// version 1.
	if p.g.Version() != 0 {
		t.Fatalf("pinned graph version changed: %d", p.g.Version())
	}
	p2, _ := s.data.pin("HW", 0.02, 2)
	if p2.version != 1 || p2.g == p.g {
		t.Fatalf("post-mutate pin: version %d, shared graph %v", p2.version, p2.g == p.g)
	}
	// Every app re-converges from its retained fixpoint — incremental,
	// bridged from version 0, and verified against the version-1 reference.
	for _, app := range apps {
		res := runVerified(t, s, app)
		if res.Version != 1 || !res.Incremental || res.IncrementalFrom != 0 {
			t.Fatalf("%s warm run mislabeled: %+v", app, res)
		}
	}
	st := s.Stats()
	if st.Mutations != 1 || st.MutatedEdges != int64(len(req.Inserts)+len(req.Deletes)) {
		t.Fatalf("mutation accounting: %+v", st)
	}
	if st.Incremental != int64(len(apps)) {
		t.Fatalf("incremental accounting: %+v", st)
	}
}

func TestMutateGuards(t *testing.T) {
	s := New(Config{Cores: 2})
	if err := s.Preload("HW", 0.02, 2); err != nil {
		t.Fatalf("preload: %v", err)
	}
	ins := []graph.Edge{{Src: 1, Dst: 40, W: 3}}

	// Optimistic-concurrency guard: a stale expected version refuses with the
	// typed mismatch error and does not bump the dataset.
	stale := uint64(5)
	_, err := s.Mutate("HW", MutateRequest{Scale: 0.02, ExpectVersion: &stale, Inserts: ins})
	if !errors.Is(err, graph.ErrVersionMismatch) {
		t.Fatalf("stale expect: %v", err)
	}
	// Empty batches and deletes of absent edges fail whole; the version stays.
	if _, err := s.Mutate("HW", MutateRequest{Scale: 0.02}); err == nil {
		t.Fatal("empty batch accepted")
	}
	_, err = s.Mutate("HW", MutateRequest{Scale: 0.02, Deletes: []graph.Edge{{Src: 1, Dst: 1}}})
	if !errors.Is(err, graph.ErrNoSuchEdge) {
		t.Fatalf("absent delete: %v", err)
	}
	if p, _ := s.data.pin("HW", 0.02, 2); p.version != 0 {
		t.Fatalf("failed mutations bumped the version to %d", p.version)
	}
	// A correct expectation applies.
	cur := uint64(0)
	mr, err := s.Mutate("HW", MutateRequest{Scale: 0.02, ExpectVersion: &cur, Inserts: ins})
	if err != nil || mr.NewVersion != 1 {
		t.Fatalf("guarded mutate: %+v err %v", mr, err)
	}
	// A draining service refuses writes like it refuses jobs.
	s.Drain(time.Second)
	if _, err := s.Mutate("HW", MutateRequest{Scale: 0.02, Inserts: ins}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining mutate: %v", err)
	}
}

// TestMutateRejectsBadWeights: a negative, NaN or infinite insert weight
// is refused whole before it reaches the dataset, so no SSSP job can meet a
// negative cycle (on one, the sequential reference never returns).
func TestMutateRejectsBadWeights(t *testing.T) {
	s := New(Config{Cores: 2})
	if err := s.Preload("HW", 0.02, 2); err != nil {
		t.Fatalf("preload: %v", err)
	}
	runVerified(t, s, "sssp")
	for _, w := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := s.Mutate("HW", MutateRequest{Scale: 0.02, Inserts: []graph.Edge{
			{Src: 1, Dst: 40, W: w}, {Src: 40, Dst: 1, W: w},
		}})
		if err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if p, _ := s.data.pin("HW", 0.02, 2); p.version != 0 {
		t.Fatalf("refused mutations bumped the version to %d", p.version)
	}
	if res := runVerified(t, s, "sssp"); res.Version != 0 {
		t.Fatalf("sssp after refused mutations ran at version %d", res.Version)
	}
}

func TestMutateHTTP(t *testing.T) {
	s := New(Config{Cores: 2})
	ts := httptest.NewServer(s.APIHandler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	id, err := c.Submit(tinySpec("sssp"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.WaitTerminal(id, 30*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	mr, err := c.Mutate("HW", MutateRequest{Scale: 0.02, Inserts: []graph.Edge{{Src: 1, Dst: 40, W: 3}}})
	if err != nil || mr.OldVersion != 0 || mr.NewVersion != 1 {
		t.Fatalf("mutate over HTTP: %+v err %v", mr, err)
	}
	// Version mismatch maps to 412 and back to the typed error.
	stale := uint64(0)
	_, err = c.Mutate("HW", MutateRequest{Scale: 0.02, ExpectVersion: &stale, Inserts: []graph.Edge{{Src: 1, Dst: 41, W: 3}}})
	if !errors.Is(err, graph.ErrVersionMismatch) {
		t.Fatalf("want ErrVersionMismatch over HTTP, got %v", err)
	}
	if _, err := c.Mutate("HW", MutateRequest{Scale: 0.02}); err == nil {
		t.Fatal("empty batch accepted over HTTP")
	}
	if _, err := c.Mutate("", MutateRequest{Scale: 0.02}); err == nil {
		t.Fatal("missing dataset accepted over HTTP")
	}
	ds, err := c.Datasets()
	if err != nil || len(ds) != 1 {
		t.Fatalf("datasets: %+v err %v", ds, err)
	}
	if ds[0].Dataset != "HW" || ds[0].Version != 1 || ds[0].Vertices == 0 || ds[0].Edges == 0 {
		t.Fatalf("dataset info: %+v", ds[0])
	}
	// The post-mutate job runs incrementally end to end over HTTP.
	id, err = c.Submit(tinySpec("sssp"))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := c.WaitTerminal(id, 30*time.Second); err != nil {
		t.Fatalf("wait 2: %v", err)
	}
	res, err := c.Result(id)
	if err != nil || res.Wrong != 0 || !res.Incremental || res.Version != 1 {
		t.Fatalf("incremental over HTTP: %+v err %v", res, err)
	}
}

// TestDeadlineTimersStoppedOnAllPaths is the timer-leak regression: every
// terminal path — normal completion, queued cancel, running cancel, panic
// quarantine, drain force, and the deadline actually firing — must release
// its armed deadline timer. A leak shows up as DeadlineTimers > 0.
func TestDeadlineTimersStoppedOnAllPaths(t *testing.T) {
	s := New(Config{Cores: 2, QueueDepth: 4})
	deadline := func(sp JobSpec, d string) JobSpec { sp.Deadline = d; return sp }

	// Normal completion.
	id, err := s.Submit(deadline(tinySpec("sssp"), "30s"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, _ := s.Wait(id, 30*time.Second); st.State != StateDone {
		t.Fatalf("done path: %+v", st)
	}

	// Queued cancel + running cancel: the slow job takes both cores, the
	// queued one never dispatches.
	rid, err := s.Submit(deadline(slowSpec(10000, 60), "60s"))
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	qid, err := s.Submit(deadline(slowSpec(10000, 60), "60s"))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if err := s.Cancel(qid); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if err := s.Cancel(rid); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if st, _ := s.Wait(rid, 10*time.Second); st.State != StateCanceled {
		t.Fatalf("running cancel: %+v", st)
	}

	// Panic quarantine.
	rogue := deadline(tinySpec("sssp"), "30s")
	rogue.Verify = false
	rogue.Faults = "panic=0@u10"
	pid, err := s.Submit(rogue)
	if err != nil {
		t.Fatalf("submit rogue: %v", err)
	}
	if st, _ := s.Wait(pid, 30*time.Second); st.State != StateFailed {
		t.Fatalf("rogue path: %+v", st)
	}

	// Deadline fires.
	did, err := s.Submit(deadline(slowSpec(10000, 60), "150ms"))
	if err != nil {
		t.Fatalf("submit deadline: %v", err)
	}
	if st, _ := s.Wait(did, 10*time.Second); st.State != StateCanceled || !strings.Contains(st.Err, "deadline") {
		t.Fatalf("deadline path: %+v", st)
	}

	// Drain force.
	fid, err := s.Submit(deadline(slowSpec(60000, 150), "90s"))
	if err != nil {
		t.Fatalf("submit straggler: %v", err)
	}
	if stats := s.Drain(300 * time.Millisecond); stats.Forced != 1 {
		t.Fatalf("drain did not force: %+v", stats)
	}
	if st, _ := s.Status(fid); st.State != StateCanceled {
		t.Fatalf("forced path: %+v", st)
	}

	if st := s.Stats(); st.DeadlineTimers != 0 {
		t.Fatalf("deadline timers leaked: %+v", st)
	}
}

// TestMutationStormUnderLoad interleaves a fault.MutationStorm of edge
// batches with a fault.JobStorm of concurrent tenants (crashy jobs included)
// over the same dataset. Every non-rogue job must finish reference-verified
// against the version it pinned; mutations racing dispatch are absorbed by
// version pinning, and warm re-convergence engages across the bumps.
func TestMutationStormUnderLoad(t *testing.T) {
	const clients = 12
	const seed = 20260808
	s := New(Config{Cores: 4, QueueDepth: clients, MaxWorkersPerJob: 2,
		DefaultDeadline: 2 * time.Minute})
	if err := s.Preload("HW", 0.04, 2); err != nil {
		t.Fatalf("preload: %v", err)
	}

	jobs := fault.JobStorm(seed, clients, fault.JobStormOpts{
		Bursts: 3, BurstGapMS: 120, Rogues: -1, Crashy: 2, Span: 200, RestartMS: 5,
	})
	muts := fault.MutationStorm(seed, 3, fault.MutationStormOpts{
		BurstGapMS: 120, MinOps: 6, MaxOps: 24,
	})
	apps := []string{"sssp", "bfs", "wcc", "pr"}

	start := time.Now()
	var wg sync.WaitGroup
	results := make([]*JobResult, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jf := jobs[i]
			time.Sleep(time.Until(start.Add(time.Duration(jf.ArrivalMS) * time.Millisecond)))
			spec := JobSpec{
				App: apps[i%len(apps)], Dataset: "HW", Scale: 0.04,
				Workers: 2, Source: 1, Verify: true, Faults: jf.Plan,
			}
			id, err := s.Submit(spec)
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := s.Wait(id, 90*time.Second); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = s.Result(id)
		}(i)
	}

	// One writer applies the storm's batches in order, each drawn against the
	// then-current version with an exact ExpectVersion guard — the guard can
	// never trip (single writer), so a 412 here would be a bug.
	applied := 0
	for _, ev := range muts {
		time.Sleep(time.Until(start.Add(time.Duration(ev.ArrivalMS) * time.Millisecond)))
		p, err := s.data.pin("HW", 0.04, 2)
		if err != nil {
			t.Fatalf("pin for batch: %v", err)
		}
		expect := p.version
		req := churnRequest(p.g, 0.04, ev.Seed, ev.Ops)
		req.ExpectVersion = &expect
		mr, err := s.Mutate("HW", req)
		if err != nil {
			t.Fatalf("storm mutate at version %d: %v", expect, err)
		}
		if mr.NewVersion != expect+1 {
			t.Fatalf("storm mutate version: %+v", mr)
		}
		applied++
	}
	wg.Wait()

	incremental := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		res := results[i]
		if res.Wrong != 0 {
			t.Errorf("client %d (%s) diverged at version %d: %d wrong of %d",
				i, res.App, res.Version, res.Wrong, res.Vertices)
		}
		if res.Incremental {
			incremental++
			if res.IncrementalFrom >= res.Version {
				t.Errorf("client %d claims increment %d -> %d", i, res.IncrementalFrom, res.Version)
			}
		}
	}
	st := s.Stats()
	if st.Mutations != int64(applied) {
		t.Errorf("mutation accounting: applied %d, stats %+v", applied, st)
	}
	if st.DeadlineTimers != 0 {
		t.Errorf("deadline timers leaked under storm: %+v", st)
	}
	t.Logf("storm: %d clients, %d mutations, %d incremental re-convergences, stats %+v",
		clients, applied, incremental, st)
}
