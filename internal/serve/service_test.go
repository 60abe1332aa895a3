package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	obsserve "argan/internal/obs/serve"
)

// Tiny shared dataset so the suite stays fast; the cache makes later tests
// nearly free.
func tinySpec(app string) JobSpec {
	return JobSpec{App: app, Dataset: "HW", Scale: 0.02, Workers: 2, Source: 1, Verify: true}
}

// slowSpec builds a job that runs for roughly durMS of wall clock: with
// CheckEvery 1 the injected slowdown sleeps at every update, so the job is
// reliably still in flight when a test cancels, drains or saturates around
// it.
func slowSpec(durMS, factor int) JobSpec {
	sp := tinySpec("sssp")
	sp.Verify = false
	sp.CheckEvery = 1
	sp.Faults = fmt.Sprintf("slow=0@0:%d:%d; slow=1@0:%d:%d", durMS, factor, durMS, factor)
	return sp
}

func TestJobLifecycleAllApps(t *testing.T) {
	s := New(Config{Cores: 4})
	for _, app := range []string{"sssp", "bfs", "wcc", "pr"} {
		id, err := s.Submit(tinySpec(app))
		if err != nil {
			t.Fatalf("%s submit: %v", app, err)
		}
		st, err := s.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatalf("%s wait: %v", app, err)
		}
		if st.State != StateDone {
			t.Fatalf("%s: state %s err %q", app, st.State, st.Err)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatalf("%s result: %v", app, err)
		}
		if res.Wrong != 0 {
			t.Fatalf("%s: %d wrong vertices", app, res.Wrong)
		}
		if res.Vertices == 0 || res.Updates == 0 {
			t.Fatalf("%s: empty result summary %+v", app, res)
		}
		if res.App != app || res.ID != id {
			t.Fatalf("%s: mislabeled result %+v", app, res)
		}
	}
	st := s.Stats()
	if st.Completed != 4 || st.Failed != 0 || st.Admitted != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSpecValidation(t *testing.T) {
	s := New(Config{Cores: 4})
	bad := []JobSpec{
		{App: "nope", Dataset: "HW"},
		{App: "sssp"},
		{App: "sssp", Dataset: "HW", Faults: "crash=bogus"},
		{App: "sssp", Dataset: "HW", Deadline: "yesterday"},
	}
	for i, sp := range bad {
		if _, err := s.Submit(sp); err == nil {
			t.Fatalf("spec %d admitted: %+v", i, sp)
		}
	}
	// A source that is not a vertex of the pinned version is admitted (the
	// version is only known at dispatch) but fails its own job, naming the
	// bound — with or without verification, which is where the sequential
	// reference used to index out of range and take the process down.
	for _, app := range []string{"sssp", "bfs"} {
		for _, source := range []int{-1, 1 << 30} {
			for _, verify := range []bool{true, false} {
				sp := tinySpec(app)
				sp.Source, sp.Verify = source, verify
				id, err := s.Submit(sp)
				if err != nil {
					t.Fatalf("%s source %d verify %v: submit: %v", app, source, verify, err)
				}
				st, _ := s.Wait(id, 30*time.Second)
				if st.State != StateFailed || !strings.Contains(st.Err, "outside [0, ") {
					t.Fatalf("%s source %d verify %v: state %s err %q, want failed naming the bound", app, source, verify, st.State, st.Err)
				}
			}
		}
	}
	// Apps that take no source ignore the field.
	for _, app := range []string{"wcc", "pr"} {
		sp := tinySpec(app)
		sp.Source = -1
		id, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("%s submit: %v", app, err)
		}
		if st, _ := s.Wait(id, 30*time.Second); st.State != StateDone {
			t.Fatalf("%s with an unused source: state %s err %q", app, st.State, st.Err)
		}
	}

	// Worker clamp: requests above MaxWorkersPerJob shrink, not fail.
	sp := tinySpec("sssp")
	sp.Workers = 64
	id, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("clamped submit: %v", err)
	}
	st, _ := s.Wait(id, 30*time.Second)
	if st.Workers != 4 || st.State != StateDone {
		t.Fatalf("clamp: workers %d state %s err %q", st.Workers, st.State, st.Err)
	}
}

func TestAdmissionShedsWhenSaturated(t *testing.T) {
	s := New(Config{Cores: 2, QueueDepth: 1})
	slow := slowSpec(5000, 40)
	id1, err := s.Submit(slow) // takes both cores, runs slow
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	id2, err := s.Submit(slow) // fills the queue
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	_, err = s.Submit(slow) // queue full: shed
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated, got %v", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Queued != 1 {
		t.Fatalf("stats after shed: %+v", st)
	}
	// Canceling the queued job must not run it; canceling the running one
	// must propagate through the driver's control plane.
	if err := s.Cancel(id2); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	st2, _ := s.Status(id2)
	if st2.State != StateCanceled || st2.RunMS != 0 {
		t.Fatalf("queued cancel: %+v", st2)
	}
	if err := s.Cancel(id1); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st1, err := s.Wait(id1, 10*time.Second)
	if err != nil || st1.State != StateCanceled {
		t.Fatalf("running cancel: %+v err %v", st1, err)
	}
	if st := s.Stats(); st.Canceled != 2 || st.Running != 0 || st.CoresFree != 2 {
		t.Fatalf("tokens leaked: %+v", st)
	}
}

func TestDeadlineCancelsJob(t *testing.T) {
	s := New(Config{Cores: 2})
	sp := slowSpec(10000, 60)
	sp.Deadline = "200ms"
	id, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := s.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateCanceled || !strings.Contains(st.Err, "deadline") {
		t.Fatalf("want deadline cancellation, got %+v", st)
	}
}

func TestPanicQuarantinedNeighborsUnharmed(t *testing.T) {
	s := New(Config{Cores: 4})
	rogue := tinySpec("sssp")
	rogue.Verify = false
	rogue.Faults = "panic=0@u10"
	rid, err := s.Submit(rogue)
	if err != nil {
		t.Fatalf("submit rogue: %v", err)
	}
	nid, err := s.Submit(tinySpec("bfs"))
	if err != nil {
		t.Fatalf("submit neighbor: %v", err)
	}
	rst, _ := s.Wait(rid, 30*time.Second)
	if rst.State != StateFailed || !strings.Contains(rst.Err, "panic") {
		t.Fatalf("rogue not quarantined: %+v", rst)
	}
	nst, _ := s.Wait(nid, 30*time.Second)
	if nst.State != StateDone {
		t.Fatalf("neighbor harmed by rogue: %+v", nst)
	}
	if res, err := s.Result(nid); err != nil || res.Wrong != 0 {
		t.Fatalf("neighbor result: %+v err %v", res, err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Failed != 1 {
		t.Fatalf("quarantine accounting: %+v", st)
	}
}

func TestCrashyJobRecoversLocally(t *testing.T) {
	s := New(Config{Cores: 2})
	sp := tinySpec("sssp")
	sp.Faults = "crash=1@u40+5"
	id, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, _ := s.Wait(id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("crashy job: %+v", st)
	}
	res, err := s.Result(id)
	if err != nil || res.Wrong != 0 {
		t.Fatalf("crashy result: %+v err %v", res, err)
	}
	if res.Crashes < 1 || res.Recoveries < 1 {
		t.Fatalf("crash not recovered: %+v", res)
	}
}

func TestDrainFinishesAdmittedAndRefusesNew(t *testing.T) {
	s := New(Config{Cores: 2, QueueDepth: 4})
	slow := slowSpec(150, 10)
	var ids []string
	for i := 0; i < 3; i++ { // 1 running + 2 queued
		id, err := s.Submit(slow)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	done := make(chan DrainStats, 2)
	go func() { done <- s.Drain(60 * time.Second) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	// A concurrent second Drain must block until completion and report the
	// same recorded stats as the first caller, not a stale snapshot.
	go func() { done <- s.Drain(60 * time.Second) }()
	if _, err := s.Submit(tinySpec("sssp")); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	for i := 0; i < 2; i++ {
		stats := <-done
		if stats.Jobs != 3 || stats.Forced != 0 || stats.Completed != 3 {
			t.Fatalf("drain stats (caller %d): %+v", i, stats)
		}
	}
	for _, id := range ids {
		st, _ := s.Status(id)
		if st.State != StateDone {
			t.Fatalf("drain abandoned %s: %+v", id, st)
		}
	}
	// A later drain returns the recorded stats, wall time included.
	again := s.Drain(time.Second)
	if again.Jobs != 3 || again.Completed != 3 || again.WaitMS <= 0 {
		t.Fatalf("re-drain stats: %+v", again)
	}
}

func TestDrainTimeoutForcesStragglers(t *testing.T) {
	s := New(Config{Cores: 2})
	sp := slowSpec(60000, 150) // effectively wedged
	id, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stats := s.Drain(300 * time.Millisecond)
	if stats.Forced != 1 {
		t.Fatalf("drain did not force the straggler: %+v", stats)
	}
	st, _ := s.Status(id)
	if st.State != StateCanceled || !strings.Contains(st.Err, "drain") {
		t.Fatalf("straggler state: %+v", st)
	}
	// Repeat callers see the recorded forced count, not a zero snapshot.
	if again := s.Drain(time.Second); again.Forced != 1 || again.Canceled != 1 {
		t.Fatalf("re-drain stats: %+v", again)
	}
}

func TestTerminalHistoryEviction(t *testing.T) {
	s := New(Config{Cores: 4, MaxHistory: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(tinySpec("sssp"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st, err := s.Wait(id, 30*time.Second); err == nil && st.State != StateDone {
			t.Fatalf("job %d: %+v", i, st)
		}
		ids = append(ids, id)
	}
	// Only the two newest terminal jobs survive; the oldest were evicted
	// and now resolve like never-assigned IDs.
	if list := s.List(); len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(list), list)
	}
	for _, id := range ids[:2] {
		if _, err := s.Status(id); !errors.Is(err, ErrNoSuchJob) {
			t.Fatalf("evicted %s status: %v", id, err)
		}
		if _, err := s.Result(id); !errors.Is(err, ErrNoSuchJob) {
			t.Fatalf("evicted %s result: %v", id, err)
		}
	}
	for _, id := range ids[2:] {
		if res, err := s.Result(id); err != nil || res.Wrong != 0 {
			t.Fatalf("retained %s result: %+v err %v", id, res, err)
		}
	}
	// Lifetime counters are not rewound by eviction.
	if st := s.Stats(); st.Completed != 4 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestHTTPAPI(t *testing.T) {
	s := New(Config{Cores: 2, QueueDepth: 1})
	ts := httptest.NewServer(s.APIHandler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	id, err := c.Submit(tinySpec("sssp"))
	if err != nil || id == "" {
		t.Fatalf("submit: id %q err %v", id, err)
	}
	st, err := c.WaitTerminal(id, 30*time.Second)
	if err != nil || st.State != StateDone {
		t.Fatalf("wait: %+v err %v", st, err)
	}
	res, err := c.Result(id)
	if err != nil || res.Wrong != 0 || res.ID != id {
		t.Fatalf("result: %+v err %v", res, err)
	}
	list, err := c.List()
	if err != nil || len(list) != 1 {
		t.Fatalf("list: %v err %v", list, err)
	}
	stats, err := c.Stats()
	if err != nil || stats.Completed != 1 {
		t.Fatalf("stats: %+v err %v", stats, err)
	}

	// An out-of-range source fails its own job; the server stays ready and
	// serves the jobs submitted below.
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json",
		strings.NewReader(`{"app":"sssp","dataset":"HW","scale":0.02,"source":1073741824,"verify":true}`))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit out-of-range source: %v %v", resp, err)
	}
	var posted JobStatus
	err = json.NewDecoder(resp.Body).Decode(&posted)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode submit reply: %v", err)
	}
	if st, err := c.WaitTerminal(posted.ID, 30*time.Second); err != nil || st.State != StateFailed ||
		!strings.Contains(st.Err, "source 1073741824 outside [0, ") {
		t.Fatalf("out-of-range source: %+v err %v", st, err)
	}
	tel := obsserve.New()
	if err := s.Attach(tel); err != nil {
		t.Fatalf("attach: %v", err)
	}
	rec := httptest.NewRecorder()
	tel.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz after the failed job = %d %q, want 200", rec.Code, rec.Body)
	}

	// Error mapping: bad spec → 400, unknown id → 404, unfinished → 409.
	if _, err := c.Submit(JobSpec{App: "nope", Dataset: "HW"}); err == nil ||
		errors.Is(err, ErrSaturated) || errors.Is(err, ErrDraining) {
		t.Fatalf("bad spec error: %v", err)
	}
	if _, err := c.Status("job-999"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("unknown id: %v", err)
	}
	if _, err := c.Result("job-999"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("unknown id result: %v", err)
	}
	slow := slowSpec(5000, 40)
	sid, err := c.Submit(slow)
	if err != nil {
		t.Fatalf("submit slow: %v", err)
	}
	if _, err := c.Result(sid); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("unfinished result: %v", err)
	}
	// Saturate: one running (2 cores), one queued, then shed with 429.
	if _, err := c.Submit(slow); err != nil {
		t.Fatalf("fill queue: %v", err)
	}
	if _, err := c.Submit(slow); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated over HTTP, got %v", err)
	}
	// Cancel over HTTP propagates into the driver.
	if err := c.Cancel(sid); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st, err = c.WaitTerminal(sid, 10*time.Second)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("canceled: %+v err %v", st, err)
	}
}

// TestReadyzIdleService: a freshly attached service that has run nothing is
// ready (a rollout gate must pass on an idle server) until a drain starts.
func TestReadyzIdleService(t *testing.T) {
	s := New(Config{Cores: 2})
	srv := obsserve.New()
	if err := s.Attach(srv); err != nil {
		t.Fatalf("attach: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	readyz := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := readyz(); code != http.StatusOK {
		t.Fatalf("idle service: /readyz = %d %q, want 200", code, body)
	}
	s.Drain(time.Second)
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining service: /readyz = %d %q, want 503 draining", code, body)
	}
}

func TestAttachTelemetry(t *testing.T) {
	s := New(Config{Cores: 2})
	srv := obsserve.New()
	if err := s.Attach(srv); err != nil {
		t.Fatalf("attach: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	id, err := c.Submit(tinySpec("sssp"))
	if err != nil {
		t.Fatalf("submit via mounted API: %v", err)
	}
	if _, err := c.WaitTerminal(id, 30*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if err := obsserve.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	for _, want := range []string{
		"argan_service_cores 2",
		"argan_service_jobs_completed_total 1",
		`argan_job_state{app="sssp",job="` + id + `",state="done"} 2`,
		`argan_job_updates_total{app="sssp",job="` + id + `"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	s.Drain(10 * time.Second)
	code, body = get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz during drain: %d %q", code, body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "argan_service_draining 1") {
		t.Fatalf("draining gauge not exported")
	}
	// Submits over the mounted API now refuse with 503.
	if _, err := c.Submit(tinySpec("sssp")); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining via HTTP, got %v", err)
	}
}

func TestPreloadSharesFragments(t *testing.T) {
	s := New(Config{Cores: 4})
	if err := s.Preload("HW", 0.02, 2); err != nil {
		t.Fatalf("preload: %v", err)
	}
	if err := s.Preload("nope", 1, 2); err == nil {
		t.Fatal("preload of unknown dataset succeeded")
	}
	// Two jobs over the same (dataset, scale, workers) must reuse the one
	// cached partition (and pin the same version).
	p1, err := s.data.pin("HW", 0.02, 2)
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	p2, _ := s.data.pin("HW", 0.02, 2)
	if p1.g != p2.g || len(p1.frags) != 2 || p1.frags[0] != p2.frags[0] || p1.version != p2.version {
		t.Fatal("fragment cache did not share")
	}
}
