package serve

// Durability tests: in-process restart with warm resume, the corrupt-WAL
// recovery table driven through fault.InjectDisk, fingerprint-verified
// replay, the CheckFrozen safety net over a recovered dataset, and the
// retrying API client. The real-binary kill -9 soak lives in cmd/arganrun.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"argan/internal/durable"
	"argan/internal/fault"
	"argan/internal/graph"
)

const durDS, durScale = "HW", 0.02

func openDurable(t *testing.T, dir string, every time.Duration) *Service {
	t.Helper()
	s, err := Open(Config{Cores: 4, StateDir: dir, SnapshotEvery: every})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mutateN(t *testing.T, s *Service, n int, seed int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := s.data.pin(durDS, durScale, 2)
		if err != nil {
			t.Fatal(err)
		}
		req := churnRequest(p.g, durScale, seed+int64(i), 8)
		if _, err := s.Mutate(durDS, req); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
}

// seedDurable drives a durable service to a known state and drains it:
// three WAL records (versions 1..3) and a persisted snapshot whose sssp
// fixpoint converged on version 3.
func seedDurable(t *testing.T, dir string) {
	t.Helper()
	s := openDurable(t, dir, 0)
	runVerified(t, s, "sssp") // cold @ v0; fixpoint retained in memory
	mutateN(t, s, 2, 101)     // v1, v2
	runVerified(t, s, "sssp") // re-converges; fixpoint now @ v2
	mutateN(t, s, 1, 301)     // v3
	runVerified(t, s, "sssp") // fixpoint now @ v3
	if n, err := s.SnapshotNow(); err != nil || n != 1 {
		t.Fatalf("SnapshotNow = (%d, %v), want (1, nil)", n, err)
	}
	s.Drain(time.Minute)
}

// TestDurableRestartWarmResume is the in-process restart drill: a second
// Open over the same state dir must land on the exact durable version and
// the first job after restart must re-converge incrementally from the
// persisted fixpoint, reference-verified.
func TestDurableRestartWarmResume(t *testing.T) {
	dir := t.TempDir()
	seedDurable(t, dir)

	// One more version than the snapshot has seen: restart must replay it
	// from the WAL and bridge the persisted v3 fixpoint across it.
	s := openDurable(t, dir, 0)
	mutateN(t, s, 1, 401) // v4
	s.Drain(time.Minute)

	s2 := openDurable(t, dir, 0)
	defer s2.Drain(time.Minute)
	rec := s2.Recovery()
	if rec == nil {
		t.Fatal("durable service has nil Recovery()")
	}
	if rec.Datasets != 1 || rec.Records != 4 || rec.TruncatedTail {
		t.Fatalf("recovery = %+v, want 1 dataset, 4 records, clean tail", rec)
	}
	if rec.WarmReseeded < 1 {
		t.Fatalf("recovery reseeded %d warm fixpoints, want >= 1", rec.WarmReseeded)
	}
	if rec.DurationMS <= 0 {
		t.Fatalf("recovery of 4 records reports duration %v ms, want > 0", rec.DurationMS)
	}
	infos := s2.Datasets()
	if len(infos) != 1 || infos[0].Version != 4 {
		t.Fatalf("datasets after restart = %+v, want [%s@%g v4]", infos, durDS, durScale)
	}

	res := runVerified(t, s2, "sssp")
	if !res.Incremental || res.IncrementalFrom != 3 {
		t.Fatalf("first post-restart job: incremental=%v from=%d (fallback %q), want warm resume from v3",
			res.Incremental, res.IncrementalFrom, res.Fallback)
	}
	if res.Wrong != 0 || res.Version != 4 {
		t.Fatalf("post-restart job wrong=%d version=%d", res.Wrong, res.Version)
	}
	st := s2.Stats()
	if st.Incremental != 1 {
		t.Fatalf("Stats.Incremental = %d, want 1", st.Incremental)
	}
	if st.Recovery == nil || st.Recovery.Records != 4 {
		t.Fatalf("Stats.Recovery = %+v", st.Recovery)
	}
	ms := s2.data.dsMetrics()
	if len(ms) != 1 || ms[0].version != 4 || ms[0].warmHits != 1 {
		t.Fatalf("dataset metrics = %+v, want version 4, warmHits 1", ms)
	}
}

// TestDurableRecoveryCorruptionTable injects each disk-fault mode into the
// seeded WAL and asserts exactly what recovery salvages: which version the
// service resumes at, whether the tail was truncated, and whether the
// snapshot's v3 fixpoint is reseeded or rejected for version skew.
func TestDurableRecoveryCorruptionTable(t *testing.T) {
	cases := []struct {
		mode         fault.DiskFault
		wantVersion  uint64
		wantRecords  int
		wantTrunc    bool
		wantReseeded bool // snapshot fixpoint (converged @ v3) accepted
	}{
		// Garbage appended past the committed records: all three survive.
		{fault.DiskTornTail, 3, 3, true, true},
		// The last record's payload is torn/corrupted: resume at v2, and the
		// v3 snapshot outruns the log — version skew, fixpoint rejected.
		{fault.DiskTruncateTail, 2, 2, true, false},
		{fault.DiskFlipByte, 2, 2, true, false},
		// A forbidden zero-length frame after the committed tail.
		{fault.DiskZeroLength, 3, 3, true, true},
		// The last frame removed cleanly: skew again, but nothing corrupt.
		{fault.DiskDropTail, 2, 2, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			seedDurable(t, dir)
			walPath := filepath.Join(dir, dsName(durDS, durScale), "wal.log")
			if err := fault.InjectDisk(walPath, tc.mode, 42); err != nil {
				t.Fatalf("InjectDisk: %v", err)
			}

			s := openDurable(t, dir, 0)
			defer s.Drain(time.Minute)
			rec := s.Recovery()
			if rec.Records != tc.wantRecords || rec.TruncatedTail != tc.wantTrunc {
				t.Fatalf("recovery = %+v, want %d records truncated=%v", rec, tc.wantRecords, tc.wantTrunc)
			}
			if infos := s.Datasets(); len(infos) != 1 || infos[0].Version != tc.wantVersion {
				t.Fatalf("resumed at %+v, want v%d", infos, tc.wantVersion)
			}
			if tc.wantReseeded && rec.WarmReseeded < 1 {
				t.Fatalf("recovery = %+v, want the snapshot fixpoint reseeded", rec)
			}
			if !tc.wantReseeded && (rec.WarmReseeded != 0 || rec.WarmSkipped < 1) {
				t.Fatalf("recovery = %+v, want the v3 fixpoint rejected as version skew", rec)
			}

			// Whatever was salvaged must serve correct answers.
			res := runVerified(t, s, "sssp")
			if res.Version != tc.wantVersion || res.Wrong != 0 {
				t.Fatalf("post-recovery job: version=%d wrong=%d", res.Version, res.Wrong)
			}
		})
	}
}

// TestDurableRecoveryRejectsFingerprintMismatch: a CRC-valid record whose
// batch replays to a different frozen fingerprint than it recorded must be
// rejected and cut from the log so it cannot resurrect.
func TestDurableRecoveryRejectsFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	seedDurable(t, dir)
	walPath := filepath.Join(dir, dsName(durDS, durScale), "wal.log")

	w, recs, _, err := durable.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if err := w.Truncate(last.Offset, last.Version-1); err != nil {
		t.Fatal(err)
	}
	// Same batch, same version, poisoned fingerprint — CRC re-sealed by
	// Append, so only semantic replay can catch it.
	if err := w.Append(durable.Record{Version: last.Version, Fingerprint: last.Fingerprint ^ 0xDEAD, Batch: last.Batch}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	s := openDurable(t, dir, 0)
	rec := s.Recovery()
	if rec.Records != int(last.Version-1) || !rec.TruncatedTail {
		t.Fatalf("recovery = %+v, want %d records with the poisoned tail cut", rec, last.Version-1)
	}
	if infos := s.Datasets(); infos[0].Version != last.Version-1 {
		t.Fatalf("resumed at v%d, want v%d", infos[0].Version, last.Version-1)
	}
	s.Drain(time.Minute)

	// The rejected record must be gone from disk, not lurking for the next
	// restart.
	_, recs2, stats2, err := durable.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != int(last.Version-1) || stats2.Truncated {
		t.Fatalf("wal after rejection: %d records truncated=%v", len(recs2), stats2.Truncated)
	}
}

// downgradeWAL turns the seeded log into the format-1 log a binary from before
// the format bump would have left: header format 1, each record's fingerprint
// replaced by graph.FingerprintV1 of the version it produced, CRCs re-sealed.
// A non-zero poison corrupts that version's fingerprint.
func downgradeWAL(t *testing.T, walPath string, poison uint64) {
	t.Helper()
	w, recs, _, err := durable.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:], 1)
	g, err := graph.LoadDataset(durDS, durScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if g, _, err = g.ApplyMutations(rec.Batch); err != nil {
			t.Fatal(err)
		}
		fp := g.FingerprintV1()
		if rec.Version == poison {
			fp ^= 0xDEAD
		}
		payload := raw[rec.Offset+8 : rec.End] // past the frame's length and CRC
		binary.LittleEndian.PutUint64(payload[8:], fp)
		binary.LittleEndian.PutUint32(raw[rec.Offset+4:], crc32.ChecksumIEEE(payload))
	}
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveryUpgradesFormat1: a log left by a binary that recorded
// the byte-wise fingerprint is replayed record by record against that
// function, not reset; what replays clean is rewritten as format 2, takes
// appends, and is what the next restart replays. A legacy fingerprint that
// does not match still cuts the log at its record.
func TestDurableRecoveryUpgradesFormat1(t *testing.T) {
	for _, tc := range []struct {
		name        string
		poison      uint64
		wantVersion uint64
	}{
		{"clean", 0, 3},
		{"v2 fingerprint corrupted", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedDurable(t, dir)
			walPath := filepath.Join(dir, dsName(durDS, durScale), "wal.log")
			downgradeWAL(t, walPath, tc.poison)

			s := openDurable(t, dir, 0)
			rec := s.Recovery()
			if rec.Records != int(tc.wantVersion) || rec.TruncatedTail != (tc.poison != 0) {
				t.Fatalf("recovery of the format-1 log = %+v, want %d records, truncated=%v", rec, tc.wantVersion, tc.poison != 0)
			}
			if infos := s.Datasets(); len(infos) != 1 || infos[0].Version != tc.wantVersion {
				t.Fatalf("resumed at %+v, want v%d", infos, tc.wantVersion)
			}
			if res := runVerified(t, s, "sssp"); res.Version != tc.wantVersion || res.Wrong != 0 {
				t.Fatalf("job over the upgraded dataset: version=%d wrong=%d", res.Version, res.Wrong)
			}
			mutateN(t, s, 1, 501) // the rewritten log takes appends
			s.Drain(time.Minute)

			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if format := binary.LittleEndian.Uint32(raw[4:]); format != 2 {
				t.Fatalf("log on disk after recovery is format %d, want 2", format)
			}
			s2 := openDurable(t, dir, 0)
			defer s2.Drain(time.Minute)
			rec2 := s2.Recovery()
			if rec2.Records != int(tc.wantVersion)+1 || rec2.TruncatedTail {
				t.Fatalf("second restart = %+v, want %d records, clean", rec2, tc.wantVersion+1)
			}
			if infos := s2.Datasets(); infos[0].Version != tc.wantVersion+1 {
				t.Fatalf("second restart resumed at v%d, want v%d", infos[0].Version, tc.wantVersion+1)
			}
		})
	}
}

// TestDurableRecoveryRefusesFutureFormat: a log from a newer binary fails the
// dataset's recovery, and with it Open, instead of being started over.
func TestDurableRecoveryRefusesFutureFormat(t *testing.T) {
	dir := t.TempDir()
	seedDurable(t, dir)
	walPath := filepath.Join(dir, dsName(durDS, durScale), "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:], 3)
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Cores: 4, StateDir: dir}); !errors.Is(err, durable.ErrFutureFormat) {
		t.Fatalf("Open over a format-3 log = %v, want ErrFutureFormat", err)
	}
	if after, _ := os.ReadFile(walPath); !bytes.Equal(after, raw) {
		t.Fatal("the refused log was modified")
	}
}

// TestCheckFrozenTripsOnRecoveredDataset: the frozen-fragment safety net
// must keep working over a replayed graph — an in-place weight write is
// detected at the next pin instead of poisoning jobs.
func TestCheckFrozenTripsOnRecoveredDataset(t *testing.T) {
	dir := t.TempDir()
	seedDurable(t, dir)
	s := openDurable(t, dir, 0)
	defer s.Drain(time.Minute)

	ds, err := s.data.state(durDS, durScale)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered graph at v3 is private to this service (built by
	// replay, not the shared memoized base), so scribbling on it only
	// poisons what this test owns.
	if v := ds.g.Version(); v != 3 {
		t.Fatalf("recovered at v%d, want 3", v)
	}
	var ws []float64
	for v := 0; v < ds.g.NumVertices(); v++ {
		if ws = ds.g.OutWeights(graph.VID(v)); len(ws) > 0 {
			break
		}
	}
	if len(ws) == 0 {
		t.Fatal("recovered graph has no arcs to corrupt")
	}
	ws[0] += 17 // the in-place mutation CheckFrozen exists to catch

	id, err := s.Submit(tinySpec("sssp"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id, time.Minute)
	if err != nil || st.State != StateFailed {
		t.Fatalf("job over a mutated frozen graph: %+v err %v, want failed", st, err)
	}
	if !strings.Contains(st.Err, graph.ErrFrozenMutated.Error()) {
		t.Fatalf("job error %q does not name the frozen mutation", st.Err)
	}
}

// TestClientRetriesDialFailures: a client pointed at a not-yet-listening
// address must retry through the capped backoff and succeed once the
// service binds — including POSTs, which are provably unsent on dial
// failures.
func TestClientRetriesDialFailures(t *testing.T) {
	s := New(Config{Cores: 2})
	defer s.Drain(time.Minute)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // release the port: dials now fail until the rebind below

	hs := &http.Server{Handler: s.APIHandler()}
	bound := make(chan struct{})
	go func() {
		time.Sleep(120 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("rebind %s: %v", addr, err)
			close(bound)
			return
		}
		close(bound)
		_ = hs.Serve(l2)
	}()
	defer hs.Close()

	c := &Client{Base: "http://" + addr, Retries: 30, Backoff: 20 * time.Millisecond}
	id, err := c.Submit(tinySpec("sssp"))
	if err != nil {
		t.Fatalf("submit through retries: %v", err)
	}
	<-bound
	if _, err := c.WaitTerminal(id, time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestClientPostNotRetriedAfterSend: once a POST has reached the server,
// a connection failure must NOT trigger a replay — the service may have
// applied it.
func TestClientPostNotRetriedAfterSend(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		mu.Unlock()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close() // die mid-exchange, after the request was received
		}
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Retries: 5, Backoff: time.Millisecond}
	if _, err := c.Submit(tinySpec("sssp")); err == nil {
		t.Fatal("submit against a connection-killing server succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 1 {
		t.Fatalf("POST attempted %d times, want exactly 1 (no replay after send)", posts)
	}
}

// TestClientGetRetriedAfterSend: GETs are idempotent, so the same
// mid-exchange death IS retried and the second attempt succeeds.
func TestClientGetRetriedAfterSend(t *testing.T) {
	s := New(Config{Cores: 2})
	defer s.Drain(time.Minute)
	var mu sync.Mutex
	gets := 0
	api := s.APIHandler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := gets
		gets++
		mu.Unlock()
		if n == 0 {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Retries: 3, Backoff: time.Millisecond}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("GET through retry: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gets < 2 {
		t.Fatalf("GET attempted %d times, want a retry after the killed attempt", gets)
	}
}

// TestWaitTerminalShortJob: a job that runs 5 ms is reported terminal within
// 15 ms (a fixed 20 ms poll quantised every short job up to 20 ms). The
// status endpoint is a stub, so the job's length is exact; the best of a few
// tries is taken so that one descheduled poll on a loaded box is not a
// verdict.
func TestWaitTerminalShortJob(t *testing.T) {
	var startNS atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		state := StateRunning
		if time.Now().UnixNano()-startNS.Load() >= int64(5*time.Millisecond) {
			state = StateDone
		}
		json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: state})
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL}
	if _, err := c.Status("j1"); err != nil { // open the keep-alive connection
		t.Fatal(err)
	}
	best := time.Hour
	for try := 0; try < 5; try++ {
		start := time.Now()
		startNS.Store(start.UnixNano())
		st, err := c.WaitTerminal("j1", time.Second)
		if err != nil || st.State != StateDone {
			t.Fatalf("WaitTerminal: %+v, %v", st, err)
		}
		best = min(best, time.Since(start))
	}
	if best >= 15*time.Millisecond {
		t.Fatalf("a 5 ms job was reported terminal after %v, want < 15 ms", best)
	}
}
