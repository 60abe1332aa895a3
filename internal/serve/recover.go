package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"argan/internal/algorithms"
	"argan/internal/durable"
	"argan/internal/graph"
	"argan/internal/mem"
)

// Startup recovery and the snapshot flusher: the serve-side half of the
// durability layer (internal/durable holds the on-disk formats).
//
// Recovery is replay, not trust: the base dataset is regenerated
// deterministically at version 0, each WAL record's batch is re-applied
// through the same ApplyMutations/Freeze path a live mutation takes, and the
// resulting frozen fingerprint must equal the one recorded when the batch
// was acknowledged. A record that re-applies to a different graph than it
// was acked against is treated exactly like a corrupt one — the log is
// truncated right before it, and the service resumes from the last version
// it can prove. A log an older binary left in WAL format 1 is replayed the
// same way against the fingerprint function that format recorded
// (graph.FingerprintV1), and what replays clean is rewritten as format 2
// before the dataset is shared. Warm-fixpoint snapshots are an optimization
// on top: a snapshot entry is reseeded into the warm cache only when its
// version is one the replay actually reconstructed and its array shape
// matches both the app and the graph; anything else is skipped and
// recomputed cold.

// dsRecovery is what startup recovery replayed for one dataset.
type dsRecovery struct {
	durable.RecoverStats
	// WarmReseeded / WarmSkipped count snapshot fixpoints accepted into the
	// warm cache vs rejected (version skew, kind mismatch, wrong length).
	WarmReseeded int
	WarmSkipped  int
	// SnapshotDiscarded reports the snapshot file was present but corrupt;
	// recovery proceeded cold from the WAL.
	SnapshotDiscarded bool
	// DurationMS is the wall time of recoverDurable: WAL open-scan, replay
	// and warm reseed, not the build of the base graph they start from.
	DurationMS float64
}

// RecoveryStats aggregates startup recovery across every dataset with
// durable state, exposed through Stats (GET /api/service) so a restart
// drill can assert on exactly what was replayed.
type RecoveryStats struct {
	// Datasets is how many dataset keys were recovered from the store.
	Datasets int `json:"datasets"`
	// Records / Bytes count the WAL records replayed onto base graphs.
	Records int   `json:"records_replayed"`
	Bytes   int64 `json:"bytes_replayed"`
	// TruncatedTail reports at least one WAL had a torn, corrupt or
	// semantically rejected tail cut during recovery.
	TruncatedTail bool `json:"truncated_tail"`
	// WarmReseeded / WarmSkipped total the per-dataset snapshot verdicts.
	WarmReseeded int `json:"warm_reseeded"`
	WarmSkipped  int `json:"warm_skipped"`
	// SnapshotsDiscarded counts corrupt snapshot files ignored.
	SnapshotsDiscarded int `json:"snapshots_discarded"`
	// DurationMS is the wall time spent on WAL open-scan, replay and warm
	// reseed, summed over the datasets (they recover one after another);
	// building the base graphs is not in it.
	DurationMS float64 `json:"duration_ms"`
}

// parseDSKey inverts dsName: "HW@0.25" → ("HW", 0.25). %g formatting makes
// the round trip exact for every scale the service accepts.
func parseDSKey(key string) (dataset string, scale float64, ok bool) {
	name, sc, found := strings.Cut(key, "@")
	if !found || name == "" {
		return "", 0, false
	}
	f, err := strconv.ParseFloat(sc, 64)
	if err != nil || f <= 0 {
		return "", 0, false
	}
	return name, f, true
}

// fixpointFits reports whether both arrays of a persisted entry carry the
// value type of its app's row in the live-app table, one value per vertex of
// an n-vertex graph. An entry whose arrays contradict its app (or that names
// an app the table does not hold) is corruption or format drift and is
// skipped at reseed.
func fixpointFits[V any](e durable.WarmFixpoint, n int) func(*algorithms.LiveApp[V]) (bool, error) {
	return func(*algorithms.LiveApp[V]) (bool, error) {
		values, okV := e.Values.([]V)
		psi, okP := e.Psi.([]V)
		return okV && okP && len(values) == n && len(psi) == n, nil
	}
}

// recoverDurable replays the dataset's WAL on top of the freshly loaded
// base graph and reseeds the warm cache from the snapshot. It runs inside
// the state entry's once-fill, before ds is shared, so no locking is
// needed; ds.g is the base graph at version 0 on entry and the last
// durable version on return.
func (ds *dsState) recoverDurable(store *durable.Store) error {
	start := time.Now()
	defer func() { ds.rec.DurationMS = float64(time.Since(start)) / float64(time.Millisecond) }()
	wal, recs, stats, err := store.OpenWAL(ds.key)
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	ds.wal = wal
	ds.rec.RecoverStats = stats

	snap, err := store.ReadSnapshot(ds.key)
	if err != nil {
		// A corrupt snapshot costs warm starts, never correctness: the WAL
		// is the version authority, so recovery proceeds cold.
		ds.rec.SnapshotDiscarded = true
		snap = nil
	}

	// Versions whose graphs the snapshot needs pinned: a reseeded fixpoint
	// keeps the graph it converged on so the incremental planner can diff
	// old-adjacency against new.
	need := make(map[uint64]bool)
	if snap != nil {
		for _, e := range snap.Entries {
			need[e.Version] = true
		}
	}

	g := ds.g
	held := map[uint64]*graph.Graph{g.Version(): g}
	applied := 0
	var appliedBytes int64
	legacy := wal.Legacy()
	for i, rec := range recs {
		ng, _, aerr := g.ApplyMutations(rec.Batch)
		if aerr == nil {
			ng.Freeze()
			fp, _ := ng.FrozenFingerprint()
			if legacy {
				fp = ng.FingerprintV1()
			}
			if fp != rec.Fingerprint {
				aerr = fmt.Errorf("version %d replays to fingerprint %#x, wal recorded %#x", rec.Version, fp, rec.Fingerprint)
			}
		}
		if aerr != nil {
			// CRC-valid but semantically unreplayable (base dataset drift,
			// fingerprint mismatch): cut the log here so the rejected suffix
			// cannot resurrect on the next restart, and resume from the
			// last version that replays clean.
			if terr := wal.Truncate(rec.Offset, g.Version()); terr != nil {
				return fmt.Errorf("truncate rejected tail: %w (rejected because: %v)", terr, aerr)
			}
			ds.rec.Truncated = true
			break
		}
		g = ng
		applied++
		appliedBytes += rec.End - rec.Offset
		if legacy {
			// Re-stamp the record in place with its format-2 fingerprint.
			recs[i].Fingerprint, _ = g.FrozenFingerprint()
		}
		if need[g.Version()] {
			held[g.Version()] = g
		}
		ds.log = append(ds.log, mutRecord{version: rec.Version, touched: rec.Batch.Endpoints()})
		if len(ds.log) > maxMutLog {
			ds.log = ds.log[len(ds.log)-maxMutLog:]
		}
	}
	ds.rec.Records = applied
	ds.rec.Bytes = appliedBytes
	if err := g.CheckFrozen(); err != nil {
		return fmt.Errorf("recovered graph at version %d: %w", g.Version(), err)
	}
	if legacy {
		// Only now: the fingerprints about to be written were carried from
		// batch to batch, and the full re-hash above has just confirmed them.
		if err := wal.Upgrade(recs[:applied]); err != nil {
			return fmt.Errorf("upgrade format-1 wal: %w", err)
		}
	}
	ds.g = g

	if snap == nil {
		return nil
	}
	n := g.NumVertices()
	for _, e := range snap.Entries {
		wk := warmKey{app: e.App, source: int(e.Source), eps: e.Eps}
		fits, _ := algorithms.DispatchLive(e.App, fixpointFits[float64](e, n), fixpointFits[int32](e, n), fixpointFits[uint32](e, n))
		hg := held[e.Version]
		switch {
		case e.Version > g.Version():
			// Version skew: the snapshot outran the surviving WAL (its tail
			// was lost or rejected). A fixpoint from a version the service
			// cannot reconstruct is unusable.
			ds.rec.WarmSkipped++
		case hg == nil:
			ds.rec.WarmSkipped++ // version replayed but graph not retained (duplicate key)
		case !fits:
			ds.rec.WarmSkipped++
		default:
			if cur := ds.warm[wk]; cur == nil || cur.version <= e.Version {
				ds.warm[wk] = &warmEntry{version: e.Version, g: hg, values: e.Values, psi: e.Psi}
				ds.rec.WarmReseeded++
			} else {
				ds.rec.WarmSkipped++
			}
		}
	}
	// Everything reseeded is already on disk: start the flush generation
	// clock at parity so the first snapshot tick is a no-op until a job
	// actually stores a fresh fixpoint.
	ds.warmFlushed = ds.warmGen
	return nil
}

// recoverAll enumerates the store and recovers every known dataset key,
// aggregating per-dataset stats. Unknown keys (a foreign directory in the
// state dir, a dataset this build does not ship) are skipped, not errors:
// the state dir may be shared across binary versions.
func (s *Service) recoverAll() (RecoveryStats, error) {
	var rs RecoveryStats
	keys, err := s.data.store.Keys()
	if err != nil {
		return rs, fmt.Errorf("enumerate state dir: %w", err)
	}
	for _, key := range keys {
		name, scale, ok := parseDSKey(key)
		if !ok {
			continue
		}
		if _, known := graph.DatasetInfo(name); !known {
			continue
		}
		ds, err := s.data.state(name, scale)
		if err != nil {
			return rs, err
		}
		rs.Datasets++
		rs.Records += ds.rec.Records
		rs.Bytes += ds.rec.Bytes
		rs.TruncatedTail = rs.TruncatedTail || ds.rec.Truncated
		rs.WarmReseeded += ds.rec.WarmReseeded
		rs.WarmSkipped += ds.rec.WarmSkipped
		if ds.rec.SnapshotDiscarded {
			rs.SnapshotsDiscarded++
		}
		rs.DurationMS += ds.rec.DurationMS
	}
	return rs, nil
}

// SnapshotNow flushes every dataset whose warm cache changed since its last
// persisted snapshot, returning how many snapshot files were written. Write
// errors are counted (Stats.SnapshotErrs) and the first is returned, but
// one dataset's bad disk does not stop the others' flushes. A service
// without a state dir returns (0, nil).
func (s *Service) SnapshotNow() (int, error) {
	if s.data.store == nil {
		return 0, nil
	}
	wrote := 0
	var firstErr error
	for _, h := range s.data.materialized() {
		ok, err := s.snapshotDS(h.ds)
		if err != nil {
			s.mu.Lock()
			s.snapshotErrs++
			s.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot %s: %w", h.ds.key, err)
			}
			continue
		}
		if ok {
			wrote++
		}
	}
	return wrote, firstErr
}

// snapshotDS flushes one dataset's warm cache if it is dirty. The encode
// competes with tenant jobs for the memory pool via a commitment-only hold;
// when the pool cannot cover it the flush is deferred (counted, not
// errored) — durability of fixpoints yields to live work, and the WAL keeps
// correctness either way.
func (s *Service) snapshotDS(ds *dsState) (bool, error) {
	ds.mu.Lock()
	if ds.key == "" || ds.warmGen == ds.warmFlushed {
		ds.mu.Unlock()
		return false, nil
	}
	gen := ds.warmGen
	snap := &durable.Snapshot{Entries: make([]durable.WarmFixpoint, 0, len(ds.warm))}
	for wk, e := range ds.warm {
		snap.Entries = append(snap.Entries, durable.WarmFixpoint{
			App: wk.app, Source: int32(wk.source), Eps: wk.eps,
			Version: e.version, Values: e.values, Psi: e.psi,
		})
	}
	ds.mu.Unlock()

	release, err := s.pool.Hold(snap.EncodedBytes() + 64<<10)
	if err != nil {
		if errors.Is(err, mem.ErrPoolExhausted) {
			s.mu.Lock()
			s.snapshotsDeferred++
			s.mu.Unlock()
			return false, nil
		}
		return false, err
	}
	defer release()
	if err := s.data.store.WriteSnapshot(ds.key, snap); err != nil {
		return false, err
	}
	ds.mu.Lock()
	// Forward-only: a storeWarm that landed mid-flush bumped warmGen past
	// gen, leaving the dataset dirty for the next tick.
	if ds.warmFlushed < gen {
		ds.warmFlushed = gen
	}
	ds.mu.Unlock()
	s.mu.Lock()
	s.snapshots++
	s.mu.Unlock()
	return true, nil
}

// snapshotLoop is the periodic flusher started by Open when both StateDir
// and SnapshotEvery are set. Errors are counted in Stats, never fatal.
func (s *Service) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			_, _ = s.SnapshotNow() // errors counted in snapshotErrs
		}
	}
}

// shutdownDurable stops the flusher, takes a final snapshot and closes the
// WALs. Idempotent; Drain calls it after the last admitted job finishes.
// Mutations racing the shutdown fail cleanly at Append ("wal closed")
// without the in-memory version moving, so memory and disk stay agreed.
func (s *Service) shutdownDurable() {
	s.shutdownOnce.Do(func() {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		if s.data.store == nil {
			return
		}
		_, _ = s.SnapshotNow()
		for _, h := range s.data.materialized() {
			if h.ds.wal != nil {
				_ = h.ds.wal.Close()
			}
		}
	})
}

// Recovery returns what startup recovery replayed, or nil for a service
// opened without a state dir. The value is immutable after Open.
func (s *Service) Recovery() *RecoveryStats { return s.recovery }
