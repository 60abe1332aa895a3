package durable

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"argan/internal/graph"
)

func batchN(n int) graph.MutationBatch {
	var b graph.MutationBatch
	for i := 0; i < n; i++ {
		b.Inserts = append(b.Inserts, graph.Edge{Src: graph.VID(i), Dst: graph.VID(i + 1), W: float64(i) + 0.5})
	}
	b.Deletes = append(b.Deletes, graph.Edge{Src: graph.VID(n), Dst: 0})
	return b
}

func appendRecords(t *testing.T, path string, n int) []Record {
	t.Helper()
	w, recs, stats, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(recs) != 0 || stats.Records != 0 {
		t.Fatalf("fresh WAL has %d records", len(recs))
	}
	for v := 1; v <= n; v++ {
		rec := Record{Version: uint64(v), Fingerprint: uint64(v) * 0x9E3779B97F4A7C15, Batch: batchN(v)}
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append v%d: %v", v, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen to hand back records with their frame offsets populated (only
	// the open scan locates frames), so corruption surgery can aim at them.
	w, out, _, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen for offsets: %v", err)
	}
	w.Close()
	return out
}

func TestWALAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	want := appendRecords(t, path, 3)

	w, recs, stats, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	if stats.Truncated {
		t.Fatalf("clean log reported a truncated tail: %+v", stats)
	}
	if len(recs) != len(want) {
		t.Fatalf("reopen found %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Version != want[i].Version || rec.Fingerprint != want[i].Fingerprint {
			t.Fatalf("record %d: got v%d fp %#x, want v%d fp %#x", i, rec.Version, rec.Fingerprint, want[i].Version, want[i].Fingerprint)
		}
		if !reflect.DeepEqual(rec.Batch, want[i].Batch) {
			t.Fatalf("record %d batch mismatch:\n got %+v\nwant %+v", i, rec.Batch, want[i].Batch)
		}
		if rec.End <= rec.Offset || rec.Offset < walHeaderLen {
			t.Fatalf("record %d has bad frame bounds [%d, %d)", i, rec.Offset, rec.End)
		}
	}
	if w.LastVersion() != 3 {
		t.Fatalf("LastVersion = %d, want 3", w.LastVersion())
	}
	// The chain continues across the reopen.
	if err := w.Append(Record{Version: 4, Batch: batchN(1)}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
}

func TestWALRefusesChainBreaks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{Version: 2, Batch: batchN(1)}); err == nil {
		t.Fatal("append of version 2 onto an empty log succeeded")
	}
	if err := w.Append(Record{Version: 1, Batch: batchN(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Version: 3, Batch: batchN(1)}); err == nil {
		t.Fatal("append leaving a version hole succeeded")
	}
}

// TestWALRecoveryTable drives the documented corruption modes byte-by-byte
// and asserts exactly which records survive the reopen scan.
func TestWALRecoveryTable(t *testing.T) {
	cases := []struct {
		name        string
		corrupt     func(t *testing.T, path string, recs []Record)
		wantRecords int
		wantTrunc   bool
		wantErr     error // the open fails with this and leaves the file alone
	}{
		{"torn-tail-garbage", func(t *testing.T, path string, _ []Record) {
			// A kill -9 mid-append: plausible frame header, torn payload.
			f := mustOpen(t, path)
			defer f.Close()
			frame := []byte{200, 0, 0, 0, 0xAB, 0xCD, 0xEF, 0x01, 1, 2, 3}
			if _, err := f.WriteAt(frame, size(t, f)); err != nil {
				t.Fatal(err)
			}
		}, 3, true, nil},
		{"flipped-payload-byte", func(t *testing.T, path string, recs []Record) {
			f := mustOpen(t, path)
			defer f.Close()
			off := recs[2].Offset + frameLen + 3 // inside the last payload
			flipByteAt(t, f, off)
		}, 2, true, nil},
		{"flipped-crc-byte", func(t *testing.T, path string, recs []Record) {
			f := mustOpen(t, path)
			defer f.Close()
			flipByteAt(t, f, recs[2].Offset+5) // inside the CRC field
		}, 2, true, nil},
		{"zero-length-frame", func(t *testing.T, path string, _ []Record) {
			f := mustOpen(t, path)
			defer f.Close()
			if _, err := f.WriteAt(make([]byte, frameLen), size(t, f)); err != nil {
				t.Fatal(err)
			}
		}, 3, true, nil},
		{"truncated-payload", func(t *testing.T, path string, _ []Record) {
			f := mustOpen(t, path)
			defer f.Close()
			if err := f.Truncate(size(t, f) - 5); err != nil {
				t.Fatal(err)
			}
		}, 2, true, nil},
		{"version-hole-frame", func(t *testing.T, path string, _ []Record) {
			// A CRC-valid record that skips version 4 → 7: the scan must stop
			// at the chain break even though every checksum passes.
			f := mustOpen(t, path)
			defer f.Close()
			payload, err := encodePayload(Record{Version: 7, Batch: batchN(1)})
			if err != nil {
				t.Fatal(err)
			}
			writeFrame(t, f, size(t, f), payload)
		}, 3, true, nil},
		{"bad-header", func(t *testing.T, path string, _ []Record) {
			f := mustOpen(t, path)
			defer f.Close()
			flipByteAt(t, f, 1) // inside the magic
		}, 0, true, nil},
		{"format-zero", func(t *testing.T, path string, _ []Record) {
			// One flipped bit in the format byte (2 → 0): our magic over a
			// format nobody ever wrote is as foreign as a wrong magic, and is
			// started over like one.
			f := mustOpen(t, path)
			defer f.Close()
			if _, err := f.WriteAt([]byte{0, 0, 0, 0}, 4); err != nil {
				t.Fatal(err)
			}
		}, 0, true, nil},
		{"future-format", func(t *testing.T, path string, _ []Record) {
			// Our magic, a format this binary does not know: a newer binary's
			// acknowledged history, not garbage to start over from.
			f := mustOpen(t, path)
			defer f.Close()
			if _, err := f.WriteAt([]byte{byte(walFormat + 1), 0, 0, 0}, 4); err != nil {
				t.Fatal(err)
			}
		}, 0, false, ErrFutureFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			recs := appendRecords(t, path, 3)
			tc.corrupt(t, path, recs)

			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			w, got, stats, err := OpenWAL(path)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("recovery open: %v, want %v", err, tc.wantErr)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
					t.Fatalf("refused log was modified: %d bytes, had %d", len(after), len(before))
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer w.Close()
			if len(got) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(got), tc.wantRecords)
			}
			if stats.Truncated != tc.wantTrunc {
				t.Fatalf("Truncated = %v, want %v", stats.Truncated, tc.wantTrunc)
			}
			for i, rec := range got {
				if rec.Version != uint64(i+1) {
					t.Fatalf("record %d has version %d", i, rec.Version)
				}
			}
			// Recovery must leave an appendable log continuing the chain.
			if err := w.Append(Record{Version: uint64(tc.wantRecords + 1), Batch: batchN(1)}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			// And a second open must be clean: the damage was cut, not kept.
			w.Close()
			_, got2, stats2, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if stats2.Truncated || len(got2) != tc.wantRecords+1 {
				t.Fatalf("second open: %d records truncated=%v, want %d records clean", len(got2), stats2.Truncated, tc.wantRecords+1)
			}
		})
	}
}

func TestWALSemanticTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	appendRecords(t, path, 3)
	w, recs, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	// Reject record 2 (version 2) as replay would on a fingerprint mismatch.
	if err := w.Truncate(recs[1].Offset, recs[0].Version); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if w.LastVersion() != 1 {
		t.Fatalf("LastVersion after truncate = %d, want 1", w.LastVersion())
	}
	w.Close()
	_, got, stats, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || stats.Truncated {
		t.Fatalf("after semantic truncate: %d records truncated=%v, want 1 clean", len(got), stats.Truncated)
	}
}

// TestWALLegacyUpgrade: a format-1 log opens with its records but read-only,
// and Upgrade swaps in a format-2 log that appends and reopens like any other.
func TestWALLegacyUpgrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	want := appendRecords(t, path, 3)
	f := mustOpen(t, path)
	if _, err := f.WriteAt([]byte{byte(walFormatV1), 0, 0, 0}, 4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, recs, stats, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Legacy() || len(recs) != 3 || stats.Truncated {
		t.Fatalf("format-1 open: legacy=%v, %d records, truncated=%v", w.Legacy(), len(recs), stats.Truncated)
	}
	if err := w.Append(Record{Version: 4, Batch: batchN(1)}); err == nil {
		t.Fatal("a format-1 log took an append")
	}
	if err := w.Upgrade([]Record{recs[0], recs[2]}); err == nil {
		t.Fatal("Upgrade accepted a version hole")
	}
	// Two of the three replayed clean; they come back re-stamped.
	for i := range recs[:2] {
		recs[i].Fingerprint = ^recs[i].Fingerprint
	}
	if err := w.Upgrade(recs[:2]); err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if w.Legacy() || w.LastVersion() != 2 {
		t.Fatalf("after Upgrade: legacy=%v last=%d", w.Legacy(), w.LastVersion())
	}
	if err := w.Upgrade(nil); err == nil {
		t.Fatal("Upgrade ran twice")
	}
	if err := w.Append(Record{Version: 3, Fingerprint: 7, Batch: batchN(2)}); err != nil {
		t.Fatalf("append after Upgrade: %v", err)
	}
	w.Close()

	w2, got, stats, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Legacy() || len(got) != 3 || stats.Truncated {
		t.Fatalf("reopen: legacy=%v, %d records, truncated=%v", w2.Legacy(), len(got), stats.Truncated)
	}
	for i, rec := range got[:2] {
		if rec.Fingerprint != ^want[i].Fingerprint || !reflect.DeepEqual(rec.Batch, want[i].Batch) {
			t.Fatalf("record %d after upgrade: fp %#x batch %+v", i, rec.Fingerprint, rec.Batch)
		}
	}
	if got[2].Fingerprint != 7 {
		t.Fatalf("appended record reads back fp %#x", got[2].Fingerprint)
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Fatalf("upgrade left %d files behind, want the log alone", len(ents))
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func size(t *testing.T, f *os.File) int64 {
	t.Helper()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func flipByteAt(t *testing.T, f *os.File, off int64) {
	t.Helper()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func writeFrame(t *testing.T, f *os.File, off int64, payload []byte) {
	t.Helper()
	frame := make([]byte, frameLen, frameLen+len(payload))
	length, crc := uint32(len(payload)), crc32.ChecksumIEEE(payload)
	frame[0], frame[1], frame[2], frame[3] = byte(length), byte(length>>8), byte(length>>16), byte(length>>24)
	frame[4], frame[5], frame[6], frame[7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	frame = append(frame, payload...)
	if _, err := f.WriteAt(frame, off); err != nil {
		t.Fatal(err)
	}
}

func testSnapshot() *Snapshot {
	return &Snapshot{Entries: []WarmFixpoint{
		{App: "wcc", Source: 0, Eps: 1e-3, Version: 2, Values: []uint32{1, 1, 2}, Psi: []uint32{1, 1, 2}},
		{App: "sssp", Source: 3, Eps: 1e-3, Version: 5, Values: []float64{0, 1.5, 2.5}, Psi: []float64{0, 1.5, 2.5}},
		{App: "bfs", Source: 1, Eps: 1e-3, Version: 5, Values: []int32{1, 0, 2}, Psi: []int32{1, 0, 2}},
	}}
}

func TestSnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := testSnapshot().Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("decoded %d entries, want 3", len(got.Entries))
	}
	// Entries come back sorted by (app, source, eps).
	if got.Entries[0].App != "bfs" || got.Entries[1].App != "sssp" || got.Entries[2].App != "wcc" {
		t.Fatalf("entries not sorted: %s %s %s", got.Entries[0].App, got.Entries[1].App, got.Entries[2].App)
	}
	for _, e := range got.Entries {
		var want WarmFixpoint
		for _, w := range testSnapshot().Entries {
			if w.App == e.App {
				want = w
			}
		}
		if e.Source != want.Source || e.Version != want.Version || e.Eps != want.Eps ||
			!reflect.DeepEqual(e.Values, want.Values) || !reflect.DeepEqual(e.Psi, want.Psi) {
			t.Fatalf("entry %s round-tripped to %+v, want %+v", e.App, e, want)
		}
	}
}

func TestSnapshotSkipsUncarriableEntries(t *testing.T) {
	snap := &Snapshot{Entries: []WarmFixpoint{
		{App: "sssp", Values: []float64{1}, Psi: []float64{1}, Version: 1},
		{App: "odd", Values: []string{"x"}, Psi: []string{"x"}},  // unsupported type
		{App: "mix", Values: []float64{1}, Psi: []int32{1}},      // kind mismatch
		{App: "len", Values: []float64{1, 2}, Psi: []float64{1}}, // length mismatch
	}}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].App != "sssp" {
		t.Fatalf("decoded %+v, want only the sssp entry", got.Entries)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := testSnapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	for name, mutate := range map[string]func([]byte) []byte{
		"flipped-byte": func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0x10; return b },
		"bad-magic":    func(b []byte) []byte { b = append([]byte(nil), b...); b[0] ^= 0xFF; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-7] },
		"empty":        func([]byte) []byte { return nil },
	} {
		if _, err := ReadSnapshot(bytes.NewReader(mutate(clean))); err == nil {
			t.Errorf("%s snapshot decoded without error", name)
		}
	}
}

func TestStoreLayoutAndKeys(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(""); err == nil {
		t.Fatal("OpenStore(\"\") succeeded")
	}

	w, _, _, err := st.OpenWAL("HW@0.05")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Version: 1, Batch: batchN(1)}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := st.WriteSnapshot("DP@0.25", testSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Foreign junk in the state dir must not surface as a key.
	if err := os.MkdirAll(filepath.Join(dir, "not-a-dataset"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"DP@0.25", "HW@0.05"}) {
		t.Fatalf("Keys = %v, want [DP@0.25 HW@0.05] (sorted, junk skipped)", keys)
	}

	snap, err := st.ReadSnapshot("DP@0.25")
	if err != nil || len(snap.Entries) != 3 {
		t.Fatalf("ReadSnapshot: %v (%d entries)", err, len(snap.Entries))
	}
	if snap, err := st.ReadSnapshot("HW@0.05"); err != nil || snap != nil {
		t.Fatalf("missing snapshot: got (%v, %v), want (nil, nil)", snap, err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := st.ReadSnapshot(bad); err == nil {
			t.Errorf("key %q accepted", bad)
		}
	}

	// A corrupt snapshot file reads as an error, not silently as data.
	p := st.SnapshotPath("DP@0.25")
	blob, _ := os.ReadFile(p)
	blob[len(blob)-2] ^= 0x01
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadSnapshot("DP@0.25"); err == nil {
		t.Fatal("corrupt snapshot decoded without error")
	}
}

// TestDirectorySyncs counts parent-directory fsyncs through the syncDir seam:
// a created file or directory and a renamed snapshot must each be followed by
// one, reopening what already exists by none, and an append by none (the
// mutate path pays only the log's own fsync).
func TestDirectorySyncs(t *testing.T) {
	real := syncDir
	var synced []string
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return real(dir)
	}
	defer func() { syncDir = real }()

	root := t.TempDir()
	st, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	keyDir := filepath.Join(root, "HW@0.05")
	var w *WAL
	for _, step := range []struct {
		name string
		do   func() error
		want []string
	}{
		{"new dataset dir and WAL", func() (err error) { w, _, _, err = st.OpenWAL("HW@0.05"); return }, []string{root, keyDir}},
		{"append", func() error { return w.Append(Record{Version: 1, Batch: batchN(1)}) }, nil},
		{"reopen existing WAL", func() error {
			if err := w.Close(); err != nil {
				return err
			}
			w, _, _, err = st.OpenWAL("HW@0.05")
			return err
		}, nil},
		{"snapshot write", func() error { return st.WriteSnapshot("HW@0.05", testSnapshot()) }, []string{keyDir}},
	} {
		synced = nil
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !reflect.DeepEqual(synced, step.want) {
			t.Errorf("%s: synced %v, want %v", step.name, synced, step.want)
		}
	}
	w.Close()

	// A failed directory sync fails the operation instead of being dropped.
	syncDir = func(string) error { return os.ErrPermission }
	if err := st.WriteSnapshot("HW@0.05", testSnapshot()); err == nil {
		t.Error("WriteSnapshot swallowed the directory sync error")
	}
	if _, _, _, err := st.OpenWAL("DP@0.25"); err == nil {
		t.Error("OpenWAL swallowed the directory sync error")
	}
}
