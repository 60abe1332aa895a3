// Package durable is the crash-durability layer of the resident service:
// a per-dataset append-only write-ahead log of applied mutation batches and
// periodic warm-fixpoint snapshots, both checksummed and torn-write
// tolerant, laid out under one state directory (store.go). A process killed
// with SIGKILL mid-write leaves at worst a torn tail; recovery truncates at
// the first bad record and resumes from the last durable version, so the
// service never serves a version it cannot prove it reached.
package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"argan/internal/graph"
)

const (
	walMagic = uint32(0x4157414C) // "LAWA" little-endian on disk, read back as magic
	// walFormat is the format this binary writes. Formats differ only in
	// which function produced Record.Fingerprint: graph.Fingerprint in
	// format 2, the byte-wise graph.FingerprintV1 in walFormatV1. A
	// format-1 log opens read-only (see WAL.Legacy) until Upgrade rewrites it.
	walFormat   = uint32(2)
	walFormatV1 = uint32(1)

	// walHeaderLen is the file header: magic + format.
	walHeaderLen = 8
	// frameLen prefixes every record: payload length + payload CRC32 (IEEE).
	frameLen = 8

	// MaxRecordBytes bounds one record's payload. A mutation batch is a few
	// edges to a few thousand; a length field past this bound is corruption,
	// not data, and recovery truncates there instead of allocating it.
	MaxRecordBytes = 16 << 20
)

// ErrFutureFormat is returned by OpenWAL for a log that carries our magic but
// a format number above the one this binary writes: a newer binary's
// acknowledged mutations, which an older one must neither guess at nor
// truncate. The file is left untouched.
var ErrFutureFormat = errors.New("durable: wal written by a newer format")

// Record is one committed mutation batch: the version the batch produced,
// the fingerprint of the graph at that version (replay integrity check), and
// the batch itself. In every record this binary appends, Fingerprint is the
// frozen result's graph.FrozenFingerprint, that is graph.Fingerprint's value;
// records read from a Legacy log hold graph.FingerprintV1 of the same graph
// instead, and the replayer compares against that. Offset/End locate the
// record's frame in the file, so a caller that rejects a record semantically
// (fingerprint mismatch on replay) can truncate the log right before it.
type Record struct {
	Version     uint64
	Fingerprint uint64
	Batch       graph.MutationBatch
	Offset      int64 // file offset of the record's frame
	End         int64 // file offset just past the payload
}

// RecoverStats summarizes one WAL open: how much was replayable and whether
// a corrupt or torn tail had to be cut.
type RecoverStats struct {
	// Records is the count of valid records scanned (frames + payloads).
	Records int `json:"records"`
	// Bytes is the total on-disk size of the valid records.
	Bytes int64 `json:"bytes"`
	// Truncated reports that the scan hit a short, corrupt or out-of-order
	// tail and cut the file back to the last valid record.
	Truncated bool `json:"truncated_tail"`
}

// WAL is one dataset's mutation log. Append is serialized internally; the
// scan happens once at open.
type WAL struct {
	path string

	mu          sync.Mutex
	f           *os.File
	format      uint32 // of the file on disk: walFormat, or walFormatV1 until Upgrade
	size        int64
	records     int
	lastVersion uint64
}

// encodePayload serializes a record body: version, fingerprint, insert and
// delete counts, then the edges (16 bytes each), all little-endian through
// the shared graph codec.
func encodePayload(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteLE(&buf, [2]uint64{rec.Version, rec.Fingerprint}); err != nil {
		return nil, err
	}
	if err := graph.WriteLE(&buf, [2]uint32{uint32(len(rec.Batch.Inserts)), uint32(len(rec.Batch.Deletes))}); err != nil {
		return nil, err
	}
	if err := graph.WriteLE(&buf, rec.Batch.Inserts); err != nil {
		return nil, err
	}
	if err := graph.WriteLE(&buf, rec.Batch.Deletes); err != nil {
		return nil, err
	}
	if buf.Len() > MaxRecordBytes {
		return nil, fmt.Errorf("durable: record for version %d is %d bytes, above the %d-byte bound", rec.Version, buf.Len(), MaxRecordBytes)
	}
	return buf.Bytes(), nil
}

// encodeFrame wraps the record's payload in its frame: payload length and
// CRC32 (IEEE), little-endian, then the payload.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameLen, frameLen+len(payload))
	length := uint32(len(payload))
	crc := crc32.ChecksumIEEE(payload)
	frame[0], frame[1], frame[2], frame[3] = byte(length), byte(length>>8), byte(length>>16), byte(length>>24)
	frame[4], frame[5], frame[6], frame[7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	return append(frame, payload...), nil
}

// edgeBytes is the encoded size of one graph.Edge (two uint32 + float64).
const edgeBytes = 16

func decodePayload(payload []byte) (Record, error) {
	br := bytes.NewReader(payload)
	var hdr struct {
		Version, Fingerprint uint64
		NIns, NDel           uint32
	}
	if err := graph.ReadLE(br, &hdr); err != nil {
		return Record{}, fmt.Errorf("durable: record header: %w", err)
	}
	want := 24 + edgeBytes*(int64(hdr.NIns)+int64(hdr.NDel))
	if int64(len(payload)) != want {
		return Record{}, fmt.Errorf("durable: record declares %d+%d edges needing %d bytes, payload has %d", hdr.NIns, hdr.NDel, want, len(payload))
	}
	rec := Record{Version: hdr.Version, Fingerprint: hdr.Fingerprint}
	rec.Batch.Inserts = make([]graph.Edge, hdr.NIns)
	if err := graph.ReadLE(br, rec.Batch.Inserts); err != nil {
		return Record{}, fmt.Errorf("durable: record inserts: %w", err)
	}
	rec.Batch.Deletes = make([]graph.Edge, hdr.NDel)
	if err := graph.ReadLE(br, rec.Batch.Deletes); err != nil {
		return Record{}, fmt.Errorf("durable: record deletes: %w", err)
	}
	return rec, nil
}

// OpenWAL opens (creating if absent) the log at path and scans it. Every
// frame is validated — length bound, CRC over the payload, decodability,
// and version monotonicity (first record is version 1, each next is +1,
// matching ApplyMutations' version chain from the deterministic base at
// version 0). The scan stops at the first bad frame and truncates the file
// there: a kill -9 mid-append leaves a short or garbage tail, and cutting
// it loses only the one record that was never acknowledged durable. A log
// created here has its directory entry fsynced before OpenWAL returns, so
// no append is acknowledged into a file a power loss could unlink.
//
// A header that is not ours starts the log over; one that is ours but of a
// newer format fails with ErrFutureFormat and is not touched; a format-1
// log is scanned like any other and comes back Legacy.
func OpenWAL(path string) (*WAL, []Record, RecoverStats, error) {
	created := false
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		created = true
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	}
	if err != nil {
		return nil, nil, RecoverStats{}, err
	}
	w := &WAL{path: path, f: f}
	recs, stats, err := w.scan()
	if err == nil && created {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	return w, recs, stats, nil
}

// scan validates the header and every frame, truncating at the first fault.
func (w *WAL) scan() ([]Record, RecoverStats, error) {
	var stats RecoverStats
	fi, err := w.f.Stat()
	if err != nil {
		return nil, stats, err
	}
	size := fi.Size()

	if size < walHeaderLen {
		// Fresh (or torn-before-header) file: write a clean header.
		if size != 0 {
			stats.Truncated = true
		}
		if err := w.reset(); err != nil {
			return nil, stats, err
		}
		return nil, stats, nil
	}
	var hdr [2]uint32
	if err := graph.ReadLE(io.NewSectionReader(w.f, 0, walHeaderLen), hdr[:]); err != nil {
		return nil, stats, err
	}
	switch {
	case hdr[0] == walMagic && hdr[1] > walFormat:
		return nil, stats, fmt.Errorf("%w: %s is format %d, this binary reads up to %d", ErrFutureFormat, w.path, hdr[1], walFormat)
	case hdr[0] != walMagic || hdr[1] == 0:
		// Not our file (or format 0, which no version of us wrote and one
		// flipped bit of format 2 reads as): refuse to guess at frames and
		// start the log over. The base dataset is
		// deterministic, so an empty log is always a consistent (if
		// conservative) recovery point.
		stats.Truncated = true
		if err := w.reset(); err != nil {
			return nil, stats, err
		}
		return nil, stats, nil
	}
	w.format = hdr[1]

	var recs []Record
	off := int64(walHeaderLen)
	lastVersion := uint64(0)
	truncate := false
	for off < size {
		var frame [frameLen]byte
		if n, err := w.f.ReadAt(frame[:], off); err != nil || n < frameLen {
			truncate = true // torn frame header
			break
		}
		length := int64(uint32(frame[0]) | uint32(frame[1])<<8 | uint32(frame[2])<<16 | uint32(frame[3])<<24)
		crc := uint32(frame[4]) | uint32(frame[5])<<8 | uint32(frame[6])<<16 | uint32(frame[7])<<24
		if length == 0 || length > MaxRecordBytes || off+frameLen+length > size {
			truncate = true // zero-length, absurd length, or torn payload
			break
		}
		payload := make([]byte, length)
		if _, err := w.f.ReadAt(payload, off+frameLen); err != nil {
			truncate = true
			break
		}
		if crc32.ChecksumIEEE(payload) != crc {
			truncate = true // flipped bits anywhere in the payload
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			truncate = true // CRC-valid but undecodable: treat as corrupt
			break
		}
		if rec.Version != lastVersion+1 {
			truncate = true // hole or reorder in the version chain
			break
		}
		rec.Offset = off
		rec.End = off + frameLen + length
		recs = append(recs, rec)
		lastVersion = rec.Version
		off = rec.End
	}
	if truncate || off != size {
		stats.Truncated = true
		if err := w.f.Truncate(off); err != nil {
			return nil, stats, err
		}
		if err := w.f.Sync(); err != nil {
			return nil, stats, err
		}
		size = off
	}
	w.size = size
	w.records = len(recs)
	w.lastVersion = lastVersion
	stats.Records = len(recs)
	stats.Bytes = size - walHeaderLen
	return recs, stats, nil
}

// reset truncates to an empty log with a fresh header.
func (w *WAL) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := graph.WriteLE(&buf, [2]uint32{walMagic, walFormat}); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(buf.Bytes(), 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.format = walFormat
	w.size = walHeaderLen
	w.records = 0
	w.lastVersion = 0
	return nil
}

// Legacy reports that the log on disk is format 1: its records hold
// graph.FingerprintV1 values, and it takes no appends until Upgrade has
// rewritten it.
func (w *WAL) Legacy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.format == walFormatV1
}

// Upgrade replaces a legacy log by a format-2 log holding recs — the records
// the caller replayed clean, each now carrying the format-2 fingerprint of
// its version. The new file is written beside the old one, fsynced and
// renamed over it, so a crash at any point leaves one whole log or the other.
func (w *WAL) Upgrade(recs []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("durable: wal %s is closed", w.path)
	}
	if w.format != walFormatV1 {
		return fmt.Errorf("durable: wal %s is format %d, nothing to upgrade", w.path, w.format)
	}
	size, last := int64(walHeaderLen), uint64(0)
	err := writeFileAtomic(w.path, func(f *os.File) error {
		bw := bufio.NewWriter(f)
		if err := graph.WriteLE(bw, [2]uint32{walMagic, walFormat}); err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Version != last+1 {
				return fmt.Errorf("durable: upgrade record version %d breaks the chain at %d", rec.Version, last)
			}
			frame, err := encodeFrame(rec)
			if err != nil {
				return err
			}
			if _, err := bw.Write(frame); err != nil {
				return err
			}
			size += int64(len(frame))
			last = rec.Version
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	_ = w.f.Close() // the unlinked format-1 file, only ever read
	w.f, w.format = f, walFormat
	w.size, w.records, w.lastVersion = size, len(recs), last
	return nil
}

// Append writes one record frame and fsyncs before returning, so a caller
// that acknowledges the mutation afterwards never acknowledges state the
// disk does not hold. Versions must continue the chain: the WAL refuses a
// record that would leave a hole, because the hole would silently truncate
// everything after it at the next open.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("durable: wal %s is closed", w.path)
	}
	if w.format != walFormat {
		return fmt.Errorf("durable: wal %s is format %d and takes no appends before Upgrade", w.path, w.format)
	}
	if rec.Version != w.lastVersion+1 {
		return fmt.Errorf("durable: append version %d breaks the chain at %d", rec.Version, w.lastVersion)
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.WriteAt(frame, w.size); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size += int64(len(frame))
	w.records++
	w.lastVersion = rec.Version
	return nil
}

// Truncate cuts the log back to offset off (a Record.Offset from the open
// scan), dropping that record and everything after it. lastVersion is the
// version of the last record kept. Replay uses this when a CRC-valid record
// fails its semantic check — fingerprint mismatch against the replayed
// graph — so the rejected suffix cannot resurrect on the next restart.
func (w *WAL) Truncate(off int64, lastVersion uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("durable: wal %s is closed", w.path)
	}
	if off < walHeaderLen || off > w.size {
		return fmt.Errorf("durable: truncate offset %d outside log [%d, %d]", off, walHeaderLen, w.size)
	}
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = off
	w.lastVersion = lastVersion
	return nil
}

// Size returns the current log size in bytes, header included.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// LastVersion returns the version of the last durable record (0 = none).
func (w *WAL) LastVersion() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastVersion
}

// Close closes the underlying file. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
