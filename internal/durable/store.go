package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store lays out durable state under one directory, one subdirectory per
// dataset key ("NAME@SCALE", matching the serve data cache's identity):
//
//	<dir>/<NAME@SCALE>/wal.log    mutation WAL (wal.go)
//	<dir>/<NAME@SCALE>/warm.snap  warm-fixpoint snapshot (snapshot.go)
//
// The WAL is append+fsync; the snapshot is written to a temp file and
// renamed over the old one, so at every instant the directory holds a
// consistent (possibly stale) snapshot and a prefix-valid WAL.
type Store struct {
	dir string
}

const (
	walFile  = "wal.log"
	snapFile = "warm.snap"
)

// OpenStore opens (creating if needed) a state directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("durable: state directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// syncDir fsyncs a directory, making entries just created in or renamed
// into it survive power loss. A variable so tests can count the calls.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return d.Close()
}

// keyDir returns the dataset's directory, creating it — and fsyncing its
// entry in the state directory — when absent.
func (s *Store) keyDir(key string) (string, error) {
	dir := filepath.Join(s.dir, key)
	err := os.Mkdir(dir, 0o755)
	if errors.Is(err, fs.ErrExist) {
		return dir, nil
	}
	if err != nil {
		return "", err
	}
	return dir, syncDir(s.dir)
}

// Dir returns the state directory root.
func (s *Store) Dir() string { return s.dir }

func validKey(key string) error {
	if key == "" || strings.ContainsAny(key, "/\\") || key == "." || key == ".." {
		return fmt.Errorf("durable: invalid dataset key %q", key)
	}
	return nil
}

// WALPath returns the log path for a dataset key (the file may not exist).
func (s *Store) WALPath(key string) string { return filepath.Join(s.dir, key, walFile) }

// SnapshotPath returns the snapshot path for a dataset key.
func (s *Store) SnapshotPath(key string) string { return filepath.Join(s.dir, key, snapFile) }

// Keys lists the dataset keys with durable state on disk, sorted, so
// startup recovery is deterministic in its dataset order.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range ents {
		if !e.IsDir() || validKey(e.Name()) != nil {
			continue
		}
		if _, err := os.Stat(s.WALPath(e.Name())); err == nil {
			keys = append(keys, e.Name())
			continue
		}
		if _, err := os.Stat(s.SnapshotPath(e.Name())); err == nil {
			keys = append(keys, e.Name())
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// OpenWAL opens (creating if needed) the dataset's mutation log and returns
// it with the valid records and recovery stats from the open scan.
func (s *Store) OpenWAL(key string) (*WAL, []Record, RecoverStats, error) {
	if err := validKey(key); err != nil {
		return nil, nil, RecoverStats{}, err
	}
	if _, err := s.keyDir(key); err != nil {
		return nil, nil, RecoverStats{}, err
	}
	return OpenWAL(s.WALPath(key))
}

// WriteSnapshot persists the dataset's warm cache atomically: encode to a
// temp file in the same directory, fsync, rename over the live snapshot,
// fsync the directory. A crash at any point leaves either the old snapshot
// or the new one, never a torn hybrid.
func (s *Store) WriteSnapshot(key string, snap *Snapshot) error {
	if err := validKey(key); err != nil {
		return err
	}
	if _, err := s.keyDir(key); err != nil {
		return err
	}
	return writeFileAtomic(s.SnapshotPath(key), func(f *os.File) error { return snap.Write(f) })
}

// writeFileAtomic replaces path by what write produces: a temp file in the
// same directory, fsynced, renamed over path, and the directory fsynced.
func writeFileAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// ReadSnapshot loads the dataset's snapshot. A missing file returns
// (nil, nil); a corrupt one returns an error — the caller discards it and
// recovers cold from the WAL.
func (s *Store) ReadSnapshot(key string) (*Snapshot, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	f, err := os.Open(s.SnapshotPath(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
