package mem

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Spiller is one append-only spill file within a governor's spill tier.
// Records are opaque byte blobs addressed by the offset Append returned;
// there is no in-file index — callers keep the (offset, length) pair, which
// is exactly what the spilled loggedBatch / checkpoint headers do. Appends
// are serialized; ReadAt is safe concurrently with appends because records
// are immutable once written.
type Spiller struct {
	g    *Governor
	path string

	mu   sync.Mutex
	f    *os.File
	size int64
}

// NewSpiller creates a fresh spill file in the governor's spill directory.
// The name is a prefix only; an O_EXCL temp suffix keeps concurrent runs
// from colliding.
func (g *Governor) NewSpiller(name string) (*Spiller, error) {
	if g == nil {
		return nil, fmt.Errorf("mem: no governor attached")
	}
	f, err := os.CreateTemp(g.dir, "argan-spill-"+name+"-*.bin")
	if err != nil {
		return nil, fmt.Errorf("mem: create spill file: %w", err)
	}
	sp := &Spiller{g: g, path: f.Name(), f: f}
	g.mu.Lock()
	g.spillers = append(g.spillers, sp)
	g.mu.Unlock()
	return sp, nil
}

// Path returns the spill file's path.
func (sp *Spiller) Path() string {
	if sp == nil {
		return ""
	}
	return sp.path
}

// Append writes one record and returns its offset. The governor's spill
// counters grow by len(p).
func (sp *Spiller) Append(p []byte) (int64, error) {
	if sp == nil {
		return 0, fmt.Errorf("mem: nil spiller")
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.f == nil {
		return 0, fmt.Errorf("mem: spiller %s is closed", filepath.Base(sp.path))
	}
	off := sp.size
	if _, err := sp.f.WriteAt(p, off); err != nil {
		return 0, fmt.Errorf("mem: spill append: %w", err)
	}
	sp.size += int64(len(p))
	sp.g.noteSpill(int64(len(p)))
	return off, nil
}

// ReadAt fills p with the record at off. Safe concurrently with Append.
func (sp *Spiller) ReadAt(p []byte, off int64) error {
	if sp == nil {
		return fmt.Errorf("mem: nil spiller")
	}
	sp.mu.Lock()
	f := sp.f
	sp.mu.Unlock()
	if f == nil {
		return fmt.Errorf("mem: spiller %s is closed", filepath.Base(sp.path))
	}
	if _, err := f.ReadAt(p, off); err != nil {
		return fmt.Errorf("mem: spill read at %d: %w", off, err)
	}
	return nil
}

// Release tells the governor n bytes of previously appended records are no
// longer referenced (pruned log entries, superseded checkpoints). The file
// itself is append-only — space is reclaimed when the spiller closes.
func (sp *Spiller) Release(n int64) {
	if sp == nil || n == 0 {
		return
	}
	sp.g.noteSpill(-n)
}

// Size returns the bytes written so far.
func (sp *Spiller) Size() int64 {
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.size
}

// Close closes and removes the spill file. Idempotent.
func (sp *Spiller) Close() error {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.f == nil {
		return nil
	}
	err := sp.f.Close()
	sp.f = nil
	if rmErr := os.Remove(sp.path); err == nil {
		err = rmErr
	}
	return err
}
