// Package mem is the memory governor of the GAP runtime: a budget-tracked
// accounting layer that the live driver's per-run state — recovery logs,
// local checkpoints, batch pool and reorder buffers — registers with, plus
// an append-only spill tier that pages cold state to disk when the in-RAM
// budget is exceeded. Graph data is never governed: fragments are immutable
// and shared between runs, so the governor pages only what one run owns.
//
// The governor never allocates or frees memory itself — components report
// what they hold via Account.Add and consult Stage() to decide how hard to
// shed. Pressure escalates through a graceful-degradation ladder:
//
//	StageOK       usage <  70% of budget: run normally
//	StageCkpt     usage >= 70%: page recovery logs / checkpoints to the
//	              spill tier and force an early checkpoint on the slowest
//	              receiver (bounding log retention in bytes)
//	StageThrottle usage >= 85%: apply backpressure to senders through the
//	              pooled-batch pipeline and trim the batch free list
//
// Usage at or above the whole budget stays at StageThrottle: a run over
// budget slows down rather than aborting.
//
// A zero (or negative) budget disables the ladder: Stage is always StageOK
// and the governor only measures, which is how the unbounded-run peak for
// the `arganbench -exp memory` degradation curve is obtained. All methods
// are safe on a nil *Governor (no-ops / zero values), mirroring the
// nil-Tracer discipline of internal/obs: the drivers' default path carries
// one nil check per accounting site and nothing else.
package mem

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Stage is a rung of the degradation ladder; higher is more desperate.
type Stage int32

const (
	StageOK Stage = iota
	StageCkpt
	StageThrottle
)

func (s Stage) String() string {
	switch s {
	case StageOK:
		return "ok"
	case StageCkpt:
		return "ckpt"
	case StageThrottle:
		return "throttle"
	}
	return "stage?"
}

// Ladder thresholds as fractions of the budget.
const (
	ckptFrac     = 0.70
	throttleFrac = 0.85
)

// Governor tracks a byte budget shared by named accounts. Attach one fresh
// Governor per run; accounts persist for its lifetime.
type Governor struct {
	budget int64
	dir    string

	used     atomic.Int64 // sum over accounts
	peak     atomic.Int64 // high-water mark of used+external
	external atomic.Int64 // injected synthetic pressure (fault plans)

	spillLive    atomic.Int64 // bytes resident on disk and still referenced
	spillWritten atomic.Int64 // cumulative bytes ever written to the tier

	mu       sync.Mutex
	accounts map[string]*Account
	spillers []*Spiller
}

// NewGovernor builds a governor with the given budget in bytes (<= 0 means
// unbounded: measure only, never escalate) and the directory spill files are
// created in ("" resolves to os.TempDir()).
func NewGovernor(budget int64, dir string) *Governor {
	if dir == "" {
		dir = os.TempDir()
	}
	return &Governor{budget: budget, dir: dir, accounts: map[string]*Account{}}
}

// Budget returns the configured budget in bytes (<= 0 = unbounded).
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// Account returns the named account, creating it on first use.
func (g *Governor) Account(name string) *Account {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.accounts[name]
	if a == nil {
		a = &Account{g: g, name: name}
		g.accounts[name] = a
	}
	return a
}

// Used returns the governed bytes currently accounted in RAM, including any
// injected synthetic pressure.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load() + g.external.Load()
}

// Peak returns the high-water mark of Used over the governor's lifetime.
func (g *Governor) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// Stage maps current usage to the degradation ladder. Unbounded governors
// never leave StageOK.
func (g *Governor) Stage() Stage {
	if g == nil || g.budget <= 0 {
		return StageOK
	}
	u := float64(g.Used())
	b := float64(g.budget)
	switch {
	case u >= throttleFrac*b:
		return StageThrottle
	case u >= ckptFrac*b:
		return StageCkpt
	}
	return StageOK
}

// SetExternal overrides the injected synthetic usage (memory-pressure fault
// injection). The value is absolute, not a delta.
func (g *Governor) SetExternal(n int64) {
	if g == nil {
		return
	}
	g.external.Store(n)
	g.bumpPeak()
}

// noteSpill adjusts the governor's count of bytes resident on disk (positive
// when a Spiller pages state out, negative when it is released or read back).
func (g *Governor) noteSpill(delta int64) {
	if g == nil {
		return
	}
	g.spillLive.Add(delta)
	if delta > 0 {
		g.spillWritten.Add(delta)
	}
}

// SpilledBytes returns the bytes currently resident on disk.
func (g *Governor) SpilledBytes() int64 {
	if g == nil {
		return 0
	}
	return g.spillLive.Load()
}

// SpillWritten returns the cumulative bytes ever written to the spill tier.
func (g *Governor) SpillWritten() int64 {
	if g == nil {
		return 0
	}
	return g.spillWritten.Load()
}

// Breakdown renders the per-account usage sorted by name, for diagnostics.
func (g *Governor) Breakdown() string {
	if g == nil {
		return ""
	}
	g.mu.Lock()
	names := make([]string, 0, len(g.accounts))
	for n := range g.accounts {
		names = append(names, n)
	}
	sort.Strings(names)
	accts := make([]*Account, len(names))
	for i, n := range names {
		accts[i] = g.accounts[n]
	}
	g.mu.Unlock()
	s := ""
	for i, a := range accts {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", a.name, a.Used())
	}
	return s
}

// Close closes and removes every spill file the governor opened. Call after
// the run that used the governor has finished.
func (g *Governor) Close() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	sps := g.spillers
	g.spillers = nil
	g.mu.Unlock()
	var first error
	for _, sp := range sps {
		if err := sp.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (g *Governor) add(n int64) {
	g.used.Add(n)
	if n > 0 {
		g.bumpPeak()
	}
}

func (g *Governor) bumpPeak() {
	u := g.used.Load() + g.external.Load()
	for {
		p := g.peak.Load()
		if u <= p || g.peak.CompareAndSwap(p, u) {
			return
		}
	}
}

// Account is one component's byte counter within a governor. All methods are
// safe on a nil *Account (the unbounded / ungoverned case).
type Account struct {
	g    *Governor
	name string
	used atomic.Int64
}

// Add adjusts the account by n bytes (negative to release).
func (a *Account) Add(n int64) {
	if a == nil || n == 0 {
		return
	}
	a.used.Add(n)
	a.g.add(n)
}

// Used returns the account's current bytes.
func (a *Account) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// Name returns the account's name.
func (a *Account) Name() string {
	if a == nil {
		return ""
	}
	return a.name
}
