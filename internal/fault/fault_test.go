package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "seed=7; crash=1@300+150; crash=2@u500; slow=0@100:200:4; drop=0.05; dup=0.01; reorder=0.02; retry=12"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Crashes) != 2 || len(p.Slowdowns) != 1 {
		t.Fatalf("parsed %+v", p)
	}
	c := p.Crashes[0]
	if c.Worker != 1 || c.At != 300 || c.Restart != 150 || c.AfterUpdates != 0 {
		t.Fatalf("crash[0] = %+v", c)
	}
	c = p.Crashes[1]
	if c.Worker != 2 || c.AfterUpdates != 500 || c.Restart != -1 {
		t.Fatalf("crash[1] = %+v", c)
	}
	s := p.Slowdowns[0]
	if s.Worker != 0 || s.At != 100 || s.Duration != 200 || s.Factor != 4 {
		t.Fatalf("slow[0] = %+v", s)
	}
	if p.Drop != 0.05 || p.Dup != 0.01 || p.Reorder != 0.02 || p.Retry != 12 {
		t.Fatalf("link faults %+v", p)
	}
	// String must round-trip through Parse to an identical plan.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Fatalf("round trip: %q != %q", p.String(), p2.String())
	}
}

func TestParseSqueeze(t *testing.T) {
	p, err := Parse("squeeze=50:200:1048576; squeeze=300:100:2048")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Squeezes) != 2 {
		t.Fatalf("parsed %+v", p)
	}
	if s := p.Squeezes[0]; s.At != 50 || s.Duration != 200 || s.Bytes != 1<<20 {
		t.Fatalf("squeeze[0] = %+v", s)
	}
	if p.Empty() {
		t.Fatal("plan with squeezes must not be Empty")
	}
	p2, err := Parse(p.String())
	if err != nil || p.String() != p2.String() {
		t.Fatalf("round trip: %q != %q (%v)", p.String(), p2.String(), err)
	}
	in := NewInjector(p)
	if got := in.SqueezeBytes(25); got != 0 {
		t.Fatalf("SqueezeBytes(25) = %d, want 0", got)
	}
	if got := in.SqueezeBytes(100); got != 1<<20 {
		t.Fatalf("SqueezeBytes(100) = %d, want %d", got, 1<<20)
	}
	if got := in.SqueezeBytes(310); got != 2048 {
		t.Fatalf("SqueezeBytes(310) = %d, want 2048", got)
	}
	if got := in.SqueezeBytes(500); got != 0 {
		t.Fatalf("SqueezeBytes(500) = %d, want 0", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"unknown=3",
		"crash=1",
		"crash=x@5",
		"crash=1@-5",
		"crash=1@u0",
		"crash=1@5+-3",
		"slow=1@5",
		"slow=1@5:0:2",
		"slow=1@5:10:0.5",
		"squeeze=5:10",
		"squeeze=-1:10:100",
		"squeeze=5:0:100",
		"squeeze=5:10:0",
		"drop=1.5",
		"dup=-0.1",
		"retry=-1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestParsePanicClause(t *testing.T) {
	p, err := Parse("panic=2@u30; panic=0@150")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 2 {
		t.Fatalf("parsed %+v", p)
	}
	c := p.Crashes[0]
	if c.Worker != 2 || c.AfterUpdates != 30 || !c.Panic || c.Restart >= 0 {
		t.Fatalf("panic[0] = %+v", c)
	}
	c = p.Crashes[1]
	if c.Worker != 0 || c.At != 150 || !c.Panic || c.Restart >= 0 {
		t.Fatalf("panic[1] = %+v", c)
	}
	// String keeps the panic spelling and round-trips.
	s := p.String()
	if !strings.Contains(s, "panic=2@u30") || !strings.Contains(s, "panic=0@150") {
		t.Fatalf("String() = %q", s)
	}
	p2, err := Parse(s)
	if err != nil || p2.String() != s {
		t.Fatalf("round trip: %q != %q (%v)", s, p2.String(), err)
	}
	// A panic fault never restarts: the restart suffix is a parse error.
	for _, bad := range []string{"panic=1@u30+5", "panic=1@100+50"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Fatalf("empty spec parsed to %+v", p)
	}
	if NewInjector(nil).Plan() != nil {
		t.Fatal("nil plan should stay nil")
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.txt")
	content := "# comment\nseed=3\ncrash=0@100+50\n\ndrop=0.1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 3 || len(p.Crashes) != 1 || p.Drop != 0.1 {
		t.Fatalf("loaded %+v", p)
	}
	// Non-path argument parses as spec.
	p, err = Load("crash=1@5")
	if err != nil || len(p.Crashes) != 1 {
		t.Fatalf("inline load: %+v, %v", p, err)
	}
}

func TestInjectorCrashTriggers(t *testing.T) {
	p, _ := Parse("crash=0@100+20; crash=1@u50")
	in := NewInjector(p)

	// Time trigger fires via TakeDue once the clock passes.
	if _, ok := in.TakeDue(0, 0, 50); ok {
		t.Fatal("fired early")
	}
	c, ok := in.TakeDue(0, 0, 120)
	if !ok || c.Restart != 20 {
		t.Fatalf("TakeDue time = %+v, %v", c, ok)
	}
	if _, ok := in.TakeDue(0, 0, 200); ok {
		t.Fatal("crash fired twice")
	}

	// Update-count trigger.
	if _, ok := in.TakeDue(1, 49, 0); ok {
		t.Fatal("update trigger fired early")
	}
	c, ok = in.TakeDue(1, 50, 0)
	if !ok || c.Restart != -1 {
		t.Fatalf("TakeDue updates = %+v, %v", c, ok)
	}
	if _, ok := in.TakeDue(1, 999, 999); ok {
		t.Fatal("update trigger fired twice")
	}
}

func TestInjectorTake(t *testing.T) {
	p, _ := Parse("crash=0@100")
	in := NewInjector(p)
	if c, ok := in.Take(0); !ok || c.Worker != 0 {
		t.Fatalf("Take(0) = %+v, %v", c, ok)
	}
	if _, ok := in.Take(0); ok {
		t.Fatal("Take fired twice")
	}
	if _, ok := in.Take(5); ok {
		t.Fatal("Take out of range succeeded")
	}
}

func TestSlowFactor(t *testing.T) {
	p, _ := Parse("slow=1@100:50:4; slow=1@120:50:2")
	in := NewInjector(p)
	if f := in.SlowFactor(1, 99); f != 1 {
		t.Fatalf("before window: %v", f)
	}
	if f := in.SlowFactor(1, 110); f != 4 {
		t.Fatalf("in first window: %v", f)
	}
	if f := in.SlowFactor(1, 130); f != 8 {
		t.Fatalf("overlap should compose: %v", f)
	}
	if f := in.SlowFactor(1, 160); f != 2 {
		t.Fatalf("in second window only: %v", f)
	}
	if f := in.SlowFactor(0, 110); f != 1 {
		t.Fatalf("other worker: %v", f)
	}
}

func TestBatchFateDeterminism(t *testing.T) {
	p, _ := Parse("seed=42; drop=0.2; dup=0.1; reorder=0.1")
	draw := func() []Fate {
		in := NewInjector(p)
		var fates []Fate
		for k := 0; k < 200; k++ {
			fates = append(fates, in.BatchFate(0, 1))
		}
		return fates
	}
	a, b := draw()[:], draw()[:]
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("fate %d differs across runs: %+v vs %+v", k, a[k], b[k])
		}
	}
	// Roughly the right rates, and at most one fault per batch.
	var drops, dups, reorders int
	for _, f := range a {
		n := 0
		if f.Drop {
			drops++
			n++
		}
		if f.Dup {
			dups++
			n++
		}
		if f.Reorder {
			reorders++
			n++
		}
		if n > 1 {
			t.Fatalf("batch drew multiple faults: %+v", f)
		}
	}
	if drops == 0 || dups == 0 || reorders == 0 {
		t.Fatalf("rates off over 200 draws: drop=%d dup=%d reorder=%d", drops, dups, reorders)
	}
	// Different links draw different streams.
	in := NewInjector(p)
	same := true
	for k := 0; k < 50; k++ {
		if in.BatchFate(0, 1) != in.BatchFate(1, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("links (0,1) and (1,0) drew identical streams")
	}
}

func TestRetryDelay(t *testing.T) {
	p, _ := Parse("retry=9")
	if d := NewInjector(p).RetryDelay(5); d != 9 {
		t.Fatalf("plan retry ignored: %v", d)
	}
	p2, _ := Parse("drop=0.1")
	if d := NewInjector(p2).RetryDelay(5); d != 5 {
		t.Fatalf("fallback retry: %v", d)
	}
}

func TestLinkDrop(t *testing.T) {
	p, err := Parse("seed=9; drop=1>0:1; drop=0>2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0 {
		t.Fatalf("global drop should stay 0, got %v", p.Drop)
	}
	if got := p.LinkDrop[[2]int{1, 0}]; got != 1 {
		t.Fatalf("LinkDrop[1>0] = %v", got)
	}
	if got := p.LinkDrop[[2]int{0, 2}]; got != 0.5 {
		t.Fatalf("LinkDrop[0>2] = %v", got)
	}
	if !p.HasLinkFaults() {
		t.Fatal("per-link drop should count as a link fault")
	}
	// String must round-trip, with links emitted deterministically.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Fatalf("round trip: %q != %q", p.String(), p2.String())
	}

	// Probability 1 on the named link drops every batch; other links are
	// untouched.
	in := NewInjector(p)
	for k := 0; k < 50; k++ {
		if !in.BatchFate(1, 0).Drop {
			t.Fatalf("batch %d on 1->0 not dropped under drop=1>0:1", k)
		}
		if f := in.BatchFate(2, 1); f != (Fate{}) {
			t.Fatalf("batch %d on unlisted link 2->1 drew %+v", k, f)
		}
	}

	// A per-link entry overrides the global rate rather than stacking.
	p3, _ := Parse("seed=9; drop=1; drop=0>1:0")
	in3 := NewInjector(p3)
	for k := 0; k < 50; k++ {
		if in3.BatchFate(0, 1).Drop {
			t.Fatalf("batch %d dropped despite drop=0>1:0 override", k)
		}
		if !in3.BatchFate(1, 2).Drop {
			t.Fatalf("batch %d on 1->2 must still use global drop=1", k)
		}
	}
}

func TestLinkDropParseErrors(t *testing.T) {
	for _, spec := range []string{
		"drop=1>0",      // missing probability
		"drop=x>0:0.5",  // bad source
		"drop=0>y:0.5",  // bad destination
		"drop=0>0:0.5",  // self-link
		"drop=0>1:1.5",  // probability out of range
		"drop=-1>0:0.5", // negative worker
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}
