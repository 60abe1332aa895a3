package mem

import (
	"bytes"
	"os"
	"sync"
	"testing"
)

func TestNilGovernorIsSafe(t *testing.T) {
	var g *Governor
	if g.Budget() != 0 || g.Used() != 0 || g.Peak() != 0 {
		t.Fatal("nil governor should report zeros")
	}
	if g.Stage() != StageOK {
		t.Fatal("nil governor should stay StageOK")
	}
	a := g.Account("log")
	a.Add(1 << 20) // must not panic
	if a.Used() != 0 {
		t.Fatal("nil account should report zero")
	}
	g.SetExternal(1 << 30)
	g.noteSpill(42)
	if g.SpilledBytes() != 0 || g.SpillWritten() != 0 {
		t.Fatal("nil governor spill counters should be zero")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAccountingAndPeak(t *testing.T) {
	g := NewGovernor(1000, t.TempDir())
	a := g.Account("log")
	b := g.Account("pool")
	a.Add(300)
	b.Add(400)
	if got := g.Used(); got != 700 {
		t.Fatalf("Used = %d, want 700", got)
	}
	a.Add(-300)
	if got := g.Used(); got != 400 {
		t.Fatalf("Used = %d after release, want 400", got)
	}
	if got := g.Peak(); got != 700 {
		t.Fatalf("Peak = %d, want 700", got)
	}
	if g.Account("log") != a {
		t.Fatal("Account must return the same instance per name")
	}
}

func TestStageLadder(t *testing.T) {
	g := NewGovernor(1000, t.TempDir())
	a := g.Account("x")
	cases := []struct {
		used int64
		want Stage
	}{
		{0, StageOK},
		{699, StageOK},
		{700, StageCkpt},
		{849, StageCkpt},
		{850, StageThrottle},
		{999, StageThrottle},
		{1000, StageThrottle},
		{5000, StageThrottle},
	}
	prev := int64(0)
	for _, c := range cases {
		a.Add(c.used - prev)
		prev = c.used
		if got := g.Stage(); got != c.want {
			t.Fatalf("Stage at used=%d = %v, want %v", c.used, got, c.want)
		}
	}
}

func TestUnboundedNeverEscalates(t *testing.T) {
	g := NewGovernor(0, t.TempDir())
	g.Account("x").Add(1 << 40)
	if g.Stage() != StageOK {
		t.Fatal("unbounded governor must stay StageOK")
	}
	if g.Peak() != 1<<40 {
		t.Fatalf("Peak = %d, want %d (unbounded still measures)", g.Peak(), int64(1)<<40)
	}
}

func TestExternalPressure(t *testing.T) {
	g := NewGovernor(1000, t.TempDir())
	g.Account("x").Add(500)
	if g.Stage() != StageOK {
		t.Fatal("want StageOK at 50%")
	}
	g.SetExternal(400)
	if got := g.Used(); got != 900 {
		t.Fatalf("Used = %d with external, want 900", got)
	}
	if g.Stage() != StageThrottle {
		t.Fatalf("Stage = %v at 90%%, want throttle", g.Stage())
	}
	g.SetExternal(0)
	if g.Stage() != StageOK {
		t.Fatal("external release should drop back to StageOK")
	}
	if g.Peak() != 900 {
		t.Fatalf("Peak = %d, want 900", g.Peak())
	}
}

func TestSpillerRoundTrip(t *testing.T) {
	g := NewGovernor(1000, t.TempDir())
	sp, err := g.NewSpiller("test")
	if err != nil {
		t.Fatal(err)
	}
	r1 := []byte("first record")
	r2 := bytes.Repeat([]byte{0xAB}, 1024)
	o1, err := sp.Append(r1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := sp.Append(r2)
	if err != nil {
		t.Fatal(err)
	}
	if o1 != 0 || o2 != int64(len(r1)) {
		t.Fatalf("offsets (%d, %d), want (0, %d)", o1, o2, len(r1))
	}
	got1 := make([]byte, len(r1))
	got2 := make([]byte, len(r2))
	if err := sp.ReadAt(got2, o2); err != nil {
		t.Fatal(err)
	}
	if err := sp.ReadAt(got1, o1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, r1) || !bytes.Equal(got2, r2) {
		t.Fatal("spill round-trip mismatch")
	}
	wantLive := int64(len(r1) + len(r2))
	if g.SpilledBytes() != wantLive || g.SpillWritten() != wantLive {
		t.Fatalf("spill counters live=%d written=%d, want %d", g.SpilledBytes(), g.SpillWritten(), wantLive)
	}
	sp.Release(int64(len(r1)))
	if g.SpilledBytes() != int64(len(r2)) {
		t.Fatalf("SpilledBytes = %d after release, want %d", g.SpilledBytes(), len(r2))
	}
	if g.SpillWritten() != wantLive {
		t.Fatal("SpillWritten must be cumulative")
	}
	path := sp.Path()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Append([]byte("x")); err == nil {
		t.Fatal("append after close should fail")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("spill file should be removed on close")
	}
}

func TestSpillerConcurrent(t *testing.T) {
	g := NewGovernor(0, t.TempDir())
	sp, err := g.NewSpiller("conc")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const writers, records = 8, 64
	type rec struct {
		off int64
		val byte
	}
	var mu sync.Mutex
	var recs []rec
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				val := byte(w*records + i)
				off, err := sp.Append(bytes.Repeat([]byte{val}, 32))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				recs = append(recs, rec{off, val})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	buf := make([]byte, 32)
	for _, r := range recs {
		if err := sp.ReadAt(buf, r.off); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != r.val {
				t.Fatalf("record at %d corrupted: got %d want %d", r.off, b, r.val)
			}
		}
	}
	if sp.Size() != int64(writers*records*32) {
		t.Fatalf("Size = %d, want %d", sp.Size(), writers*records*32)
	}
}
