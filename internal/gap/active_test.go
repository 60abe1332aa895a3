package gap

import (
	"testing"
	"testing/quick"

	"argan/internal/ace"
)

func TestActiveSetFIFO(t *testing.T) {
	a := ace.NewActiveSet(8, nil)
	if !a.Empty() || a.Len() != 0 {
		t.Fatal("fresh set not empty")
	}
	a.Push(3)
	a.Push(1)
	a.Push(3) // duplicate ignored
	if a.Len() != 2 {
		t.Fatalf("len=%d", a.Len())
	}
	if snap := a.Snapshot(); len(snap) != 2 || snap[0] != 3 || snap[1] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if a.Pop() != 3 || a.Pop() != 1 || !a.Empty() {
		t.Fatal("fifo order wrong")
	}
}

func TestActiveSetPriority(t *testing.T) {
	prio := []float64{9, 2, 7, 1}
	a := ace.NewActiveSet(4, func(l uint32) float64 { return prio[l] })
	for i := 3; i >= 0; i-- {
		a.Push(uint32(i))
	}
	// Re-push with an improved priority: its one entry is re-keyed.
	prio[0] = 0
	a.Push(0)
	want := []uint32{0, 3, 1, 2}
	for _, w := range want {
		if got := a.Pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
	if !a.Empty() {
		t.Fatal("should be empty")
	}
}

// Property: every pushed vertex pops exactly once per activation epoch,
// regardless of duplicate pushes and priority changes.
func TestActiveSetPopOnce(t *testing.T) {
	f := func(pushes []uint8, usePrio bool) bool {
		prio := make([]float64, 32)
		var pf func(uint32) float64
		if usePrio {
			pf = func(l uint32) float64 { return prio[l] }
		}
		a := ace.NewActiveSet(32, pf)
		inSet := map[uint32]bool{}
		for _, p := range pushes {
			v := uint32(p % 32)
			prio[v] = float64(p)
			a.Push(v)
			inSet[v] = true
		}
		popped := map[uint32]bool{}
		for !a.Empty() {
			v := a.Pop()
			if popped[v] {
				return false // double pop
			}
			popped[v] = true
		}
		return len(popped) == len(inSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
