package algorithms

import (
	"bytes"
	"strings"
	"testing"

	"argan/internal/ace"
	"argan/internal/durable"
	"argan/internal/graph"
)

// checkLiveRow holds one table row to what every consumer assumes of it: the
// program may restart from a stale fixpoint and survive a crash (both derived
// from its declared algebra), and its fixpoint survives the snapshot codec at
// the row's own value type — the kind tag follows from V, nothing states it
// per app.
func checkLiveRow[V any](t *testing.T) func(*App[V]) (struct{}, error) {
	return func(app *App[V]) (struct{}, error) {
		p := app.Factory()
		if p.Name() != app.Name {
			t.Errorf("row %q builds program %q", app.Name, p.Name())
		}
		if !ace.CanIncrement(p) || !ace.AlgebraOf(p).Recoverable() {
			t.Errorf("%s: a live app must be incrementable and recovery-capable, declares %+v", app.Name, ace.AlgebraOf(p).Laws)
		}
		values := make([]V, 3)
		snap := durable.Snapshot{Entries: []durable.WarmFixpoint{{App: app.Name, Version: 1, Values: values, Psi: values}}}
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatalf("%s: encode fixpoint: %v", app.Name, err)
		}
		back, err := durable.ReadSnapshot(&buf)
		if err != nil || len(back.Entries) != 1 {
			t.Fatalf("%s: decode fixpoint: %v", app.Name, err)
		}
		if got, ok := back.Entries[0].Values.([]V); !ok || len(got) != len(values) {
			t.Errorf("%s: fixpoint came back as %T, want %T", app.Name, back.Entries[0].Values, values)
		}
		reads := app.Reads&ReadsSource != 0
		if err := app.CheckSource(-1, 3); (err != nil) != reads {
			t.Errorf("%s: CheckSource(-1) = %v, reading the source %v", app.Name, err, reads)
		}
		if err := app.CheckSource(3, 3); (err != nil) != reads {
			t.Errorf("%s: CheckSource(|V|) = %v, reading the source %v", app.Name, err, reads)
		}
		if err := app.CheckSource(2, 3); err != nil {
			t.Errorf("%s: CheckSource(|V|-1) = %v", app.Name, err)
		}
		if ace.AlgebraOf(p).ReplayTolerant() {
			checkGhostCache(t, app)
		}
		return struct{}{}, nil
	}
}

// checkGhostCache holds a replay-tolerant row to the precondition of the
// engine's ghost cache, cold and warm: a ghost's InitValue is no better than
// its owner's, so a send that does not improve the ghost cannot improve the
// owner either and may be dropped at the sender.
func checkGhostCache[V any](t *testing.T, app *App[V]) {
	oldG := graph.PowerLaw(graph.GenConfig{N: 300, M: 1800, Directed: true, Seed: 9, MaxW: 20})
	q := ace.Query{Source: 3, Eps: DefaultPREps}
	b := churnBatch(oldG, 9, 8)
	newG, _, err := oldG.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	ref := app.Ref(oldG, q)
	warm := q
	warm.Warm = app.Warm(oldG, newG, b.Endpoints(), ref, ref, q)
	owner := make([]uint16, newG.NumVertices())
	for v := range owner {
		owner[v] = uint16(v % 2)
	}
	fs, err := graph.BuildFragments(newG, owner, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]ace.Query{"cold": q, "warm": warm} {
		progs := make([]ace.Program[V], len(fs))
		for i, f := range fs {
			progs[i] = app.Factory()
			progs[i].Setup(f, q)
		}
		for i, f := range fs {
			for l := uint32(f.NumOwned()); int(l) < f.NumLocal(); l++ {
				g := f.Global(l)
				of := fs[f.OwnerOf(g)]
				ol, _ := of.Local(g)
				ghost, _ := progs[i].InitValue(f, l, q)
				own, _ := progs[f.OwnerOf(g)].InitValue(of, ol, q)
				if _, ch := progs[i].Aggregate(own, ghost); ch {
					t.Fatalf("%s %s: ghost of %d starts at %v, better than its owner's %v", app.Name, name, g, ghost, own)
				}
			}
		}
	}
}

func TestLiveAppTable(t *testing.T) {
	names := LiveAppNames()
	if strings.Join(names, " ") != "sssp bfs wcc pr" {
		t.Fatalf("live apps = %v", names)
	}
	for _, name := range names {
		if _, err := DispatchLive(name, checkLiveRow[float64](t), checkLiveRow[int32](t), checkLiveRow[uint32](t)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := CheckLiveApp("color"); err == nil || !strings.Contains(err.Error(), "does not run under the live driver") {
		t.Fatalf("CheckLiveApp(color) = %v", err)
	}
	// A program that declares only replacement laws is neither: a replayed
	// stale color would overwrite a fresh one.
	if c := NewColor()(); ace.CanIncrement(c) || ace.AlgebraOf(c).Recoverable() {
		t.Error("Color must be neither incrementable nor recovery-capable")
	}
}
