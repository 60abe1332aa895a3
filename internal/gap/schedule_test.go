package gap

import (
	"fmt"
	"testing"

	"argan/internal/ace"
	"argan/internal/adapt"
	"argan/internal/algorithms"
)

// simSchedule is the integer part of a sim run's Metrics: what the schedule
// did, free of float cost sums, so a pin holds on every architecture.
type simSchedule struct {
	Updates, MsgsSent, BytesSent, Rounds, Supersteps int64
	Flushes                                          [4]int64
}

func scheduleOf(m *Metrics) simSchedule {
	s := simSchedule{Updates: m.Updates, MsgsSent: m.MsgsSent, BytesSent: m.BytesSent,
		Rounds: m.Rounds, Supersteps: m.Supersteps}
	for i, w := range m.Workers {
		s.Flushes[i] = w.Flushes
	}
	return s
}

// TestSimSchedulePinned pins the sim driver's integer metrics for four
// programs under five disciplines at 4 workers, plus one crash-and-recover
// run. The sim is deterministic, so any change to routing, coalescing,
// dependent activation, h_in or checkpoint restore moves some count here.
func TestSimSchedulePinned(t *testing.T) {
	g := testGraph(true, 1)
	fs := frags(t, g, 4)
	run := func(app string, cfg Config) (*Metrics, error) {
		var m *Metrics
		var err error
		switch app {
		case "sssp":
			var r *Result[float64]
			r, err = RunSim(fs, algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
			if r != nil {
				m = &r.Metrics
			}
		case "pr":
			var r *Result[float64]
			r, err = RunSim(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
			if r != nil {
				m = &r.Metrics
			}
		case "wcc":
			var r *Result[uint32]
			r, err = RunSim(fs, algorithms.NewWCC(), ace.Query{}, cfg)
			if r != nil {
				m = &r.Metrics
			}
		case "color":
			var r *Result[int32]
			r, err = RunSim(fs, algorithms.NewColor(), ace.Query{}, cfg)
			if r != nil {
				m = &r.Metrics
			}
		}
		return m, err
	}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"GAwD", Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD}},
		{"AAP", Config{Mode: ModeAAP}},
		{"BSP", Config{Mode: ModeBSP}},
		{"APVC", Config{Mode: ModeAPVC}},
		{"PowerSwitch", Config{Mode: ModePowerSwitch}},
	}
	got := map[string]simSchedule{}
	for _, app := range []string{"sssp", "pr", "wcc", "color"} {
		for _, md := range modes {
			m, err := run(app, md.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, md.name, err)
			}
			got[app+"/"+md.name] = scheduleOf(m)
		}
	}
	crash := Config{Mode: ModeGAP, Adapt: adapt.PolicyGAwD, Faults: faultPlan(t, "crash=1@300+50"),
		FT: FTConfig{CheckpointEvery: 150}}
	m, err := run("sssp", crash)
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes != 1 || m.Recoveries != 1 {
		t.Fatalf("crash run: %d crashes, %d recoveries, want 1 and 1", m.Crashes, m.Recoveries)
	}
	got["sssp/crash"] = scheduleOf(m)

	for key, w := range simScheduleWant {
		if g, ok := got[key]; !ok || g != w {
			t.Errorf("%s: got %+v, want %+v", key, g, w)
		}
	}
	if len(got) != len(simScheduleWant) {
		for key, g := range got {
			if _, ok := simScheduleWant[key]; !ok {
				t.Errorf("unpinned %s: %s", key, fmt.Sprintf("%#v", g))
			}
		}
	}
}

// simScheduleWant was recorded from the map-indexed sim accumulators that
// preceded the shared worker state. The sssp and wcc rows were re-recorded
// when a ghost's Ψ became the out-buffer: a replay-tolerant ghost caches
// what its owner was sent, so fewer messages leave and the schedule moves;
// the pr and color rows did not change. The sssp/crash row was re-recorded
// when the sim's global rollback gave way to localized recovery
// (recover.go).
var simScheduleWant = map[string]simSchedule{
	"color/AAP":         {Updates: 5291, MsgsSent: 4730, BytesSent: 37840, Rounds: 53, Supersteps: 0, Flushes: [4]int64{30, 39, 35, 39}},
	"color/APVC":        {Updates: 2097, MsgsSent: 2355, BytesSent: 18840, Rounds: 1281, Supersteps: 0, Flushes: [4]int64{501, 589, 604, 661}},
	"color/BSP":         {Updates: 4229, MsgsSent: 4094, BytesSent: 32752, Rounds: 40, Supersteps: 11, Flushes: [4]int64{27, 29, 28, 29}},
	"color/GAwD":        {Updates: 4464, MsgsSent: 4492, BytesSent: 35936, Rounds: 62, Supersteps: 0, Flushes: [4]int64{91, 122, 52, 116}},
	"color/PowerSwitch": {Updates: 3156, MsgsSent: 4127, BytesSent: 33016, Rounds: 43, Supersteps: 12, Flushes: [4]int64{29, 30, 30, 30}},
	"pr/AAP":            {Updates: 26634, MsgsSent: 27674, BytesSent: 332088, Rounds: 200, Supersteps: 0, Flushes: [4]int64{120, 144, 146, 173}},
	"pr/APVC":           {Updates: 9823, MsgsSent: 34615, BytesSent: 415380, Rounds: 6729, Supersteps: 0, Flushes: [4]int64{3072, 3562, 3446, 3713}},
	"pr/BSP":            {Updates: 21241, MsgsSent: 21819, BytesSent: 261828, Rounds: 159, Supersteps: 41, Flushes: [4]int64{113, 113, 113, 113}},
	"pr/GAwD":           {Updates: 29931, MsgsSent: 40653, BytesSent: 487836, Rounds: 282, Supersteps: 0, Flushes: [4]int64{926, 1019, 990, 178}},
	"pr/PowerSwitch":    {Updates: 15035, MsgsSent: 25023, BytesSent: 300276, Rounds: 194, Supersteps: 49, Flushes: [4]int64{137, 138, 137, 140}},
	"sssp/AAP":          {Updates: 685, MsgsSent: 1137, BytesSent: 13644, Rounds: 36, Supersteps: 0, Flushes: [4]int64{12, 17, 17, 20}},
	"sssp/APVC":         {Updates: 392, MsgsSent: 924, BytesSent: 11088, Rounds: 262, Supersteps: 0, Flushes: [4]int64{93, 110, 113, 117}},
	"sssp/BSP":          {Updates: 651, MsgsSent: 1105, BytesSent: 13260, Rounds: 23, Supersteps: 8, Flushes: [4]int64{12, 11, 10, 15}},
	"sssp/GAwD":         {Updates: 861, MsgsSent: 1531, BytesSent: 18372, Rounds: 38, Supersteps: 0, Flushes: [4]int64{33, 16, 32, 42}},
	"sssp/PowerSwitch":  {Updates: 652, MsgsSent: 1192, BytesSent: 14304, Rounds: 27, Supersteps: 6, Flushes: [4]int64{17, 12, 12, 17}},
	"sssp/crash":        {Updates: 801, MsgsSent: 1386, BytesSent: 16632, Rounds: 36, Supersteps: 0, Flushes: [4]int64{19, 15, 19, 25}},
	"wcc/AAP":           {Updates: 903, MsgsSent: 1951, BytesSent: 15608, Rounds: 21, Supersteps: 0, Flushes: [4]int64{9, 7, 9, 12}},
	"wcc/APVC":          {Updates: 421, MsgsSent: 1356, BytesSent: 10848, Rounds: 286, Supersteps: 0, Flushes: [4]int64{70, 131, 128, 156}},
	"wcc/BSP":           {Updates: 798, MsgsSent: 1710, BytesSent: 13680, Rounds: 12, Supersteps: 4, Flushes: [4]int64{9, 7, 6, 9}},
	"wcc/GAwD":          {Updates: 901, MsgsSent: 1949, BytesSent: 15592, Rounds: 86, Supersteps: 0, Flushes: [4]int64{12, 43, 27, 74}},
	"wcc/PowerSwitch":   {Updates: 880, MsgsSent: 1734, BytesSent: 13872, Rounds: 12, Supersteps: 4, Flushes: [4]int64{9, 7, 7, 9}},
}
