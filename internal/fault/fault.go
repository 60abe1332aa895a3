// Package fault defines deterministic, seedable fault plans for the GAP
// runtime and the injector that interprets them at run time.
//
// A Plan is a declarative description of what goes wrong during a run:
// worker crashes (triggered at a virtual time or after an update count,
// optionally followed by a restart), transient slowdowns, and per-link
// message-batch faults (drop, duplicate, reorder). The same plan drives
// both drivers: the virtual-time simulator charges faults deterministic
// costs so runs stay byte-reproducible for a fixed seed, and the live
// driver kills and restarts real goroutines.
//
// Plans are written as compact spec strings, e.g.
//
//	seed=7; crash=1@300+150; crash=2@u500; slow=0@100:200:4; drop=0.05
//
// meaning: seed 7; worker 1 crashes at time 300 and restarts after 150
// units; worker 2 crashes permanently after its 500th update; worker 0
// runs 4× slower between t=100 and t=300; each message batch is dropped
// (and retransmitted late) with probability 0.05. Times are virtual cost
// units under the sim driver and milliseconds under the live driver.
package fault

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Crash kills one worker once. Exactly one of At (time trigger) or
// AfterUpdates (update-count trigger) is active; AfterUpdates > 0 wins.
// Restart < 0 means the worker stays dead for the rest of the run.
type Crash struct {
	Worker       int
	At           float64 // trigger time (cost units / ms); used when AfterUpdates == 0
	AfterUpdates int64   // trigger after this many updates on the worker (0 = use At)
	Restart      float64 // delay from detection to restart; < 0 = never
	// Panic makes the worker blow up (a Go panic on its goroutine) instead
	// of exiting cleanly — the rogue-program fault a multi-tenant service
	// must contain. Panic crashes never restart: the run is expected to
	// fail with a contained panic error, not to recover. Written
	// "panic=W@T" / "panic=W@uN" in specs.
	Panic bool
}

// Slowdown multiplies one worker's compute cost by Factor during
// [At, At+Duration).
type Slowdown struct {
	Worker   int
	At       float64
	Duration float64
	Factor   float64
}

// Squeeze injects synthetic memory pressure: Bytes of phantom usage are
// charged to the run's memory governor during [At, At+Duration), driving it
// up the degradation ladder without allocating anything. Written
// "squeeze=T:DUR:B" in specs.
type Squeeze struct {
	At       float64
	Duration float64
	Bytes    int64
}

// Plan is a complete, deterministic fault schedule for one run.
type Plan struct {
	Seed      int64
	Crashes   []Crash
	Slowdowns []Slowdown
	Squeezes  []Squeeze

	// Per-batch link fault probabilities in [0,1]. The fate of the k-th
	// batch on link (i→j) is a pure function of (Seed, i, j, k), so a plan
	// injects identically into repeated runs regardless of scheduling.
	Drop    float64 // batch is lost and retransmitted after Retry
	Dup     float64 // batch is delivered twice; the drivers' exactly-once layer drops the copy
	Reorder float64 // batch is held back / delayed past FIFO order

	// LinkDrop overrides Drop on individual links: the key is {from, to}
	// and the value a probability in [0,1]. Written "drop=F>T:P" in specs.
	// A per-link entry fully replaces the global Drop on that link, so
	// "drop=0>1:1" with no global clause drops every 0→1 batch and nothing
	// else.
	LinkDrop map[[2]int]float64

	// Retry is the retransmit delay charged for a dropped batch
	// (cost units / ms). Zero selects a driver default.
	Retry float64
}

// HasCrashes reports whether the plan schedules any worker crash.
func (p *Plan) HasCrashes() bool { return p != nil && len(p.Crashes) > 0 }

// HasLinkFaults reports whether any per-batch link fault can fire.
func (p *Plan) HasLinkFaults() bool {
	if p == nil {
		return false
	}
	if p.Drop > 0 || p.Dup > 0 || p.Reorder > 0 {
		return true
	}
	for _, pr := range p.LinkDrop {
		if pr > 0 {
			return true
		}
	}
	return false
}

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Slowdowns) == 0 &&
		len(p.Squeezes) == 0 && !p.HasLinkFaults())
}

// String renders the plan in the spec grammar accepted by Parse, so
// Parse(p.String()) round-trips.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, c := range p.Crashes {
		key := "crash"
		if c.Panic {
			key = "panic"
		}
		var s string
		if c.AfterUpdates > 0 {
			s = fmt.Sprintf("%s=%d@u%d", key, c.Worker, c.AfterUpdates)
		} else {
			s = fmt.Sprintf("%s=%d@%s", key, c.Worker, ftoa(c.At))
		}
		if c.Restart >= 0 && !c.Panic {
			s += "+" + ftoa(c.Restart)
		}
		parts = append(parts, s)
	}
	for _, s := range p.Slowdowns {
		parts = append(parts, fmt.Sprintf("slow=%d@%s:%s:%s",
			s.Worker, ftoa(s.At), ftoa(s.Duration), ftoa(s.Factor)))
	}
	for _, s := range p.Squeezes {
		parts = append(parts, fmt.Sprintf("squeeze=%s:%s:%d",
			ftoa(s.At), ftoa(s.Duration), s.Bytes))
	}
	if p.Drop > 0 {
		parts = append(parts, "drop="+ftoa(p.Drop))
	}
	links := make([][2]int, 0, len(p.LinkDrop))
	for l := range p.LinkDrop {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, l := range links {
		parts = append(parts, fmt.Sprintf("drop=%d>%d:%s", l[0], l[1], ftoa(p.LinkDrop[l])))
	}
	if p.Dup > 0 {
		parts = append(parts, "dup="+ftoa(p.Dup))
	}
	if p.Reorder > 0 {
		parts = append(parts, "reorder="+ftoa(p.Reorder))
	}
	if p.Retry > 0 {
		parts = append(parts, "retry="+ftoa(p.Retry))
	}
	return strings.Join(parts, "; ")
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Parse builds a Plan from a spec string. Clauses are separated by ';'
// or ',' and each is key=value:
//
//	seed=N                 deterministic seed for link-fault streams
//	crash=W@T[+R]          worker W crashes at time T, restarts after R
//	crash=W@uN[+R]         worker W crashes after its N-th update
//	panic=W@T, panic=W@uN  worker W panics (rogue program; never restarts)
//	slow=W@T:DUR:F         worker W runs F× slower during [T, T+DUR)
//	squeeze=T:DUR:B        B bytes of synthetic memory pressure in [T, T+DUR)
//	drop=P dup=P reorder=P per-batch link fault probabilities
//	retry=D                retransmit delay for dropped batches
//
// Omitting "+R" on a crash makes it permanent.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "crash":
			err = parseCrash(p, val, false)
		case "panic":
			err = parseCrash(p, val, true)
		case "slow":
			err = parseSlow(p, val)
		case "squeeze":
			err = parseSqueeze(p, val)
		case "drop":
			if strings.Contains(val, ">") {
				err = parseLinkDrop(p, val)
			} else {
				p.Drop, err = parseProb(val)
			}
		case "dup":
			p.Dup, err = parseProb(val)
		case "reorder":
			p.Reorder, err = parseProb(val)
		case "retry":
			p.Retry, err = strconv.ParseFloat(val, 64)
			if err == nil && p.Retry < 0 {
				err = fmt.Errorf("negative retry delay")
			}
		default:
			return nil, fmt.Errorf("fault: unknown clause key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %v", clause, err)
		}
	}
	return p, nil
}

// Load parses specOrPath as a spec string, or — if it names a readable
// file — parses the file's contents (lines starting with '#' ignored).
func Load(specOrPath string) (*Plan, error) {
	if b, err := os.ReadFile(specOrPath); err == nil {
		var lines []string
		for _, ln := range strings.Split(string(b), "\n") {
			ln = strings.TrimSpace(ln)
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			lines = append(lines, ln)
		}
		return Parse(strings.Join(lines, ";"))
	}
	return Parse(specOrPath)
}

func parseCrash(p *Plan, val string, panicFault bool) error {
	ws, rest, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want W@T[+R] or W@uN[+R]")
	}
	w, err := strconv.Atoi(ws)
	if err != nil || w < 0 {
		return fmt.Errorf("bad worker %q", ws)
	}
	c := Crash{Worker: w, Restart: -1, Panic: panicFault}
	trig, restart, hasRestart := strings.Cut(rest, "+")
	if panicFault && hasRestart {
		return fmt.Errorf("panic faults cannot restart (drop the +%s)", restart)
	}
	if strings.HasPrefix(trig, "u") {
		c.AfterUpdates, err = strconv.ParseInt(trig[1:], 10, 64)
		if err != nil || c.AfterUpdates <= 0 {
			return fmt.Errorf("bad update trigger %q", trig)
		}
	} else {
		c.At, err = strconv.ParseFloat(trig, 64)
		if err != nil || c.At < 0 {
			return fmt.Errorf("bad trigger time %q", trig)
		}
	}
	if hasRestart {
		c.Restart, err = strconv.ParseFloat(restart, 64)
		if err != nil || c.Restart < 0 {
			return fmt.Errorf("bad restart delay %q", restart)
		}
	}
	p.Crashes = append(p.Crashes, c)
	return nil
}

func parseSlow(p *Plan, val string) error {
	ws, rest, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want W@T:DUR:F")
	}
	w, err := strconv.Atoi(ws)
	if err != nil || w < 0 {
		return fmt.Errorf("bad worker %q", ws)
	}
	f := strings.Split(rest, ":")
	if len(f) != 3 {
		return fmt.Errorf("want W@T:DUR:F")
	}
	s := Slowdown{Worker: w}
	if s.At, err = strconv.ParseFloat(f[0], 64); err != nil || s.At < 0 {
		return fmt.Errorf("bad start time %q", f[0])
	}
	if s.Duration, err = strconv.ParseFloat(f[1], 64); err != nil || s.Duration <= 0 {
		return fmt.Errorf("bad duration %q", f[1])
	}
	if s.Factor, err = strconv.ParseFloat(f[2], 64); err != nil || s.Factor < 1 {
		return fmt.Errorf("bad factor %q (want >= 1)", f[2])
	}
	p.Slowdowns = append(p.Slowdowns, s)
	return nil
}

func parseSqueeze(p *Plan, val string) error {
	f := strings.Split(val, ":")
	if len(f) != 3 {
		return fmt.Errorf("want T:DUR:B")
	}
	var s Squeeze
	var err error
	if s.At, err = strconv.ParseFloat(f[0], 64); err != nil || s.At < 0 {
		return fmt.Errorf("bad start time %q", f[0])
	}
	if s.Duration, err = strconv.ParseFloat(f[1], 64); err != nil || s.Duration <= 0 {
		return fmt.Errorf("bad duration %q", f[1])
	}
	if s.Bytes, err = strconv.ParseInt(f[2], 10, 64); err != nil || s.Bytes <= 0 {
		return fmt.Errorf("bad byte count %q", f[2])
	}
	p.Squeezes = append(p.Squeezes, s)
	return nil
}

// parseLinkDrop handles the "drop=F>T:P" form: batches on link F→T are
// dropped with probability P, overriding the global drop rate there.
func parseLinkDrop(p *Plan, val string) error {
	fs, rest, _ := strings.Cut(val, ">")
	ts, ps, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("want F>T:P")
	}
	from, err := strconv.Atoi(strings.TrimSpace(fs))
	if err != nil || from < 0 {
		return fmt.Errorf("bad source worker %q", fs)
	}
	to, err := strconv.Atoi(strings.TrimSpace(ts))
	if err != nil || to < 0 {
		return fmt.Errorf("bad destination worker %q", ts)
	}
	if from == to {
		return fmt.Errorf("link %d>%d is not a link", from, to)
	}
	prob, err := parseProb(strings.TrimSpace(ps))
	if err != nil {
		return err
	}
	if p.LinkDrop == nil {
		p.LinkDrop = make(map[[2]int]float64)
	}
	p.LinkDrop[[2]int{from, to}] = prob
	return nil
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v out of [0,1]", p)
	}
	return p, nil
}

// Fate is the deterministic outcome drawn for one message batch.
type Fate struct {
	Drop    bool
	Dup     bool
	Reorder bool
}

// Injector interprets a Plan during one run. It is safe for concurrent
// use (the live driver calls it from every worker goroutine); under the
// single-threaded sim driver the locks are uncontended.
//
// Link-fault decisions are pure functions of (Seed, from, to, seq) where
// seq is a per-link counter, so two runs of the same plan draw the same
// fates for the same batch sequence regardless of goroutine scheduling.
type Injector struct {
	plan *Plan

	mu      sync.Mutex
	fired   []bool // per-crash: already triggered
	linkSeq map[[2]int]uint64
}

// NewInjector builds the runtime interpreter for plan. A nil plan yields
// an injector that never injects.
func NewInjector(plan *Plan) *Injector {
	inj := &Injector{plan: plan, linkSeq: make(map[[2]int]uint64)}
	if plan != nil {
		inj.fired = make([]bool, len(plan.Crashes))
	}
	return inj
}

// Plan returns the plan the injector interprets (possibly nil).
func (in *Injector) Plan() *Plan { return in.plan }

// TimeCrashes returns the not-yet-fired time-triggered crashes, for the
// sim driver to pre-schedule as events. It does not mark them fired;
// use Take when the event executes.
func (in *Injector) TimeCrashes() []Crash {
	if in.plan == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Crash
	for i, c := range in.plan.Crashes {
		if c.AfterUpdates == 0 && !in.fired[i] {
			out = append(out, c)
		}
	}
	return out
}

// Take marks crash index i fired and returns it; the second result is
// false if it had already fired. Index order matches Plan.Crashes.
func (in *Injector) Take(i int) (Crash, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan == nil || i < 0 || i >= len(in.plan.Crashes) || in.fired[i] {
		return Crash{}, false
	}
	in.fired[i] = true
	return in.plan.Crashes[i], true
}

// TakeDue fires and returns the first pending crash for worker that is
// due given the worker's cumulative update count and current time. The
// second result is false when no crash is due. Each crash fires at most
// once even across worker restarts.
func (in *Injector) TakeDue(worker int, updates int64, now float64) (Crash, bool) {
	if in.plan == nil {
		return Crash{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, c := range in.plan.Crashes {
		if in.fired[i] || c.Worker != worker {
			continue
		}
		if c.AfterUpdates > 0 {
			if updates >= c.AfterUpdates {
				in.fired[i] = true
				return c, true
			}
		} else if now >= c.At {
			in.fired[i] = true
			return c, true
		}
	}
	return Crash{}, false
}

// SlowFactor returns the compute-cost multiplier in effect for worker at
// time now (1 when no slowdown applies). Overlapping slowdowns compose
// multiplicatively.
func (in *Injector) SlowFactor(worker int, now float64) float64 {
	if in.plan == nil {
		return 1
	}
	f := 1.0
	for _, s := range in.plan.Slowdowns {
		if s.Worker == worker && now >= s.At && now < s.At+s.Duration {
			f *= s.Factor
		}
	}
	return f
}

// SqueezeBytes returns the synthetic memory pressure in effect at time now:
// the sum of all active squeeze windows (0 when none).
func (in *Injector) SqueezeBytes(now float64) int64 {
	if in.plan == nil {
		return 0
	}
	var b int64
	for _, s := range in.plan.Squeezes {
		if now >= s.At && now < s.At+s.Duration {
			b += s.Bytes
		}
	}
	return b
}

// BatchFate draws the deterministic fate of the next batch on link
// from→to. A batch suffers at most one fault; drop takes precedence over
// dup over reorder (disjoint probability ranges on one uniform draw).
func (in *Injector) BatchFate(from, to int) Fate {
	if in.plan == nil || !in.plan.HasLinkFaults() {
		return Fate{}
	}
	in.mu.Lock()
	k := in.linkSeq[[2]int{from, to}]
	in.linkSeq[[2]int{from, to}] = k + 1
	in.mu.Unlock()
	u := u01(mix(uint64(in.plan.Seed), uint64(from)<<32|uint64(uint32(to)), k))
	p := in.plan
	drop := p.Drop
	if pr, ok := p.LinkDrop[[2]int{from, to}]; ok {
		drop = pr
	}
	switch {
	case u < drop:
		return Fate{Drop: true}
	case u < drop+p.Dup:
		return Fate{Dup: true}
	case u < drop+p.Dup+p.Reorder:
		return Fate{Reorder: true}
	}
	return Fate{}
}

// RetryDelay returns the retransmit delay for dropped batches, using
// fallback when the plan does not set one.
func (in *Injector) RetryDelay(fallback float64) float64 {
	if in.plan != nil && in.plan.Retry > 0 {
		return in.plan.Retry
	}
	return fallback
}

// mix is a splitmix64-style avalanche over three words; the result is a
// uniform 64-bit hash usable as a deterministic per-decision stream.
func mix(a, b, c uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15
	z += b * 0xbf58476d1ce4e5b9
	z += c * 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// u01 maps a 64-bit hash to [0,1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }
