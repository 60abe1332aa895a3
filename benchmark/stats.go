package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie at or beyond a percentile's rank
// (toward the nearer end of the distribution) before the percentile is
// reported. A p10 backed by one sample is the minimum, not a percentile.
const minBeyond = 3

// errTooFewSamples is returned by Sample.Percentile when the sample cannot
// support the requested percentile.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// Sample is one class of observations (a latency class, a counter read per
// job). The zero value is ready to use.
type Sample struct {
	vals   []float64 // in arrival order
	sorted []float64 // a sorted copy, rebuilt after an Add
}

func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = nil
}

// N is the sample count; a nil Sample is empty.
func (s *Sample) N() int {
	if s == nil {
		return 0
	}
	return len(s.vals)
}

func (s *Sample) sort() []float64 {
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.vals...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples at or beyond percentile p's rank, on the side of
// the nearer end: at or below it for p <= 50, at or above it otherwise.
func beyond(n int, p float64) int {
	r := rank(n, p)
	if p <= 50 {
		return r
	}
	return n - r + 1
}

// Percentile is the nearest-rank percentile (0 < p <= 100). It refuses with
// errTooFewSamples when fewer than minBeyond samples lie at or beyond it.
func (s *Sample) Percentile(p float64) (float64, error) {
	n := s.N()
	if n == 0 || beyond(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", p, n, errTooFewSamples)
	}
	return s.sort()[rank(n, p)-1], nil
}

// Summary is what the report prints for one timing class: every figure
// travels with its sample count.
type Summary struct {
	N                       int
	Min, P10, P25, P50, P75 float64
	P90, Max                float64 // a percentile the sample cannot support is NaN
}

func (s *Sample) Summary() Summary {
	out := Summary{N: len(s.vals), Min: math.NaN(), Max: math.NaN()}
	if out.N > 0 {
		out.Min, out.Max = s.sort()[0], s.sort()[out.N-1]
	}
	for _, f := range []struct {
		p   float64
		dst *float64
	}{{10, &out.P10}, {25, &out.P25}, {50, &out.P50}, {75, &out.P75}, {90, &out.P90}} {
		v, err := s.Percentile(f.p)
		if err != nil {
			v = math.NaN()
		}
		*f.dst = v
	}
	return out
}

func (m Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f max=%.3f",
		m.N, m.Min, m.P10, m.P25, m.P50, m.P75, m.P90, m.Max)
}

// Ops is the failure accounting of one run: every HTTP operation the
// benchmark issues on the timed path counts once, and each reason an
// operation can be wrong counts it as failed once.
type Ops struct {
	Total  int
	Failed int
	// Reasons holds the first few failure descriptions for the report.
	Reasons []string
}

func (o *Ops) ok() { o.Total++ }

func (o *Ops) fail(format string, args ...any) {
	o.Total++
	o.Failed++
	if len(o.Reasons) < 8 {
		o.Reasons = append(o.Reasons, fmt.Sprintf(format, args...))
	}
}

// median of a small slice (used for the cold-start repetitions); the mean of
// the two middle values when the count is even.
func median(vals []float64) float64 {
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// minOf is the smallest value (NaN for none).
func minOf(vals []float64) float64 {
	m := math.NaN()
	for _, v := range vals {
		if !(v >= m) {
			m = v
		}
	}
	return m
}
