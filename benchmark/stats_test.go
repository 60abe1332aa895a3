package main

import (
	"errors"
	"math"
	"testing"
)

func sampleOf(vals ...float64) *Sample {
	s := &Sample{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

func seq(n int) *Sample { // 1..n, added in reverse to exercise the sort
	s := &Sample{}
	for i := n; i >= 1; i-- {
		s.Add(float64(i))
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{
		{10, 10}, {25, 25}, {50, 50}, {75, 75}, {90, 90}, {10.5, 11},
	} {
		got, err := s.Percentile(c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// Nearest rank never interpolates: the median of an even count is the
	// lower middle value, whatever order the samples arrived in.
	if got, _ := sampleOf(4, 1, 3, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20).Percentile(50); got != 10 {
		t.Errorf("p50 of 1..20 = %v, want 10", got)
	}
}

func TestSampleKeepsArrivalOrder(t *testing.T) {
	s := sampleOf(3, 1, 2, 6, 5, 4)
	if got, err := s.Percentile(50); err != nil || got != 3 {
		t.Fatalf("p50 = %v, %v; want 3", got, err)
	}
	if s.vals[0] != 3 || s.vals[1] != 1 || s.vals[5] != 4 {
		t.Errorf("taking a percentile reordered the samples: %v", s.vals)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// beyond() counts the samples at or beyond the rank on the nearer side.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 10, 10}, {100, 90, 11}, {20, 10, 2}, {20, 25, 5}, {20, 75, 6}, {40, 25, 10}, {39, 50, 20}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	n := 4*minBeyond - 1 // p25's rank is minBeyond here, and one short of it a sample earlier
	if _, err := seq(n).Percentile(25); err != nil {
		t.Errorf("p25 of %d samples refused: %v", n, err)
	}
	if _, err := seq(n - 3).Percentile(25); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p25 of %d samples: err = %v, want errTooFewSamples", n-3, err)
	}
	if _, err := seq(n - 4).Percentile(75); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p75 of %d samples: err = %v, want errTooFewSamples", n-4, err)
	}
	if _, err := (&Sample{}).Percentile(50); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p50 of nothing: err = %v, want errTooFewSamples", err)
	}
}

func TestSummaryCarriesCountAndRefusals(t *testing.T) {
	m := seq(200).Summary()
	if m.N != 200 || m.Min != 1 || m.Max != 200 || m.P25 != 50 || m.P50 != 100 || m.P75 != 150 {
		t.Errorf("summary of 1..200 = %+v", m)
	}
	m = seq(2*minBeyond - 1).Summary() // supports the median only
	if math.IsNaN(m.P50) || !math.IsNaN(m.P10) || !math.IsNaN(m.P25) || !math.IsNaN(m.P75) || !math.IsNaN(m.P90) {
		t.Errorf("summary of %d samples = %+v, want only p50", 2*minBeyond-1, m)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestOpsAccounting(t *testing.T) {
	var o Ops
	o.ok()
	o.ok()
	o.fail("job %d failed", 3)
	o.fail("mutate refused")
	if o.Total != 4 || o.Failed != 2 || len(o.Reasons) != 2 || o.Reasons[0] != "job 3 failed" {
		t.Errorf("ops = %+v", o)
	}
}
