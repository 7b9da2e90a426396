package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile
// counts only with at least ten samples above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		value float64
		ok    bool
	}{
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.value || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.value, c.ok)
		}
	}
}

func TestSummaryFlagsThinTail(t *testing.T) {
	if s := summarize(seq(50)); s.P90Valid || s.P50 != 25 || s.P25 != 13 || s.P75 != 38 {
		t.Errorf("summary of 50 samples = %+v", s)
	}
	if s := summarize(seq(200)); !s.P90Valid || s.P90 != 180 {
		t.Errorf("summary of 200 samples = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}
