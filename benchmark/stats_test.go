package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(data, n=4).
func TestQuantileMatchesPython(t *testing.T) {
	cases := []struct {
		name string
		data []float64
		want [3]float64
	}{
		{"eight", []float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{"two extrapolates", []float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{"three", []float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{"five floats", []float64{5.5, 1.25, 9.0, 4.0, 7.75}, [3]float64{2.625, 5.5, 8.375}},
	}
	for _, c := range cases {
		s := summarize(c.data)
		if !near(s.Q1, c.want[0]) || !near(s.Median, c.want[1]) || !near(s.Q3, c.want[2]) {
			t.Errorf("%s: got %v %v %v, want %v", c.name, s.Q1, s.Median, s.Q3, c.want)
		}
		if s.N != len(c.data) {
			t.Errorf("%s: n = %d", c.name, s.N)
		}
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Errorf("single sample: %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("no samples: %+v", s)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	data := []float64{3, 1, 2}
	summarize(data)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Errorf("input reordered: %v", data)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ pct, want float64 }{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(sorted, c.pct); got != c.want {
			t.Errorf("p%v = %v, want %v", c.pct, got, c.want)
		}
	}
}

// The highest percentile worth quoting has at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {120, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(s.spread(), (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", s.spread())
	}
}
