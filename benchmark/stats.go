package main

import (
	"math"
	"sort"
	"time"
)

// summary is the order-statistics view of one metric's samples.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

// summarize sorts a copy of xs and returns its median and quartiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return summarize(xs).Median }

// quantile interpolates the p-quantile of sorted data the way Python's
// statistics.quantiles does with its default "exclusive" method, so the
// quartiles printed here are the ones the driver computes from the same
// values.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := pos - float64(j) // outside [0,1) when j was clamped: extrapolates, as Python does
	return sorted[j-1]*(1-delta) + sorted[j]*delta
}

// percentile is the nearest-rank percentile (pct in (0,100]) of sorted
// data: the smallest sample with at least pct% of the samples at or
// below it. Latency tails use it so the reported value is a latency
// that was actually observed.
func percentile(sorted []float64, pct float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(pct / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// pctOf is percentile over samples in any order.
func pctOf(xs []float64, pct float64) float64 { return percentile(sortedCopy(xs), pct) }

// tailLadder are the percentiles a latency report may quote, in tenths
// of a percent so that "samples beyond it" is exact integer arithmetic
// (100*(1-0.9) is 9.999... in floating point).
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// supportedTail returns the highest percentile of the ladder that still
// has at least ten samples beyond it among n, or 0 when not even the
// median does: a percentile with fewer samples above it is mostly the
// luck of one run.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = float64(p) / 10
		}
	}
	return best
}

// spread is the distance between the quartiles as a share of the
// median, the run-to-run steadiness measure the bounds are held to.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
