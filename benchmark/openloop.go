package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop scheduler; tests drive it
// with a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is a fixed-rate arrival schedule: request i is due at
// start + i*interval whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
	total    int64 // requests in the schedule
	next     atomic.Int64
}

func newSchedule(start time.Time, rate float64, length time.Duration) *schedule {
	interval := time.Duration(float64(time.Second) / rate)
	return &schedule{start: start, interval: interval, total: int64(length / interval)}
}

// due is when request i was due to be sent.
func (s *schedule) due(i int64) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// claim hands out the next request of the schedule, or false once all
// have been handed out.
func (s *schedule) claim() (int64, bool) {
	i := s.next.Add(1) - 1
	return i, i < s.total
}

// openSample is one open-loop request. Latency runs from the instant
// the request was due, so the time a stalled system makes later
// requests wait is counted; Late is how long after that instant the
// request was actually sent.
type openSample struct {
	Index   int64
	Latency time.Duration
	Late    time.Duration
	OK      bool
}

// runOpenLoop drives sched with the given number of connections. do
// sends request i and reports whether its answer was correct. A worker
// that finds the next request not yet due sleeps until it is; one that
// finds it overdue sends at once, so a backlog drains as fast as the
// system allows and shows up as latency. Samples come back in
// schedule order.
func runOpenLoop(clk clock, sched *schedule, workers int, do func(worker int, i int64) bool) []openSample {
	out := make([][]openSample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := sched.claim()
				if !ok {
					return
				}
				out[w] = append(out[w], runOne(clk, sched, w, i, do))
			}
		}(w)
	}
	wg.Wait()
	var all []openSample
	for _, o := range out {
		all = append(all, o...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Index < all[b].Index })
	return all
}

func runOne(clk clock, sched *schedule, worker int, i int64, do func(int, int64) bool) openSample {
	due := sched.due(i)
	if wait := due.Sub(clk.Now()); wait > 0 {
		clk.Sleep(wait)
	}
	sent := clk.Now()
	ok := do(worker, i)
	return openSample{Index: i, Latency: clk.Now().Sub(due), Late: sent.Sub(due), OK: ok}
}

// backlogGrew reports whether latency in the last quarter of the
// samples (in schedule order) is more than twice that of the first
// quarter: the sign of a queue that does not drain at this rate.
func backlogGrew(latenciesInOrder []float64) bool {
	n := len(latenciesInOrder)
	if n < 40 {
		return false
	}
	first, last := median(latenciesInOrder[:n/4]), median(latenciesInOrder[n-n/4:])
	return last > 2*first && last > 1 // ms: ignore growth below a millisecond
}
