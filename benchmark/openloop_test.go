package main

import (
	"testing"
	"time"
)

// fakeClock is a clock that only moves when it is told to sleep or when
// the test's request handler advances it.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time        { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now = f.now.Add(d) }

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 100, 50*time.Millisecond) // every 10ms, five requests
	if s.interval != 10*time.Millisecond || s.total != 5 {
		t.Fatalf("interval %v total %d", s.interval, s.total)
	}
	for i := int64(0); i < 5; i++ {
		got, ok := s.claim()
		if !ok || got != i {
			t.Fatalf("claim %d = %d, %v", i, got, ok)
		}
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !s.due(i).Equal(want) {
			t.Errorf("due(%d) = %v, want %v", i, s.due(i), want)
		}
	}
	if _, ok := s.claim(); ok {
		t.Error("claimed a sixth request of five")
	}
}

// One slow request makes the ones behind it late; their latency is
// counted from when they were due, not from when they were sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const msec = time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	sched := newSchedule(clk.now, 100, 50*msec)
	service := []time.Duration{1 * msec, 25 * msec, 1 * msec, 1 * msec, 1 * msec}
	samples := runOpenLoop(clk, sched, 1, func(_ int, i int64) bool {
		clk.now = clk.now.Add(service[i])
		return i != 3
	})
	want := []openSample{
		{Index: 0, Latency: 1 * msec, Late: 0, OK: true},
		{Index: 1, Latency: 25 * msec, Late: 0, OK: true},         // sent on time at 10ms, done at 35ms
		{Index: 2, Latency: 16 * msec, Late: 15 * msec, OK: true}, // due at 20ms, sent at 35ms
		{Index: 3, Latency: 7 * msec, Late: 6 * msec, OK: false},  // due at 30ms, sent at 36ms
		{Index: 4, Latency: 1 * msec, Late: 0, OK: true},          // caught up: slept until 40ms
	}
	if len(samples) != len(want) {
		t.Fatalf("%d samples, want %d", len(samples), len(want))
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Errorf("request %d: got %+v, want %+v", i, samples[i], want[i])
		}
	}
}

func TestOpenLoopSharesScheduleAcrossWorkers(t *testing.T) {
	sched := newSchedule(time.Now(), 10000, 20*time.Millisecond) // 200 requests
	seen := make([]int32, sched.total)
	samples := runOpenLoop(wallClock{}, sched, 4, func(_ int, i int64) bool {
		seen[i]++ // each index is claimed by exactly one worker
		return true
	})
	if int64(len(samples)) != sched.total {
		t.Fatalf("%d samples for %d requests", len(samples), sched.total)
	}
	for i, s := range samples {
		if s.Index != int64(i) || seen[i] != 1 {
			t.Fatalf("sample %d has index %d, sent %d times", i, s.Index, seen[i])
		}
	}
}

func TestBacklogGrew(t *testing.T) {
	flat := make([]float64, 100)
	growing := make([]float64, 100)
	for i := range flat {
		flat[i] = 3
		growing[i] = 1 + float64(i)
	}
	if backlogGrew(flat) {
		t.Error("flat latency reported as a growing backlog")
	}
	if !backlogGrew(growing) {
		t.Error("steadily growing latency not reported")
	}
	if backlogGrew(growing[:10]) {
		t.Error("too few samples to tell must not report growth")
	}
}
