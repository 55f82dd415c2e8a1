package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer(16)
	root := tr.start(0, 1, "request")
	child := tr.start(root, 1, "layer")
	tr.end(child)
	tr.end(root)
	// Fix the clock readings so the arithmetic is exact.
	tr.spans[0].StartNS, tr.spans[0].EndNS = 0, 100
	tr.spans[1].StartNS, tr.spans[1].EndNS = 10, 40
	tr.derived(child, 1, "inner", 20*time.Nanosecond)

	self, roots := tr.selfTimes()
	if roots != 100 {
		t.Errorf("roots = %v, want 100ns", roots)
	}
	want := map[string]time.Duration{"request": 70, "layer": 10, "inner": 20}
	var sum time.Duration
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
		sum += self[name]
	}
	if sum != roots {
		t.Errorf("self times sum to %v, roots to %v", sum, roots)
	}
	if s := tr.spans[2]; !s.Derived || s.StartNS != 10 || s.EndNS != 30 || s.Parent != child {
		t.Errorf("derived span placed wrongly: %+v", s)
	}
}

func TestTracerKeepsAtMostItsLimit(t *testing.T) {
	tr := newTracer(2)
	a := tr.start(0, 1, "a")
	tr.end(a)
	b := tr.start(0, 2, "b")
	tr.end(b)
	if id := tr.start(0, 3, "c"); id != 0 {
		t.Errorf("third span got id %d, want 0 (dropped)", id)
	}
	tr.end(0) // ending a dropped span is a no-op
	if len(tr.spans) != 2 || tr.dropped != 1 {
		t.Errorf("kept %d dropped %d", len(tr.spans), tr.dropped)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start(0, 1, "x")
	tr.derived(id, 1, "y", time.Second)
	tr.end(id)
	if self, roots := tr.selfTimes(); len(self) != 0 || roots != 0 {
		t.Error("a nil tracer reported spans")
	}
}
