package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into a layer's public functions. Spans of
// one request share Req; Parent is the span that caused this one (0 for
// a root). A Derived span was not timed directly: its length comes from
// a duration the layer reports (a RESULT trailer's Elapsed, the
// engine's MergeDuration) and it is placed at the start of its parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run and the untraced half
// of the overhead comparison call the same code.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	keep    int // spans kept in memory; later ones only count
	dropped int64
}

func newTracer(keep int) *tracer {
	return &tracer{origin: time.Now(), keep: keep}
}

// start opens a span and returns its id (0 when not tracing or full).
func (t *tracer) start(parent int, req int64, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.keep {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// derived records a child of parent that lasted d, starting where the
// parent started.
func (t *tracer) derived(parent int, req int64, name string, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.keep {
		t.dropped++
		return
	}
	start := t.spans[parent-1].StartNS
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		StartNS: start, EndNS: start + d.Nanoseconds(), Derived: true})
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover. Summed over all names it equals the total
// length of the root spans.
func (t *tracer) selfTimes() (byName map[string]time.Duration, roots time.Duration) {
	byName = map[string]time.Duration{}
	if t == nil {
		return byName, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.EndNS == 0 {
			continue
		}
		children[s.Parent] += s.EndNS - s.StartNS
	}
	for _, s := range t.spans {
		if s.EndNS == 0 {
			continue
		}
		byName[s.Name] += time.Duration(s.EndNS - s.StartNS - children[s.ID])
		if s.Parent == 0 {
			roots += time.Duration(s.EndNS - s.StartNS)
		}
	}
	return byName, roots
}

// write dumps the kept spans when the run ends.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Kept    int    `json:"kept"`
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{len(t.spans), t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
