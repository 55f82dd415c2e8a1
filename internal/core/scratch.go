package core

import (
	"repro/internal/bsp"
	"repro/internal/relation"
)

// markScratch holds the reduction marks of one component run. slot[v]
// is v's newest markRun (nil: v has no marks, 8 bytes a vertex); each
// run lists, ascending and without duplicates, the senders v last heard
// from on one plan edge, and links to v's run for another edge. Runs,
// their ids and their carried values are carved from per-worker arenas,
// so marking allocates only when an arena grows.
//
// A Session keeps released buffers and hands them to later runs, so a
// run allocates nothing O(|V|): it writes only the slots of the
// vertices it marks, records each such vertex once in the list of the
// worker that wrote it, and on release nils exactly those slots and
// rewinds the arenas. Every slot of a buffer handed out is nil.
type markScratch struct {
	slot    []*markRun
	touched [][]bsp.VertexID // per bsp worker index
	arenas  []markArena      // per bsp worker index
}

// markRun is the set of senders a vertex last heard from on one plan
// edge. When their messages carried values (stepInfo.carry), vals holds
// them beside the ids: width values per sender, in the order of ids.
type markRun struct {
	edge int
	ids  []bsp.VertexID
	vals []relation.Value
	next *markRun // the vertex's run for another edge
}

// carried returns the values sender i of the run carried.
func (run *markRun) carried(i int) []relation.Value {
	w := len(run.vals) / len(run.ids)
	return run.vals[i*w : (i+1)*w]
}

// markArena is one worker's storage for runs, ids and carried values:
// chunks that never move once allocated, so a run or a slice handed out
// stays valid (and readable by another worker in a later superstep)
// while the arena keeps carving. Chunks start small and double; a
// rewind keeps the first ones for the next run of the Session. order is
// the worker's scratch for sorting a carrying inbox by sender.
type markArena struct {
	runs  chunks[markRun]
	ids   chunks[bsp.VertexID]
	vals  chunks[relation.Value]
	order []carriedFrom
}

// carriedFrom is one message of a carrying inbox: its sender and its
// position.
type carriedFrom struct {
	from bsp.VertexID
	at   int
}

const (
	firstMarkChunk = 64
	// keptMarkRuns and keptMarkIDs bound what a rewound arena keeps, so
	// one large run does not pin its marks' memory to a pooled Session.
	keptMarkRuns = 1 << 12
	keptMarkIDs  = 1 << 14
)

// newRun returns a zeroed run.
func (a *markArena) newRun() *markRun { return &a.runs.take(1)[0] }

// rewind forgets every run, id and value handed out, dropping the
// chunks past the kept budget. Runs are cleared, so none keeps a
// pointer into a finished run's ids or values.
func (a *markArena) rewind() {
	a.runs.rewind(keptMarkRuns, true)
	a.ids.rewind(keptMarkIDs, false)
	a.vals.rewind(keptMarkIDs, true)
}

// chunks is an arena of T: slices carved from chunks that never move.
type chunks[T any] struct {
	c    [][]T
	i, j int // next element: c[i][j]
}

// take returns room for n elements.
func (a *chunks[T]) take(n int) []T {
	for a.i < len(a.c) && len(a.c[a.i])-a.j < n {
		if a.j == 0 {
			// Too small even when empty: replace it with one that fits.
			a.c[a.i] = make([]T, max(n, 2*len(a.c[a.i])))
			break
		}
		a.i, a.j = a.i+1, 0
	}
	if a.i == len(a.c) {
		size := firstMarkChunk
		if a.i > 0 {
			size = 2 * len(a.c[a.i-1])
		}
		a.c = append(a.c, make([]T, max(n, size)))
	}
	out := a.c[a.i][a.j : a.j+n : a.j+n]
	a.j += n
	return out
}

// rewind forgets everything handed out, keeping chunks up to kept
// elements; zero clears what was handed out first, so the arena holds
// no pointers into a finished run.
func (a *chunks[T]) rewind(kept int, zero bool) {
	if zero {
		for i := 0; i < a.i && i < len(a.c); i++ {
			clear(a.c[i])
		}
		if a.i < len(a.c) {
			clear(a.c[a.i][:a.j])
		}
	}
	n := 0
	for i := range a.c {
		if n += len(a.c[i]); n > kept {
			a.c = a.c[:i]
			break
		}
	}
	a.i, a.j = 0, 0
}

// edgeRun returns v's run for a plan edge, or nil.
func (m *markScratch) edgeRun(v bsp.VertexID, edge int) *markRun {
	for run := m.slot[v]; run != nil; run = run.next {
		if run.edge == edge {
			return run
		}
	}
	return nil
}

// edgeIDs returns the senders v last heard from on a plan edge.
func (m *markScratch) edgeIDs(v bsp.VertexID, edge int) []bsp.VertexID {
	if run := m.edgeRun(v, edge); run != nil {
		return run.ids
	}
	return nil
}

// filterMemo memoizes one alias's pushed-filter verdicts for one run.
// slot[v] holds stamp<<1|pass for a verdict of the current run; a slot
// carrying an older stamp is unknown, so reusing a memo clears nothing.
type filterMemo struct {
	slot  []uint32
	stamp uint32
}

// takeMarks returns an all-nil mark buffer covering the graph, from the
// Session's free list when it has one. Runs nest (a subquery evaluated
// inside a run takes its own buffer), hence a list rather than a single
// cached buffer.
func (e *Session) takeMarks() *markScratch {
	var m *markScratch
	if k := len(e.freeMarks); k > 0 {
		m, e.freeMarks = e.freeMarks[k-1], e.freeMarks[:k-1]
	} else {
		m = &markScratch{}
	}
	if n := e.TAG.G.NumVertices(); len(m.slot) < n {
		m.slot = append(m.slot, make([]*markRun, n-len(m.slot))...)
	}
	if w := e.eng.Workers(); len(m.touched) < w {
		m.touched = append(m.touched, make([][]bsp.VertexID, w-len(m.touched))...)
		m.arenas = append(m.arenas, make([]markArena, w-len(m.arenas))...)
	}
	return m
}

// releaseMarks nils the slots the run wrote, O(touched), rewinds the
// arenas, and returns the buffer to the free list.
func (e *Session) releaseMarks(m *markScratch) {
	for w, vs := range m.touched {
		for _, v := range vs {
			m.slot[v] = nil
		}
		m.touched[w] = vs[:0]
		m.arenas[w].rewind()
	}
	e.freeMarks = append(e.freeMarks, m)
}

// takeMemo returns a filter memo covering the graph with no verdict of
// the current run recorded.
func (e *Session) takeMemo() *filterMemo {
	var m *filterMemo
	if k := len(e.freeMemos); k > 0 {
		m, e.freeMemos = e.freeMemos[k-1], e.freeMemos[:k-1]
	} else {
		m = &filterMemo{}
	}
	if n := e.TAG.G.NumVertices(); len(m.slot) < n {
		m.slot = append(m.slot, make([]uint32, n-len(m.slot))...)
	}
	m.stamp++
	if m.stamp == 1<<31 {
		// The stamp no longer fits beside the verdict bit: start over
		// from a cleared memo, once every 2^31 runs.
		clear(m.slot)
		m.stamp = 1
	}
	return m
}

// lookup returns v's verdict of the current run, if one was recorded.
func (m *filterMemo) lookup(v bsp.VertexID) (pass, known bool) {
	s := m.slot[v]
	return s&1 == 1, s>>1 == m.stamp
}

// record stores v's verdict for the current run.
func (m *filterMemo) record(v bsp.VertexID, pass bool) {
	s := m.stamp << 1
	if pass {
		s |= 1
	}
	m.slot[v] = s
}
