package core

import "repro/internal/bsp"

// markScratch holds the reduction marks of one component run. slot[v]
// is v's newest markRun (nil: v has no marks, 8 bytes a vertex); each
// run lists, ascending and without duplicates, the senders v last heard
// from on one plan edge, and links to v's run for another edge. Runs
// and their ids are carved from per-worker arenas, so marking allocates
// only when an arena grows.
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
// edge.
type markRun struct {
	edge int
	ids  []bsp.VertexID
	next *markRun // the vertex's run for another edge
}

// markArena is one worker's storage for runs and ids: chunks that never
// move once allocated, so a run or an id slice handed out stays valid
// (and readable by another worker in a later superstep) while the
// arena keeps carving. Chunks start small and double; a rewind keeps
// the first ones for the next run of the Session.
type markArena struct {
	runs   [][]markRun
	ri, rj int // next run: runs[ri][rj]
	ids    [][]bsp.VertexID
	ii, ij int // next id: ids[ii][ij]
}

const (
	firstMarkChunk = 64
	// keptMarkRuns and keptMarkIDs bound what a rewound arena keeps, so
	// one large run does not pin its marks' memory to a pooled Session.
	keptMarkRuns = 1 << 12
	keptMarkIDs  = 1 << 14
)

// newRun returns a zeroed run.
func (a *markArena) newRun() *markRun {
	if a.ri < len(a.runs) && a.rj == len(a.runs[a.ri]) {
		a.ri, a.rj = a.ri+1, 0
	}
	if a.ri == len(a.runs) {
		n := firstMarkChunk
		if a.ri > 0 {
			n = 2 * len(a.runs[a.ri-1])
		}
		a.runs = append(a.runs, make([]markRun, n))
	}
	run := &a.runs[a.ri][a.rj]
	a.rj++
	return run
}

// take returns room for n ids.
func (a *markArena) take(n int) []bsp.VertexID {
	for a.ii < len(a.ids) && len(a.ids[a.ii])-a.ij < n {
		if a.ij == 0 {
			// Too small even when empty: replace it with one that fits.
			a.ids[a.ii] = make([]bsp.VertexID, max(n, 2*len(a.ids[a.ii])))
			break
		}
		a.ii, a.ij = a.ii+1, 0
	}
	if a.ii == len(a.ids) {
		size := firstMarkChunk
		if a.ii > 0 {
			size = 2 * len(a.ids[a.ii-1])
		}
		a.ids = append(a.ids, make([]bsp.VertexID, max(n, size)))
	}
	out := a.ids[a.ii][a.ij : a.ij+n : a.ij+n]
	a.ij += n
	return out
}

// rewind forgets every run and id handed out, dropping the chunks past
// the kept budget.
func (a *markArena) rewind() {
	kept := 0
	for i := range a.runs {
		if i <= a.ri {
			clear(a.runs[i]) // drop the runs' pointers into id chunks
		}
		if kept += len(a.runs[i]); kept > keptMarkRuns {
			a.runs = a.runs[:i]
			break
		}
	}
	kept = 0
	for i := range a.ids {
		if kept += len(a.ids[i]); kept > keptMarkIDs {
			a.ids = a.ids[:i]
			break
		}
	}
	a.ri, a.rj, a.ii, a.ij = 0, 0, 0, 0
}

// edgeIDs returns the senders v last heard from on a plan edge.
func (m *markScratch) edgeIDs(v bsp.VertexID, edge int) []bsp.VertexID {
	for run := m.slot[v]; run != nil; run = run.next {
		if run.edge == edge {
			return run.ids
		}
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
