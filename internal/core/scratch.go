package core

import "repro/internal/bsp"

// markScratch holds the reduction marks of one component run, indexed by
// vertex. A Session keeps released buffers and hands them to later runs,
// so a run allocates nothing O(|V|): it writes only the slots of the
// vertices it marks, records each such vertex once in the list of the
// worker that wrote it, and on release nils exactly those slots. A
// released buffer therefore holds no per-vertex maps, and every slot of
// a buffer handed out is nil.
type markScratch struct {
	marks   []map[int]map[bsp.VertexID]struct{}
	touched [][]bsp.VertexID // per bsp worker index
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
	if n := e.TAG.G.NumVertices(); len(m.marks) < n {
		m.marks = append(m.marks, make([]map[int]map[bsp.VertexID]struct{}, n-len(m.marks))...)
	}
	if w := e.eng.Workers(); len(m.touched) < w {
		m.touched = append(m.touched, make([][]bsp.VertexID, w-len(m.touched))...)
	}
	return m
}

// releaseMarks nils the slots the run wrote, O(touched), and returns the
// buffer to the free list.
func (e *Session) releaseMarks(m *markScratch) {
	for w, vs := range m.touched {
		for _, v := range vs {
			m.marks[v] = nil
		}
		m.touched[w] = vs[:0]
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
