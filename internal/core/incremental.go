package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/relation"
	"repro/internal/sql"
)

// This file is the incremental query maintenance layer: a pinned
// (prepared) query keeps a QueryState — the pre-projection aggregation
// groups, or the raw result rows — and advances it across graph
// generations by folding the write delta instead of re-running the
// full BSP reduction.
//
// The delta split is a vertex-ID window: tag.Clone records the vertex
// count at clone time (DeltaBase), so every tuple the batch inserted
// sits at an ID >= base and every pre-existing tuple below it. For an
// insert-only batch, Q(new) - Q(old) decomposes seminaïve-style into
// one term per FROM alias whose table received inserts:
//
//	term j = Q(A_1^new, ..., A_{j-1}^new, ΔA_j, A_{j+1}^old, ..., A_n^old)
//
// Each term is the original query run with alias j restricted to the
// delta window, later aliases to the old window, and earlier aliases
// unrestricted — the windows are enforced at the single vertex
// admission chokepoint (componentRun.passes). A window is a selection
// and narrows the delta alias's seed count, so when the delta alias is
// a leaf, planning starts the reduction there unless a selected leaf
// seeds fewer tuples, and the collection too unless any leaf does: a
// term touches the batch's vertices and their join frontier, not the
// graph.
//
// Folding a term into the cached state reuses the combiner's group fold
// (partialGroups.fold): aggregate terms merge group-by-group, exactly,
// so the folded answer is byte-identical to a cold run whatever the
// aggregate; non-aggregate terms append rows. Deletes, outer joins,
// cyclic plans, subqueries and rep-dependent projections are
// non-monotone or non-capturable here and fall back to a cold re-run.

// vertexWindow is a half-open vertex-ID interval [Lo, Hi); Hi < 0 means
// unbounded above. With DeltaBase b, the "old" window is [0, b) and the
// "delta" window is [b, ∞).
type vertexWindow struct {
	lo, hi bsp.VertexID
}

func (w vertexWindow) contains(v bsp.VertexID) bool {
	return v >= w.lo && (w.hi < 0 || v < w.hi)
}

// slice narrows an ascending vertex-ID list to the window by binary
// search, returning a sub-slice of the input.
func (w vertexWindow) slice(verts []bsp.VertexID) []bsp.VertexID {
	i := sort.Search(len(verts), func(k int) bool { return verts[k] >= w.lo })
	j := len(verts)
	if w.hi >= 0 {
		j = sort.Search(len(verts), func(k int) bool { return verts[k] >= w.hi })
	}
	if i > j {
		i = j
	}
	return verts[i:j]
}

// stateCapture snapshots the pre-projection group state of one
// aggregate run (hooked into projectEmitted). Representative rows are
// remapped to the block's canonical header so states captured under
// different plan shapes (cold run vs delta terms, whose join trees
// differ) fold against each other.
type stateCapture struct {
	done  bool
	state partialGroups
}

func (sc *stateCapture) record(c *compiled, groups []*groupAcc, srcHeader []string) {
	sc.done = true
	canon := c.canonicalHeader()
	idx := buildIndex(srcHeader)
	sc.state = partialGroups{groups: make([]*groupAcc, 0, len(groups))}
	for _, g := range groups {
		rep := make([]relation.Value, len(canon))
		for i, col := range canon {
			if j, ok := idx[col]; ok && j < len(g.rep) {
				rep[i] = g.rep[j]
			} else {
				rep[i] = relation.Null
			}
		}
		sc.state.groups = append(sc.state.groups, &groupAcc{key: g.key, rep: rep, aggs: g.aggs})
	}
}

// QueryState is the resumable state of one pinned query: the epoch it
// answers for, the canonically sorted answer at that epoch, and the
// foldable pre-projection state (groups for aggregate queries, rows
// otherwise).
type QueryState struct {
	An    *sql.Analysis
	Epoch uint64
	// Answer is the result at Epoch in canonical (sorted) row order.
	Answer *relation.Relation

	agg      bool
	distinct bool
	groups   partialGroups // representatives under compiled.canonicalHeader
	rows     *relation.Relation
}

// FoldOutcome reports how FoldDelta advanced a state.
type FoldOutcome int

// FoldDelta outcomes.
const (
	// FoldHit: the cached answer was advanced by folding the delta (or
	// the batch did not touch any referenced table) — O(delta) work.
	FoldHit FoldOutcome = iota
	// FoldFallback: the state was rebuilt by a full cold re-run
	// (deletes, a missed epoch, …).
	FoldFallback
)

func (o FoldOutcome) String() string {
	if o == FoldHit {
		return "hit"
	}
	return "fallback"
}

// IncrementalEligible reports whether an analyzed query's state can be
// maintained incrementally at all, with the disqualifying reason
// otherwise. Eligibility is static: even an eligible query falls back
// dynamically on batches it cannot fold (deletes, missed epochs).
func (e *Session) IncrementalEligible(an *sql.Analysis) (bool, string) {
	if len(an.Blocks) != 1 || an.Root.UnionNext != nil {
		return false, "subqueries or UNION"
	}
	c, err := e.compileBlock(an, an.Root)
	if err != nil {
		return false, err.Error()
	}
	if c.hasOuter {
		return false, "outer join (non-monotone under inserts)"
	}
	if c.qp == nil || !c.qp.Acyclic {
		return false, "cyclic join plan"
	}
	if c.agg != AggNone {
		if len(c.qp.Components) != 1 || !c.residualVertexSafe() {
			return false, "aggregation finalizes centrally (state not capturable)"
		}
		if !repIndependent(an.Root) {
			return false, "projects non-grouped columns (representative-dependent)"
		}
	}
	return true, ""
}

// repIndependent reports whether every non-aggregate column reference
// in the SELECT list and HAVING clause is itself a GROUP BY column, so
// projecting from a merged group's representative row cannot depend on
// which source row became the representative.
func repIndependent(blk *sql.Analyzed) bool {
	allowed := map[string]bool{}
	for _, g := range blk.Sel.GroupBy {
		if r, ok := g.(*sql.ColRef); ok && r.Depth == 0 {
			allowed[sql.BindKey(r.Alias, r.Column)] = true
		}
	}
	setup := newAggSetup(blk)
	ok := func(x sql.Expr) bool {
		if x == nil {
			return true
		}
		for _, r := range sql.ColRefs(x) {
			if r.Depth == 0 && !allowed[sql.BindKey(r.Alias, r.Column)] {
				return false
			}
		}
		return true
	}
	for _, it := range setup.items {
		if !ok(it) {
			return false
		}
	}
	return ok(setup.having)
}

// BuildState runs an eligible query cold on this session's graph and
// captures its foldable state for the given epoch.
func (e *Session) BuildState(an *sql.Analysis, epoch uint64) (*QueryState, error) {
	blk := an.Root
	st := &QueryState{
		An:       an,
		Epoch:    epoch,
		agg:      blk.HasAgg || len(blk.Sel.GroupBy) > 0,
		distinct: blk.Sel.Distinct,
	}
	if st.agg {
		e.capture = &stateCapture{}
		defer func() { e.capture = nil }()
	}
	out, err := e.Run(an)
	if err != nil {
		return nil, err
	}
	if st.agg {
		if !e.capture.done {
			return nil, fmt.Errorf("core: aggregate state not captured (central projection path)")
		}
		st.groups = e.capture.state
	} else {
		st.rows = out
	}
	st.Answer = SortCanonical(out)
	return st, nil
}

// FoldDelta advances st from st.Epoch to epoch using the write delta
// recorded on this session's graph, which must be the generation built
// by cloning the st.Epoch generation (tag.Clone arms the tracking).
// When the batch cannot be folded — deletes on a referenced table or a
// missed epoch — the state is rebuilt by a cold re-run and the call
// reports FoldFallback; st is correct for epoch either way.
func (e *Session) FoldDelta(st *QueryState, epoch uint64) (FoldOutcome, error) {
	rebuild := func() (FoldOutcome, error) {
		ns, err := e.BuildState(st.An, epoch)
		if err != nil {
			return FoldFallback, err
		}
		*st = *ns
		return FoldFallback, nil
	}

	t := e.TAG
	if !t.DeltaTracked() || st.Epoch+1 != epoch {
		return rebuild()
	}
	blk := st.An.Root
	touched := false
	for _, bt := range blk.Tables {
		if t.DeltaDeletes(bt.Table) > 0 {
			// A delete is a retraction; the Merge path only adds.
			return rebuild()
		}
		if t.DeltaInserts(bt.Table) > 0 {
			touched = true
		}
	}
	if !touched {
		st.Epoch = epoch
		return FoldHit, nil
	}

	base := t.DeltaBase()
	var termRows []*relation.Relation
	var termCaps []*stateCapture
	for j, bt := range blk.Tables {
		if t.DeltaInserts(bt.Table) == 0 {
			continue
		}
		win := map[string]vertexWindow{bt.Alias: {lo: base, hi: -1}}
		for i, ot := range blk.Tables {
			if i > j {
				win[ot.Alias] = vertexWindow{lo: 0, hi: base}
			}
		}
		e.restrict = win
		if st.agg {
			e.capture = &stateCapture{}
		}
		out, err := e.Run(st.An)
		sc := e.capture
		e.restrict, e.capture = nil, nil
		if err != nil {
			return FoldFallback, err
		}
		if st.agg {
			if !sc.done {
				return rebuild()
			}
			termCaps = append(termCaps, sc)
		} else {
			termRows = append(termRows, out)
		}
	}

	if !st.agg {
		nr := relation.New("result", blk.OutputSchema())
		nr.Tuples = append([]relation.Tuple{}, st.rows.Tuples...)
		for _, d := range termRows {
			nr.Tuples = append(nr.Tuples, d.Tuples...)
		}
		st.rows = dedup(nr, st.distinct)
		st.Answer = SortCanonical(st.rows)
		st.Epoch = epoch
		return FoldHit, nil
	}

	for _, sc := range termCaps {
		st.groups.fold(&sc.state)
	}
	c, err := e.compileBlock(st.An, blk)
	if err != nil {
		return FoldFallback, err
	}
	out, err := projectGroups(c, newAggSetup(blk), st.groups.groups, c.canonicalHeader(), nil, nil)
	if err != nil {
		return FoldFallback, err
	}
	st.Answer = SortCanonical(out)
	st.Epoch = epoch
	return FoldHit, nil
}

// CanonicalBytes serializes a result deterministically: each row in the
// exact binary value encoding (raw float bits included), rows sorted
// bytewise. Two results are the same multiset iff their canonical bytes
// are equal — the byte-identity contract incremental answers are
// verified against (the dialect has no ORDER BY, so results are
// multisets and row order is not part of the answer).
func CanonicalBytes(r *relation.Relation) []byte {
	rows := canonicalRows(r)
	sort.Slice(rows, func(a, b int) bool { return bytes.Compare(rows[a], rows[b]) < 0 })
	n := 0
	for _, b := range rows {
		n += len(b)
	}
	out := make([]byte, 0, n)
	for _, b := range rows {
		out = append(out, b...)
	}
	return out
}

// SortCanonical returns a copy of r (sharing tuples) with the rows in
// canonical byte order, so equal multisets render identically.
func SortCanonical(r *relation.Relation) *relation.Relation {
	keys := canonicalRows(r)
	idx := make([]int, len(r.Tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0 })
	out := relation.New(r.Name, r.Schema)
	out.Tuples = make([]relation.Tuple, len(r.Tuples))
	for i, j := range idx {
		out.Tuples[i] = r.Tuples[j]
	}
	return out
}

// canonicalRows encodes each tuple of r in the exact binary value
// encoding, index-aligned with r.Tuples.
func canonicalRows(r *relation.Relation) [][]byte {
	rows := make([][]byte, len(r.Tuples))
	for i, t := range r.Tuples {
		b := binary.AppendUvarint(nil, uint64(len(t)))
		for _, v := range t {
			enc, err := relation.AppendValue(b, v)
			if err != nil {
				// Unencodable kind (cannot happen for SQL results): write
				// its fields raw rather than failing a fold.
				enc = binary.AppendVarint(append(b, byte(v.Kind)), v.I)
				enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(v.F))
				enc = codec.AppendString(enc, v.S)
			}
			b = enc
		}
		rows[i] = b
	}
	return rows
}
