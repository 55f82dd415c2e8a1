package tag

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// InsertTuple adds a tuple to an already-encoded relation: a fresh tuple
// vertex plus edges to (possibly new) attribute vertices. Per §3, no
// reorganization of the graph is required — the insert is local.
func (t *Graph) InsertTuple(table string, row relation.Tuple) (bsp.VertexID, error) {
	vs, err := t.InsertBatch(table, []relation.Tuple{row})
	if err != nil {
		return 0, err
	}
	return vs[0], nil
}

// InsertBatch adds many tuples of one relation with a single Thaw/Freeze
// cycle, so the adjacency lists are re-indexed once per batch instead of
// once per row (and, after the first freeze, only for the vertices the
// batch touched). This is the amortized maintenance path for bulk loads
// and for serve-while-write: the serving layer calls it on a
// copy-on-write Clone of the served graph and atomically publishes the
// result as the next generation.
func (t *Graph) InsertBatch(table string, rows []relation.Tuple) ([]bsp.VertexID, error) {
	if err := t.ValidateInsert(table, rows); err != nil {
		return nil, err
	}
	table = strings.ToLower(table)
	vLbl := t.tupleLabel[table]
	rel := t.Catalog.Get(table)
	if len(rows) == 0 {
		return nil, nil
	}

	// The per-column edge labels and materialization choices are invariant
	// across the batch; resolve them once, not once per row.
	type colInfo struct {
		idx int
		lbl bsp.LabelID
	}
	var cols []colInfo
	for i, col := range rel.Schema.Columns {
		key := table + "." + strings.ToLower(col.Name)
		if t.materialized[key] {
			cols = append(cols, colInfo{idx: i, lbl: t.edgeLabel[key]})
		}
	}

	t.G.Thaw()
	out := make([]bsp.VertexID, 0, len(rows))
	for _, row := range rows {
		tv := t.G.AddVertex(vLbl, &TupleData{Table: table, Row: row})
		t.tupleVerts[table] = append(t.tupleVerts[table], tv)
		for _, c := range cols {
			if row[c.idx].IsNull() {
				continue
			}
			av := t.attrVertexFor(row[c.idx])
			t.G.AddUndirectedEdge(tv, av, c.lbl)
			t.addAttrByEdge(c.lbl, av)
		}
		rel.Tuples = append(rel.Tuples, row)
		out = append(out, tv)
	}
	t.G.Freeze()
	if t.deltaInserts != nil {
		t.deltaInserts[table] += len(rows)
		t.noteFrozenDirty()
	}
	return out, nil
}

// ValidateInsert checks everything InsertBatch would reject — the
// relation exists, every row matches its arity — without mutating
// anything. InsertBatch runs it before touching the graph, so a failed
// insert leaves the graph unchanged; the serving layer's write
// coalescer runs it up front so a bad op can be skipped while the rest
// of a coalesced batch proceeds on the shared clone.
func (t *Graph) ValidateInsert(table string, rows []relation.Tuple) error {
	table = strings.ToLower(table)
	if _, ok := t.tupleLabel[table]; !ok {
		return fmt.Errorf("tag: unknown relation %q", table)
	}
	rel := t.Catalog.Get(table)
	if rel == nil {
		return fmt.Errorf("tag: unknown relation %q", table)
	}
	for _, row := range rows {
		if len(row) != rel.Schema.Len() {
			return fmt.Errorf("tag: bad arity for %q", table)
		}
	}
	return nil
}

// addAttrByEdge inserts av into the sorted per-label attribute list if absent.
func (t *Graph) addAttrByEdge(lbl bsp.LabelID, av bsp.VertexID) {
	verts := t.attrByEdge[lbl]
	i := sort.Search(len(verts), func(k int) bool { return verts[k] >= av })
	if i < len(verts) && verts[i] == av {
		return
	}
	verts = append(verts, 0)
	copy(verts[i+1:], verts[i:])
	verts[i] = av
	t.attrByEdge[lbl] = verts
}

// DeleteTuple removes a tuple vertex: its edges are deleted in both
// directions and the vertex is marked dead. Attribute vertices are left in
// place even if orphaned (they are harmless: with no edges they never join
// anything). Again a purely local operation.
func (t *Graph) DeleteTuple(v bsp.VertexID) error {
	return t.DeleteBatch([]bsp.VertexID{v})
}

// ValidateDelete checks everything DeleteBatch would reject — every id
// names a live tuple vertex, none appears twice — without mutating
// anything. DeleteBatch runs it before touching the graph, and the
// serving layer's write coalescer runs it up front (alongside
// ValidateInsert) so a bad op is skipped while the rest of a coalesced
// batch proceeds on the shared clone, never tearing it.
func (t *Graph) ValidateDelete(vs []bsp.VertexID) error {
	for _, v := range vs {
		if v < 0 || int(v) >= t.G.NumVertices() {
			return fmt.Errorf("tag: no vertex %d", v)
		}
		d := t.TupleData(v)
		if d == nil {
			return fmt.Errorf("tag: vertex %d is not a tuple vertex", v)
		}
		if d.Dead {
			return fmt.Errorf("tag: vertex %d already deleted", v)
		}
	}
	seen := make(map[bsp.VertexID]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("tag: vertex %d appears twice in batch", v)
		}
		seen[v] = true
	}
	return nil
}

// DeleteBatch removes many tuple vertices with a single Thaw/Freeze
// cycle (the batched counterpart of DeleteTuple). The whole batch is
// validated before any mutation, so on error the graph is unchanged.
//
// Cost: O(batch + rows of the touched tables + adjacency of the touched
// attribute vertices), never O(batch × table). Each deleted vertex gets
// a dead, row-less payload and loses its edges; each attribute vertex it touched
// is filtered once per batch; and each touched table's tuple-vertex list
// and catalog rows are rebuilt once, in one pass each. Rebuilding into
// fresh slices, rather than editing in place, is the copy-on-write
// guard: both may be shared with the generation this graph was cloned
// from.
func (t *Graph) DeleteBatch(vs []bsp.VertexID) error {
	if err := t.ValidateDelete(vs); err != nil {
		return err
	}
	if len(vs) == 0 {
		return nil
	}

	t.G.Thaw()
	t.G.IsolateVertices(vs)
	byTable := make(map[string][]bsp.VertexID)
	for _, v := range vs {
		// Replace the payload instead of mutating it in place: the same
		// TupleData may still be read by an older graph generation this
		// graph was cloned from.
		nd := *t.TupleData(v)
		nd.Dead = true
		t.G.SetData(v, &nd)
		byTable[nd.Table] = append(byTable[nd.Table], v)
	}
	for table, dead := range byTable {
		t.dropTuples(table, dead)
		if t.deltaDeletes != nil {
			t.deltaDeletes[table] += len(dead)
		}
	}
	// Dead vertices are never reclaimed, so once dropTuples has matched
	// their catalog rows they keep none: only this generation's fresh
	// payloads are touched.
	for _, v := range vs {
		t.TupleData(v).Row = nil
	}
	t.G.Freeze()
	if t.deltaDirty != nil {
		t.noteFrozenDirty()
	}
	return nil
}

// dropTuples removes the deleted tuple vertices dead, all of one table,
// from that table's tuple-vertex list and, for each, the first
// value-equal catalog row not already dropped — so duplicate rows lose
// exactly as many copies as were deleted, and the surviving rows keep
// their order.
func (t *Graph) dropTuples(table string, dead []bsp.VertexID) {
	// The list is ascending (restriction windows binary-search it), and
	// so is the filtered copy.
	slices.Sort(dead)
	verts := t.tupleVerts[table]
	kept := make([]bsp.VertexID, 0, len(verts))
	j := 0
	for _, v := range verts {
		for j < len(dead) && dead[j] < v {
			j++
		}
		if j < len(dead) && dead[j] == v {
			continue
		}
		kept = append(kept, v)
	}
	t.tupleVerts[table] = kept

	// Pending rows are bucketed by their first value, so each catalog row
	// costs one map probe plus a tuplesEqual per same-bucket candidate.
	pending := make(map[relation.Value][]relation.Tuple, len(dead))
	for _, v := range dead {
		row := t.TupleData(v).Row
		k := rowBucket(row)
		pending[k] = append(pending[k], row)
	}
	rel := t.Catalog.Get(table)
	rows := make([]relation.Tuple, 0, len(rel.Tuples))
	left := len(dead)
	for i, row := range rel.Tuples {
		if left == 0 {
			rows = append(rows, rel.Tuples[i:]...)
			break
		}
		k := rowBucket(row)
		if cands := pending[k]; matchPending(cands, row) {
			pending[k] = cands[:len(cands)-1]
			left--
			continue
		}
		rows = append(rows, row)
	}
	rel.Tuples = rows
}

func rowBucket(row relation.Tuple) relation.Value {
	if len(row) == 0 {
		return relation.Null
	}
	return row[0]
}

// matchPending reports whether row equals one of cands, and if so moves
// that candidate to the end so the caller can pop it.
func matchPending(cands []relation.Tuple, row relation.Tuple) bool {
	for i, c := range cands {
		if tuplesEqual(c, row) {
			last := len(cands) - 1
			cands[i], cands[last] = cands[last], cands[i]
			return true
		}
	}
	return false
}

func tuplesEqual(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
