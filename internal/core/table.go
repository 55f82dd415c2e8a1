// Package core implements TAG-join (§4–§7 of the paper): vertex-centric
// evaluation of SQL equi-join queries over the TAG encoding, running on
// the bsp engine. The executor compiles analyzed SQL into TAG traversal
// plans, runs Algorithm 2's reduction and collection phases as vertex
// programs, handles cyclic fragments with the heavy/light strategy,
// Cartesian products, outer joins, subqueries, and the three aggregation
// classes (local, global, scalar).
//
// Per-query state lives on a Session; any number of Sessions evaluate
// concurrently over one frozen, immutable tag.Graph. A Session is bound
// for life to the graph generation it was created on: under the serving
// layer's generation scheme, incremental maintenance never mutates a
// served graph — it publishes a clone as a new generation with fresh
// sessions and drains the old.
package core

import (
	"sort"

	"repro/internal/relation"
)

// idCol returns the hidden provenance column name for an alias. Every
// tuple vertex contributes its vertex id under this column, so that
// re-joining a table with a tuple vertex's own row during the Euler
// traversal of the collection phase keeps exactly the rows that
// originated there (correct multiplicities even with duplicate tuples).
func idCol(alias string) string { return "#" + alias }

// table is a partial join result flowing through the collection phase:
// a header of "alias.column" bind keys (plus hidden #alias id columns)
// over rows of values. The header and index are immutable and shared
// between tables of the same shape (they are per-plan-edge, not per-row).
// A table decoded off the wire has rows only, until the collection
// step it arrives at gives it the plan's header (collectStep.adopt).
type table struct {
	header []string
	index  map[string]int
	rows   [][]relation.Value
}

func buildIndex(header []string) map[string]int {
	idx := make(map[string]int, len(header))
	for i, h := range header {
		idx[h] = i
	}
	return idx
}

func newTable(header []string) *table {
	return &table{header: header, index: buildIndex(header)}
}

// newTableShared reuses a prebuilt index (read-only).
func newTableShared(header []string, index map[string]int) *table {
	return &table{header: header, index: index}
}

// unitTable is the join identity: one empty row.
func unitTable() *table {
	t := newTable(nil)
	t.rows = [][]relation.Value{{}}
	return t
}

// clone returns a shallow copy sharing rows and index.
func (t *table) clone() *table {
	return &table{header: t.header, index: t.index, rows: t.rows}
}

// Size prices the table as a message payload in bytes (the
// MessageBytes measure): its row values only, since the plan fixes the
// header. The wire leaves it out too (appendTable writes the row count
// and width, then the values).
func (t *table) Size() int {
	n := 8
	for _, r := range t.rows {
		for _, v := range r {
			n += v.Size()
		}
	}
	return n
}

// classAgreement describes, for one join-attribute class, the bind keys
// of its member columns; a joined row is valid only if all present member
// columns hold one non-NULL key, by relation.Ident (this enforces
// multi-attribute join conditions and broken cycle-closing predicates,
// §4.2/§6.2).
type classAgreement [][]string

// joinShape is the precomputed plan of joining two table shapes: shared
// column slot pairs, the t2-only slots, the merged header/index, and the
// class-agreement slot sets. The collection phase builds one per UP step
// from the plan (collectSchedule); a central join builds its own.
type joinShape struct {
	// left[i] and right[i] are the slots of the i-th shared column in
	// t1 and t2.
	left, right []int
	extra       []int
	header      []string
	index       map[string]int
	agreeSets   [][]int
}

// newJoinShape plans joining a table with header h1 (index idx1) to
// one with header h2, enforcing the agreement of classes.
func newJoinShape(h1 []string, idx1 map[string]int, h2 []string, classes classAgreement) *joinShape {
	s := &joinShape{}
	for i2, h := range h2 {
		if i1, ok := idx1[h]; ok {
			s.left = append(s.left, i1)
			s.right = append(s.right, i2)
		} else {
			s.extra = append(s.extra, i2)
		}
	}
	s.header = append([]string{}, h1...)
	for _, i2 := range s.extra {
		s.header = append(s.header, h2[i2])
	}
	s.index = buildIndex(s.header)
	for _, members := range classes {
		var slots []int
		for _, m := range members {
			if sl, ok := s.index[m]; ok {
				slots = append(slots, sl)
			}
		}
		if len(slots) >= 2 {
			s.agreeSets = append(s.agreeSets, slots)
		}
	}
	return s
}

// joinTables joins two tables through a shape built for them alone.
func joinTables(t1, t2 *table, classes classAgreement) *table {
	return newJoinShape(t1.header, t1.index, t2.header, classes).join(t1, t2)
}

// join computes t1 ⋈ t2, whose headers are the ones s was built for:
// rows must agree on shared header columns and on all class member
// columns present in the merged header. Output rows follow t1's row
// order, and t2's within one t1 row; they are carved from shared
// backing arrays rather than allocated one by one.
func (s *joinShape) join(t1, t2 *table) *table {
	out := newTableShared(s.header, s.index)
	rows := rowArena{width: len(s.header)}
	switch {
	case len(s.left) == 0:
		rows.reserve(len(t1.rows) * len(t2.rows))
		for _, r1 := range t1.rows {
			for _, r2 := range t2.rows {
				s.emit(out, &rows, r1, r2)
			}
		}
	case len(t2.rows) == 1:
		// A one-row t2 (a vertex's own tuple, on every collection join)
		// is compared directly: count the matches, then fill exactly.
		r2 := t2.rows[0]
		n := 0
		for _, r1 := range t1.rows {
			if slotsEqual(r1, s.left, r2, s.right) {
				n++
			}
		}
		rows.reserve(n)
		for _, r1 := range t1.rows {
			if slotsEqual(r1, s.left, r2, s.right) {
				s.emit(out, &rows, r1, r2)
			}
		}
	default:
		// Hash t2 on the shared columns. NULLs are values here: the
		// shared columns are one column seen from both sides.
		b := bucketRows(t2.rows, s.right, false)
		rows.reserve(len(t1.rows)) // a key join's usual size; grows if not
		for _, r1 := range t1.rows {
			for i := b.first(r1, s.left); i >= 0; i = b.next[i] {
				if r2 := t2.rows[i]; slotsEqual(r1, s.left, r2, s.right) {
					s.emit(out, &rows, r1, r2)
				}
			}
		}
	}
	return out
}

// emit appends the joined row of r1 and r2 to out if it satisfies the
// class agreement.
func (s *joinShape) emit(out *table, rows *rowArena, r1, r2 []relation.Value) {
	row := rows.next()
	copy(row, r1)
	for k, i2 := range s.extra {
		row[len(r1)+k] = r2[i2]
	}
	for _, slots := range s.agreeSets {
		first := row[slots[0]]
		for _, sl := range slots[1:] {
			if first.IsNull() || first.Ident() != row[sl].Ident() {
				return
			}
		}
	}
	out.rows = append(out.rows, rows.keep())
}

// rowArena carves fixed-width rows out of shared backing arrays. A row
// handed out by next is only taken if keep follows; otherwise the next
// call reuses its space. Rows are capped at the width, so appending to
// one never writes into its neighbour.
type rowArena struct {
	width int
	buf   []relation.Value
	kept  int // rows kept so far, which sizes the next array
}

// reserve makes room for n more rows in one backing array.
func (a *rowArena) reserve(n int) {
	if need := n * a.width; len(a.buf) < need {
		a.buf = make([]relation.Value, need)
	}
}

// next returns space for one row, valid until the next call.
func (a *rowArena) next() []relation.Value {
	if len(a.buf) < a.width {
		a.reserve(max(16, a.kept))
	}
	return a.buf[:a.width:a.width]
}

// keep takes and returns the row last returned by next.
func (a *rowArena) keep() []relation.Value {
	row := a.buf[:a.width:a.width]
	a.buf = a.buf[a.width:]
	a.kept++
	return row
}

// sortedKeys returns map keys sorted (test/determinism helper).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
