// Package tag implements the Tuple-Attribute Graph (TAG) encoding of a
// relational database from §3 of the paper.
//
// The encoding creates one tuple vertex per tuple (labeled by its relation
// name) and one attribute vertex per distinct value of the active domain
// (shared across relations and attribute names). Every occurrence of value
// a in attribute A of an R-tuple t becomes an undirected edge labeled
// "R.A" between t's vertex and a's vertex. The resulting graph is
// bipartite, linear in the database size, and query-independent.
//
// Attribute vertices double as indexes: the tuples joining through a value
// are exactly the neighbors of its vertex. A materialization policy can
// exclude attributes that are poor vertex candidates (floats, long text),
// whose values then live only inside tuple vertices, mirroring §3's
// discussion.
package tag

import (
	"fmt"
	"maps"
	"math"
	"strings"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// TupleData is the payload of a tuple vertex: the relation it belongs to
// and the stored tuple (§3 step 1). A deleted tuple's payload is Dead
// and keeps no Row; every deleted tuple of a table shares one. Payloads
// are never mutated, since older graph generations may read them.
type TupleData struct {
	Table string
	Row   relation.Tuple
	Dead  bool // set by DeleteBatch; dead vertices take no part in queries
}

// Size implements the bsp payload sizing hook.
func (d *TupleData) Size() int { return len(d.Table) + d.Row.Size() + 1 }

// AttrData is the payload of an attribute vertex: the (canonicalized)
// domain value it represents (§3 step 2).
type AttrData struct {
	Value relation.Value
}

// Size implements the bsp payload sizing hook.
func (d *AttrData) Size() int { return d.Value.Size() }

// Policy decides whether a column's values are materialized as attribute
// vertices. Non-materialized values are stored only in tuple vertices.
type Policy func(table string, col relation.Column) bool

// MaterializeAll materializes every column.
func MaterializeAll(string, relation.Column) bool { return true }

// DefaultPolicy materializes everything except floats and free-text
// columns (names containing "comment"), following §3 and §8.2.
func DefaultPolicy(table string, col relation.Column) bool {
	if col.Kind == relation.KindFloat {
		return false
	}
	return !strings.Contains(strings.ToLower(col.Name), "comment")
}

// Graph is a TAG encoding of a catalog, wrapping a bsp.Graph plus the
// lookup structures queries need (edge-label ids, per-relation tuple
// vertex lists, per-edge-label attribute vertex lists).
type Graph struct {
	G       *bsp.Graph
	Catalog *relation.Catalog

	// Aggregator is the global aggregation vertex of §2: its id is known
	// to every vertex, and global/scalar aggregation queries send it
	// their partial results (the bottleneck §8.3 observes on GA queries).
	Aggregator bsp.VertexID

	policy       Policy
	attrs        attrDict
	tupleVerts   map[string][]bsp.VertexID // lower(table) -> vertex ids; row i is Catalog row i
	tupleLabel   map[string]bsp.LabelID    // lower(table) -> vertex label
	dead         map[string]*TupleData     // lower(table) -> the payload its deleted tuples share
	attrByEdge   map[bsp.LabelID][]bsp.VertexID
	edgeLabel    map[string]bsp.LabelID // lower(table.column) -> edge label
	materialized map[string]bool        // lower(table.column)
	attrKindLbl  map[relation.Kind]bsp.LabelID

	// Delta tracking for incremental query maintenance. A Clone records
	// the parent's vertex-ID high-water mark: vertex IDs are assigned
	// monotonically, so every vertex this graph created after the Clone
	// has ID >= deltaBase, and a tuple vertex with ID < deltaBase
	// existed (live) in the parent generation unless a delete touched
	// it. InsertBatch/DeleteBatch maintain the per-table row counts.
	// deltaBase < 0 means tracking is off (a freshly Built graph).
	deltaBase    int
	deltaInserts map[string]int // lower(table) -> rows inserted since Clone
	deltaDeletes map[string]int // lower(table) -> rows deleted since Clone
}

// Build encodes every relation in the catalog. A nil policy means
// DefaultPolicy.
//
// It runs in two passes. The first goes row by row and numbers the
// vertices: the aggregator, then each tuple vertex followed by every
// attribute vertex its row is the first to reach, in column order. The
// numbering is durable, because WAL delete records name tuple vertices
// and a restart without a checkpoint replays them against a fresh Build.
// The first pass also records, per materialised column, each row's
// attribute vertex. The second pass (assemble) derives the edges from
// those columns.
func Build(cat *relation.Catalog, policy Policy) (*Graph, error) {
	if policy == nil {
		policy = DefaultPolicy
	}
	t := &Graph{
		Catalog:      cat,
		policy:       policy,
		attrs:        newAttrDict(),
		tupleVerts:   make(map[string][]bsp.VertexID),
		tupleLabel:   make(map[string]bsp.LabelID),
		dead:         make(map[string]*TupleData),
		attrByEdge:   make(map[bsp.LabelID][]bsp.VertexID),
		edgeLabel:    make(map[string]bsp.LabelID),
		materialized: make(map[string]bool),
		attrKindLbl:  make(map[relation.Kind]bsp.LabelID),
		deltaBase:    -1,
	}
	syms := bsp.NewSymbolTable()
	rows := 0
	for _, name := range cat.Names() {
		rows += cat.Get(name).Len()
	}
	labels := make([]bsp.LabelID, 1, 1+rows)
	data := make([]any, 1, 1+rows)
	labels[0] = syms.Intern("#aggregator")
	var cols []edgeColumn
	var tuples slab[TupleData]
	var attrs slab[AttrData]
	for _, name := range cat.Names() {
		r := cat.Get(name)
		table := strings.ToLower(r.Name)
		if _, dup := t.tupleLabel[table]; dup {
			return nil, fmt.Errorf("tag: relation %s already encoded", r.Name)
		}
		vLbl := syms.Intern(table)
		t.tupleLabel[table] = vLbl
		t.dead[table] = &TupleData{Table: table, Dead: true}

		// Intern edge labels and record materialization choices up front,
		// so the planner can consult them even for empty relations.
		verts := make([]bsp.VertexID, len(r.Tuples))
		first := len(cols)
		for i, col := range r.Schema.Columns {
			key := table + "." + strings.ToLower(col.Name)
			lbl := syms.Intern(key)
			t.edgeLabel[key] = lbl
			t.materialized[key] = policy(r.Name, col)
			if t.materialized[key] {
				cols = append(cols, edgeColumn{col: i, label: lbl, tuples: verts,
					attrs: make([]bsp.VertexID, len(r.Tuples))})
			}
		}
		for j, row := range r.Tuples {
			verts[j] = bsp.VertexID(len(labels))
			labels = append(labels, vLbl)
			data = append(data, tuples.new(TupleData{Table: table, Row: row}))
			for _, c := range cols[first:] {
				v := row[c.col]
				if v.IsNull() {
					c.attrs[j] = noVertex
					continue
				}
				key := v.Ident()
				id, ok := t.attrs.lookup(key)
				if !ok {
					id = bsp.VertexID(len(labels))
					labels = append(labels, t.attrLabel(syms, key.Kind))
					data = append(data, attrs.new(AttrData{Value: key.Value()}))
					t.attrs.add(key, id)
				}
				c.attrs[j] = id
			}
		}
		if len(verts) > 0 {
			t.tupleVerts[table] = verts
		}
	}
	var err error
	if t.G, err = assemble(syms, labels, data, cols); err != nil {
		return nil, err
	}
	// The attribute index, read off the frozen adjacency: an attribute
	// vertex is listed under each edge label it carries. Vertices are
	// visited in id order, so every list comes out ascending.
	for v := bsp.VertexID(0); int(v) < t.G.NumVertices(); v++ {
		if !t.IsAttr(v) {
			continue
		}
		es := t.G.Edges(v)
		for j, e := range es {
			if j == 0 || e.Label != es[j-1].Label {
				t.attrByEdge[e.Label] = append(t.attrByEdge[e.Label], v)
			}
		}
	}
	return t, nil
}

// slab hands out payloads from blocks, one allocation per block instead
// of one per vertex. Blocks double from 16 payloads to 1024, so a small
// graph allocates little. Payloads are never mutated, so sharing a block
// is safe; a block lives while any of its payloads does.
type slab[E any] []E

func (s *slab[E]) new(e E) *E {
	if len(*s) == cap(*s) {
		*s = make([]E, 0, min(max(2*cap(*s), 16), 1024))
	}
	*s = append(*s, e)
	return &(*s)[len(*s)-1]
}

// noVertex marks a NULL cell in an edgeColumn.
const noVertex bsp.VertexID = -1

// edgeColumn is one materialised column of a table: its edge label, the
// table's tuple vertices in row order, and each row's attribute vertex.
type edgeColumn struct {
	col    int // position in the table's schema
	label  bsp.LabelID
	tuples []bsp.VertexID
	attrs  []bsp.VertexID // attrs[j] is the vertex of row j's cell, or noVertex
}

// assemble derives the edges of the encoding, one undirected edge per
// non-NULL cell of cols, and returns the frozen graph of the given
// vertices. It counts every vertex's degree, allocates one edge array,
// and fills it column by column, rows in order. So a tuple vertex's
// list comes out in its table's column order and an attribute vertex's
// in (column, tuple) order: both in (label, to) order when cols runs in
// label order and each table's tuples in id order, as Build and
// ReadSnapshot give them, and no list needs sorting.
func assemble(syms *bsp.SymbolTable, labels []bsp.LabelID, data []any, cols []edgeColumn) (*bsp.Graph, error) {
	n := len(labels)
	offs := make([]int32, n+1) // offs[v+1] counts v's edges, then sums them
	cells := 0
	for _, c := range cols {
		for j, a := range c.attrs {
			if a != noVertex {
				offs[c.tuples[j]+1]++
				offs[a+1]++
				cells++
			}
		}
	}
	if cells > math.MaxInt32/2 {
		return nil, fmt.Errorf("tag: %d edges, more than a graph holds", 2*cells)
	}
	for v := 1; v <= n; v++ {
		offs[v] += offs[v-1]
	}
	es := make([]bsp.Edge, 2*cells)
	for _, c := range cols {
		for j, a := range c.attrs {
			if a == noVertex {
				continue
			}
			tv := c.tuples[j]
			es[offs[tv]] = bsp.Edge{Label: c.label, To: a}
			es[offs[a]] = bsp.Edge{Label: c.label, To: tv}
			offs[tv]++
			offs[a]++
		}
	}
	// Each vertex's cursor has reached its list's end, the next one's start.
	copy(offs[1:], offs[:n])
	offs[0] = 0
	return bsp.NewFrozenGraph(syms, labels, data, offs, es), nil
}

// attrVertexFor returns the (shared) attribute vertex for value v,
// creating it on first use. A vertex is one identity (relation.Ident), so
// e.g. 2 and 2.0 share a vertex (one vertex per active-domain value).
func (t *Graph) attrVertexFor(v relation.Value) bsp.VertexID {
	key := v.Ident()
	if id, ok := t.attrs.lookup(key); ok {
		return id
	}
	id := t.G.AddVertex(t.attrLabel(t.G.Symbols, key.Kind), &AttrData{Value: key.Value()})
	t.attrs.add(key, id)
	return id
}

// attrLabel returns the vertex label of attribute vertices of a kind,
// interning it on first use.
func (t *Graph) attrLabel(syms *bsp.SymbolTable, kind relation.Kind) bsp.LabelID {
	lbl, ok := t.attrKindLbl[kind]
	if !ok {
		lbl = syms.Intern("#attr:" + kind.String())
		t.attrKindLbl[kind] = lbl
	}
	return lbl
}

// attrDict maps join-key identities (relation.Ident) to their attribute
// vertices, one map per kind an identity can have, so a lookup hashes
// the payload alone rather than a whole Ident. Every NaN is one
// identity, so NaN cells share one vertex that lookup finds.
type attrDict struct {
	ints   map[int64]bsp.VertexID // INT, and the FLOAT and BOOL values that are an INT key
	dates  map[int64]bsp.VertexID
	strs   map[string]bsp.VertexID
	floats map[int64]bsp.VertexID // the bits of a FLOAT key
}

func newAttrDict() attrDict {
	return attrDict{
		ints:   make(map[int64]bsp.VertexID),
		dates:  make(map[int64]bsp.VertexID),
		strs:   make(map[string]bsp.VertexID),
		floats: make(map[int64]bsp.VertexID),
	}
}

// kindMap returns the map holding identities of id's kind (nil for
// strings and NULL).
func (d *attrDict) kindMap(id relation.Ident) map[int64]bsp.VertexID {
	switch id.Kind {
	case relation.KindInt:
		return d.ints
	case relation.KindDate:
		return d.dates
	case relation.KindFloat:
		return d.floats
	}
	return nil
}

// lookup returns the vertex of identity id.
func (d *attrDict) lookup(id relation.Ident) (bsp.VertexID, bool) {
	if id.Kind == relation.KindString {
		v, ok := d.strs[id.S]
		return v, ok
	}
	v, ok := d.kindMap(id)[id.I]
	return v, ok
}

// add records v as the vertex of non-NULL identity id.
func (d *attrDict) add(id relation.Ident, v bsp.VertexID) {
	if id.Kind == relation.KindString {
		d.strs[id.S] = v
		return
	}
	d.kindMap(id)[id.I] = v
}

func (d *attrDict) len() int {
	return len(d.ints) + len(d.dates) + len(d.strs) + len(d.floats)
}

func (d *attrDict) clone() attrDict {
	return attrDict{
		ints:   maps.Clone(d.ints),
		dates:  maps.Clone(d.dates),
		strs:   maps.Clone(d.strs),
		floats: maps.Clone(d.floats),
	}
}

// EdgeLabel returns the interned id of the "table.column" edge label.
func (t *Graph) EdgeLabel(table, column string) (bsp.LabelID, bool) {
	id, ok := t.edgeLabel[strings.ToLower(table)+"."+strings.ToLower(column)]
	return id, ok
}

// TupleVertices returns the tuple vertex ids of a relation.
func (t *Graph) TupleVertices(table string) []bsp.VertexID {
	return t.tupleVerts[strings.ToLower(table)]
}

// AttrVertices returns the attribute vertices incident to at least one
// edge with the given label — i.e. the distinct values of that column.
func (t *Graph) AttrVertices(label bsp.LabelID) []bsp.VertexID {
	return t.attrByEdge[label]
}

// AttrVertexOf returns the attribute vertex representing value v, if
// materialized.
func (t *Graph) AttrVertexOf(v relation.Value) (bsp.VertexID, bool) {
	return t.attrs.lookup(v.Ident())
}

// Materialized reports whether table.column values have attribute vertices.
func (t *Graph) Materialized(table, column string) bool {
	return t.materialized[strings.ToLower(table)+"."+strings.ToLower(column)]
}

// TupleData returns the payload of a tuple vertex (nil for attribute
// vertices).
func (t *Graph) TupleData(v bsp.VertexID) *TupleData {
	d, _ := t.G.Data(v).(*TupleData)
	return d
}

// AttrValue returns the value of an attribute vertex and whether v is one.
func (t *Graph) AttrValue(v bsp.VertexID) (relation.Value, bool) {
	if d, ok := t.G.Data(v).(*AttrData); ok {
		return d.Value, true
	}
	return relation.Null, false
}

// IsAttr reports whether v is an attribute vertex.
func (t *Graph) IsAttr(v bsp.VertexID) bool {
	_, ok := t.G.Data(v).(*AttrData)
	return ok
}

// NumTupleVertices returns the total tuple vertex count.
func (t *Graph) NumTupleVertices() int {
	n := 0
	for _, vs := range t.tupleVerts {
		n += len(vs)
	}
	return n
}

// NumAttrVertices returns the distinct attribute vertex count.
func (t *Graph) NumAttrVertices() int { return t.attrs.len() }

// ByteSize estimates the loaded size of the TAG representation, the
// Figure 14 measure. Attribute vertices are the original data, not a
// redundant index (§3), so this is the whole footprint.
func (t *Graph) ByteSize() int { return t.G.ByteSize() }

// String summarizes the encoding.
func (t *Graph) String() string {
	return fmt.Sprintf("TAG{%d tuple vertices, %d attribute vertices, %d edges}",
		t.NumTupleVertices(), t.NumAttrVertices(), t.G.NumEdges()/2)
}

// DeltaTracked reports whether this graph is a Clone carrying per-batch
// delta bookkeeping for incremental query maintenance.
func (t *Graph) DeltaTracked() bool { return t.deltaBase >= 0 }

// DeltaBase returns the vertex-ID boundary recorded at Clone: vertices
// with ID < DeltaBase existed in the parent generation, vertices with
// ID >= DeltaBase were created by this clone's write batches. Only
// meaningful when DeltaTracked.
func (t *Graph) DeltaBase() bsp.VertexID { return bsp.VertexID(t.deltaBase) }

// DeltaInserts returns the number of rows inserted into table since the
// Clone (0 when untouched or not tracked).
func (t *Graph) DeltaInserts(table string) int {
	return t.deltaInserts[strings.ToLower(table)]
}

// DeltaDeletes returns the number of rows deleted from table since the
// Clone (0 when untouched or not tracked).
func (t *Graph) DeltaDeletes(table string) int {
	return t.deltaDeletes[strings.ToLower(table)]
}
