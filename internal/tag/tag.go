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
	"sort"
	"strings"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// TupleData is the payload of a tuple vertex: the relation it belongs to
// and the stored tuple (§3 step 1). A deleted tuple's payload is Dead
// and keeps no Row.
type TupleData struct {
	Table string
	Row   relation.Tuple
	Dead  bool // set by DeleteTuple; dead vertices take no part in queries
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
	attrVertex   map[relation.Value]bsp.VertexID
	tupleVerts   map[string][]bsp.VertexID // lower(table) -> vertex ids
	tupleLabel   map[string]bsp.LabelID    // lower(table) -> vertex label
	attrByEdge   map[bsp.LabelID][]bsp.VertexID
	edgeLabel    map[string]bsp.LabelID // lower(table.column) -> edge label
	materialized map[string]bool        // lower(table.column)
	attrKindLbl  map[relation.Kind]bsp.LabelID

	// Delta tracking for incremental query maintenance. A Clone records
	// the parent's vertex-ID high-water mark: vertex IDs are assigned
	// monotonically, so every vertex this graph created after the Clone
	// has ID >= deltaBase, and a tuple vertex with ID < deltaBase
	// existed (live) in the parent generation unless a delete touched
	// it. InsertBatch/DeleteBatch maintain the per-table counters and
	// the batch-touched vertex set. deltaBase < 0 means tracking is off
	// (a freshly Built graph).
	deltaBase    int
	deltaInserts map[string]int        // lower(table) -> rows inserted since Clone
	deltaDeletes map[string]int        // lower(table) -> rows deleted since Clone
	deltaDirty   map[bsp.VertexID]bool // adjacency-touched vertices since Clone
}

// Build encodes every relation in the catalog. A nil policy means
// DefaultPolicy.
func Build(cat *relation.Catalog, policy Policy) (*Graph, error) {
	if policy == nil {
		policy = DefaultPolicy
	}
	t := &Graph{
		G:            bsp.NewGraph(),
		Catalog:      cat,
		policy:       policy,
		attrVertex:   make(map[relation.Value]bsp.VertexID),
		tupleVerts:   make(map[string][]bsp.VertexID),
		tupleLabel:   make(map[string]bsp.LabelID),
		attrByEdge:   make(map[bsp.LabelID][]bsp.VertexID),
		edgeLabel:    make(map[string]bsp.LabelID),
		materialized: make(map[string]bool),
		attrKindLbl:  make(map[relation.Kind]bsp.LabelID),
		deltaBase:    -1,
	}
	t.Aggregator = t.G.AddVertex(t.G.Symbols.Intern("#aggregator"), nil)
	for _, name := range cat.Names() {
		if err := t.addRelation(cat.Get(name)); err != nil {
			return nil, err
		}
	}
	t.G.Freeze()
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

func (t *Graph) addRelation(r *relation.Relation) error {
	table := strings.ToLower(r.Name)
	if _, dup := t.tupleLabel[table]; dup {
		return fmt.Errorf("tag: relation %s already encoded", r.Name)
	}
	vLbl := t.G.Symbols.Intern(table)
	t.tupleLabel[table] = vLbl

	// Intern edge labels and record materialization choices up front, so
	// the planner can consult them even for empty relations.
	labels := make([]bsp.LabelID, r.Schema.Len())
	mat := make([]bool, r.Schema.Len())
	for i, col := range r.Schema.Columns {
		key := table + "." + strings.ToLower(col.Name)
		labels[i] = t.G.Symbols.Intern(key)
		t.edgeLabel[key] = labels[i]
		mat[i] = t.policy(r.Name, col)
		t.materialized[key] = mat[i]
	}

	for _, row := range r.Tuples {
		tv := t.G.AddVertex(vLbl, &TupleData{Table: table, Row: row})
		t.tupleVerts[table] = append(t.tupleVerts[table], tv)
		for i, v := range row {
			if !mat[i] || v.IsNull() {
				continue
			}
			t.G.AddUndirectedEdge(tv, t.attrVertexFor(v), labels[i])
		}
	}
	return nil
}

// attrVertexFor returns the (shared) attribute vertex for value v,
// creating it on first use. Identity is the canonical Key of the value, so
// e.g. 2 and 2.0 share a vertex (one vertex per active-domain value).
func (t *Graph) attrVertexFor(v relation.Value) bsp.VertexID {
	key := v.Key()
	if id, ok := t.attrVertex[key]; ok {
		return id
	}
	lbl, ok := t.attrKindLbl[key.Kind]
	if !ok {
		lbl = t.G.Symbols.Intern("#attr:" + key.Kind.String())
		t.attrKindLbl[key.Kind] = lbl
	}
	id := t.G.AddVertex(lbl, &AttrData{Value: key})
	t.attrVertex[key] = id
	return id
}

// EdgeLabel returns the interned id of the "table.column" edge label.
func (t *Graph) EdgeLabel(table, column string) (bsp.LabelID, bool) {
	id, ok := t.edgeLabel[strings.ToLower(table)+"."+strings.ToLower(column)]
	return id, ok
}

// TupleLabel returns the vertex label of a relation's tuple vertices.
func (t *Graph) TupleLabel(table string) (bsp.LabelID, bool) {
	id, ok := t.tupleLabel[strings.ToLower(table)]
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
	id, ok := t.attrVertex[v.Key()]
	return id, ok
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
func (t *Graph) NumAttrVertices() int { return len(t.attrVertex) }

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

// DeltaTables returns the lower-cased names of every table a write
// batch has touched (insert or delete) since the Clone, sorted.
func (t *Graph) DeltaTables() []string {
	seen := make(map[string]bool, len(t.deltaInserts)+len(t.deltaDeletes))
	for tb := range t.deltaInserts {
		seen[tb] = true
	}
	for tb := range t.deltaDeletes {
		seen[tb] = true
	}
	out := make([]string, 0, len(seen))
	for tb := range seen {
		out = append(out, tb)
	}
	sort.Strings(out)
	return out
}

// DirtyVertices returns, sorted, every vertex whose adjacency the
// clone's write batches touched: new tuple vertices, the attribute
// vertices they attached to, and the endpoints of deleted edges. This
// is the union of the underlying bsp.Graph's per-Freeze dirty sets,
// accumulated across every InsertBatch/DeleteBatch since Clone.
func (t *Graph) DirtyVertices() []bsp.VertexID {
	out := make([]bsp.VertexID, 0, len(t.deltaDirty))
	for v := range t.deltaDirty {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// noteFrozenDirty folds the bsp layer's last-Freeze dirty set into the
// clone's accumulated batch-touched set.
func (t *Graph) noteFrozenDirty() {
	if t.deltaDirty == nil {
		return
	}
	for _, v := range t.G.LastFrozenDirty() {
		t.deltaDirty[v] = true
	}
}
