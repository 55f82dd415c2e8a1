package tag

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"repro/internal/relation"
)

// identityCatalog holds one row per attribute-identity case: INT 2 next
// to FLOAT 2.0, TRUE next to INT 1, DATE 5 next to INT 5, -0.0 and 0.0
// next to FALSE, and a string repeated across rows.
func identityCatalog(extra ...relation.Tuple) *relation.Catalog {
	c := relation.NewCatalog()
	cells := relation.New("cells", relation.MustSchema(
		relation.Col("i", relation.KindInt),
		relation.Col("f", relation.KindFloat),
		relation.Col("b", relation.KindBool),
		relation.Col("d", relation.KindDate),
		relation.Col("s", relation.KindString),
	))
	cells.Tuples = append([]relation.Tuple{
		{relation.Int(2), relation.Float(2.0), relation.Bool(true), relation.Date(5), relation.Str("x")},
		{relation.Int(5), relation.Float(math.Copysign(0, -1)), relation.Bool(false), relation.Date(7), relation.Str("x")},
		{relation.Int(1), relation.Float(0.5), relation.Null, relation.Null, relation.Str("y")},
	}, extra...)
	c.MustAdd(cells)
	return c
}

// identityAttrs is identityCatalog's attribute vertex count: INT 0, 1, 2
// and 5, DATE 5 and 7, "x" and "y", and FLOAT 0.5.
const identityAttrs = 9

// checkAttrIdentity asserts which values share an attribute vertex.
func checkAttrIdentity(t *testing.T, g *Graph) {
	t.Helper()
	vertexOf := func(v relation.Value) int {
		t.Helper()
		id, ok := g.AttrVertexOf(v)
		if !ok {
			t.Fatalf("%v (%v) has no attribute vertex", v, v.Kind)
		}
		return int(id)
	}
	same := func(a, b relation.Value) {
		t.Helper()
		if va, vb := vertexOf(a), vertexOf(b); va != vb {
			t.Errorf("%v %v is vertex %d, %v %v is vertex %d; want one vertex", a.Kind, a, va, b.Kind, b, vb)
		}
	}
	same(relation.Int(2), relation.Float(2.0))
	same(relation.Bool(true), relation.Int(1))
	same(relation.Bool(false), relation.Int(0))
	same(relation.Float(math.Copysign(0, -1)), relation.Int(0))
	same(relation.Float(0), relation.Int(0))
	same(relation.Str("x"), relation.Str("x"))
	if d, i := vertexOf(relation.Date(5)), vertexOf(relation.Int(5)); d == i {
		t.Errorf("DATE 5 and INT 5 share vertex %d", d)
	}
	if f, i := vertexOf(relation.Float(0.5)), vertexOf(relation.Int(0)); f == i {
		t.Errorf("FLOAT 0.5 and INT 0 share vertex %d", f)
	}
	if _, ok := g.AttrVertexOf(relation.Str("z")); ok {
		t.Error(`"z" has an attribute vertex`)
	}
	x, _ := g.AttrVertexOf(relation.Str("x"))
	if n := len(g.G.Edges(x)); n < 2 {
		t.Errorf(`"x" has %d edges, want one per row holding it`, n)
	}
}

// TestAttrIdentityPinned pins which values share an attribute vertex
// (§3: one vertex per active-domain value) on built, cloned and loaded
// graphs: integral floats and booleans are integers, -0.0 is 0, a date
// is never an integer, and NaN is never equal to anything, itself
// included.
func TestAttrIdentityPinned(t *testing.T) {
	built, err := Build(identityCatalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(snapshotBytes(t, built))))
	if err != nil {
		t.Fatal(err)
	}
	// Every value of this row already has a vertex, so inserting it into
	// a clone adds none.
	dup := relation.Tuple{relation.Int(0), relation.Float(5.0), relation.Bool(true), relation.Date(5), relation.Str("y")}
	for name, g := range map[string]*Graph{"built": built, "loaded": loaded} {
		t.Run(name, func(t *testing.T) {
			checkAttrIdentity(t, g)
			if n := g.NumAttrVertices(); n != identityAttrs {
				t.Fatalf("%d attribute vertices, want %d", n, identityAttrs)
			}
			c := g.Clone()
			if _, err := c.InsertBatch("cells", []relation.Tuple{dup}); err != nil {
				t.Fatal(err)
			}
			checkAttrIdentity(t, c)
			if n := c.NumAttrVertices(); n != identityAttrs {
				t.Fatalf("clone after inserting known values: %d attribute vertices, want %d", n, identityAttrs)
			}
		})
	}

	// NaN cells never share: each one is its own vertex, and no lookup
	// finds it. (An image cannot hold a NaN attribute vertex: the loader
	// re-derives edges by looking cell values up, so these graphs are
	// checked built and cloned only.)
	nan := relation.Float(math.NaN())
	nanRow := relation.Tuple{relation.Int(2), nan, relation.Null, relation.Null, relation.Str("x")}
	g, err := Build(identityCatalog(nanRow, nanRow), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	checkAttrIdentity(t, g)
	if n := g.NumAttrVertices(); n != identityAttrs+2 {
		t.Fatalf("two NaN cells: %d attribute vertices, want %d", n, identityAttrs+2)
	}
	if _, ok := g.AttrVertexOf(nan); ok {
		t.Fatal("NaN has an attribute vertex a lookup finds")
	}
	c := g.Clone()
	if _, err := c.InsertBatch("cells", []relation.Tuple{nanRow}); err != nil {
		t.Fatal(err)
	}
	checkAttrIdentity(t, c)
	if n, m := c.NumAttrVertices(), g.NumAttrVertices(); n != identityAttrs+3 || m != identityAttrs+2 {
		t.Fatalf("clone after a third NaN: %d attribute vertices, original %d; want %d and %d",
			n, m, identityAttrs+3, identityAttrs+2)
	}
	if _, ok := c.AttrVertexOf(nan); ok {
		t.Fatal("NaN has an attribute vertex a lookup finds in the clone")
	}
}
