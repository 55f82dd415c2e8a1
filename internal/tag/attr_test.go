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

// checkAttrIdentity asserts which values share an attribute vertex, and
// whether NaN has one (all NaN cells on the one vertex lookup finds).
func checkAttrIdentity(t *testing.T, g *Graph, hasNaN bool) {
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
	nan, ok := g.AttrVertexOf(relation.Float(math.NaN()))
	if ok != hasNaN {
		t.Fatalf("NaN has a vertex: %v, want %v", ok, hasNaN)
	}
	if !ok {
		return
	}
	same(relation.Float(math.NaN()), relation.Float(-math.NaN()))
	if !g.IsAttr(nan) {
		t.Fatalf("NaN's vertex %d is not an attribute vertex", nan)
	}
	if v, _ := g.AttrValue(nan); !math.IsNaN(v.AsFloat()) || v.Kind != relation.KindFloat {
		t.Errorf("NaN's vertex holds %v %v, want a FLOAT NaN", v.Kind, v)
	}
	if n := len(g.G.Edges(nan)); n < 2 {
		t.Errorf("NaN has %d edges, want one per cell holding it", n)
	}
}

// TestAttrIdentityPinned pins which values share an attribute vertex
// (§3: one vertex per active-domain value) on built, cloned and loaded
// graphs: integral floats and booleans are integers, -0.0 is 0, a date
// is never an integer, and every NaN is one value.
func TestAttrIdentityPinned(t *testing.T) {
	// Every value of this row already has a vertex, so inserting it into
	// a clone adds none.
	dup := relation.Tuple{relation.Int(0), relation.Float(5.0), relation.Bool(true), relation.Date(5), relation.Str("y")}
	nan := relation.Float(math.NaN())
	nanRow := relation.Tuple{relation.Int(2), nan, relation.Null, relation.Null, relation.Str("x")}
	// The second fixture adds two NaN cells, which reach one NaN vertex.
	type fixture struct {
		built, loaded *Graph
		attrs         int
		hasNaN        bool
	}
	var fixtures []fixture
	for _, extra := range [][]relation.Tuple{nil, {nanRow, nanRow}} {
		built, err := Build(identityCatalog(extra...), MaterializeAll)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(snapshotBytes(t, built))))
		if err != nil {
			t.Fatal(err)
		}
		f := fixture{built: built, loaded: loaded, attrs: identityAttrs, hasNaN: len(extra) > 0}
		if f.hasNaN {
			f.attrs++
		}
		fixtures = append(fixtures, f)
	}
	for _, name := range []string{"built", "loaded"} {
		t.Run(name, func(t *testing.T) {
			for _, f := range fixtures {
				g := f.built
				if name == "loaded" {
					g = f.loaded
				}
				checkAttrIdentity(t, g, f.hasNaN)
				if n := g.NumAttrVertices(); n != f.attrs {
					t.Fatalf("%d attribute vertices, want %d", n, f.attrs)
				}
				// A NaN inserted into a clone lands on the NaN vertex,
				// which the first one creates if the graph has none.
				c := g.Clone()
				if _, err := c.InsertBatch("cells", []relation.Tuple{dup, nanRow, nanRow}); err != nil {
					t.Fatal(err)
				}
				checkAttrIdentity(t, c, true)
				if n := c.NumAttrVertices(); n != identityAttrs+1 {
					t.Fatalf("clone after inserting known values and two NaNs: %d attribute vertices, want %d", n, identityAttrs+1)
				}
				if n := g.NumAttrVertices(); n != f.attrs {
					t.Fatalf("inserting into the clone changed the original to %d attribute vertices", n)
				}
			}
		})
	}
}
