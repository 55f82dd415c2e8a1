package tag

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/relation"
)

// snapshotCatalog builds a catalog exercising every snapshot-relevant
// shape: duplicate rows, nulls, non-materialized columns (floats and a
// comment column under DefaultPolicy), an empty relation, and keys.
func snapshotCatalog() *relation.Catalog {
	c := relation.NewCatalog()
	items := relation.New("Items", relation.MustSchema(
		relation.Col("id", relation.KindInt),
		relation.Col("name", relation.KindString),
		relation.Col("price", relation.KindFloat),
		relation.Col("comment", relation.KindString),
	))
	items.Tuples = []relation.Tuple{
		{relation.Int(1), relation.Str("a"), relation.Float(1.5), relation.Str("c1")},
		{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")},
		{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")}, // duplicate
		{relation.Int(3), relation.Null, relation.Float(-0.5), relation.Str("c3")},
	}
	c.MustAdd(items)
	groups := relation.New("groups", relation.MustSchema(
		relation.Col("gid", relation.KindInt),
		relation.Col("item", relation.KindInt),
		relation.Col("flag", relation.KindBool),
		relation.Col("day", relation.KindDate),
	))
	groups.Tuples = []relation.Tuple{
		{relation.Int(10), relation.Int(1), relation.Bool(true), relation.Date(19000)},
		{relation.Int(10), relation.Int(2), relation.Bool(false), relation.Date(19001)},
	}
	c.MustAdd(groups)
	c.MustAdd(relation.New("empty", relation.MustSchema(relation.Col("x", relation.KindInt))))
	c.SetPrimaryKey("items", "id")
	c.AddForeignKey(relation.ForeignKey{Table: "groups", Column: "item", RefTable: "items", RefColumn: "id"})
	return c
}

// graphsStructurallyEqual asserts every queryable and maintainable
// aspect of two TAG graphs matches: ids, labels, payloads, adjacency,
// symbols, and all derived lookup structures.
func graphsStructurallyEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.G.NumVertices() != want.G.NumVertices() || got.G.NumEdges() != want.G.NumEdges() {
		t.Fatalf("shape: got %d/%d vertices/edges, want %d/%d",
			got.G.NumVertices(), got.G.NumEdges(), want.G.NumVertices(), want.G.NumEdges())
	}
	if got.Aggregator != want.Aggregator {
		t.Fatalf("aggregator: got %d, want %d", got.Aggregator, want.Aggregator)
	}
	if got.G.Symbols.Len() != want.G.Symbols.Len() {
		t.Fatalf("symbols: got %d, want %d", got.G.Symbols.Len(), want.G.Symbols.Len())
	}
	for id := 1; id <= want.G.Symbols.Len(); id++ {
		if g, w := got.G.Symbols.Name(bsp.LabelID(id)), want.G.Symbols.Name(bsp.LabelID(id)); g != w {
			t.Fatalf("symbol %d: got %q, want %q", id, g, w)
		}
	}
	for v := 0; v < want.G.NumVertices(); v++ {
		id := bsp.VertexID(v)
		if got.G.Label(id) != want.G.Label(id) {
			t.Fatalf("vertex %d label: got %d, want %d", v, got.G.Label(id), want.G.Label(id))
		}
		if !reflect.DeepEqual(got.G.Data(id), want.G.Data(id)) {
			t.Fatalf("vertex %d payload: got %+v, want %+v", v, got.G.Data(id), want.G.Data(id))
		}
		ge, we := got.G.Edges(id), want.G.Edges(id)
		if len(ge) != len(we) || (len(we) > 0 && !reflect.DeepEqual(ge, we)) {
			t.Fatalf("vertex %d adjacency: got %v, want %v", v, ge, we)
		}
	}
	if !reflect.DeepEqual(got.tupleVerts, want.tupleVerts) {
		t.Fatalf("tupleVerts: got %v, want %v", got.tupleVerts, want.tupleVerts)
	}
	if !reflect.DeepEqual(got.tupleLabel, want.tupleLabel) {
		t.Fatalf("tupleLabel: got %v, want %v", got.tupleLabel, want.tupleLabel)
	}
	if !reflect.DeepEqual(got.edgeLabel, want.edgeLabel) {
		t.Fatalf("edgeLabel: got %v, want %v", got.edgeLabel, want.edgeLabel)
	}
	if !reflect.DeepEqual(got.materialized, want.materialized) {
		t.Fatalf("materialized: got %v, want %v", got.materialized, want.materialized)
	}
	if !reflect.DeepEqual(got.attrVertex, want.attrVertex) {
		t.Fatalf("attrVertex: got %v, want %v", got.attrVertex, want.attrVertex)
	}
	if !reflect.DeepEqual(got.attrByEdge, want.attrByEdge) {
		t.Fatalf("attrByEdge: got %v, want %v", got.attrByEdge, want.attrByEdge)
	}
	if !reflect.DeepEqual(got.attrKindLbl, want.attrKindLbl) {
		t.Fatalf("attrKindLbl: got %v, want %v", got.attrKindLbl, want.attrKindLbl)
	}
	if !reflect.DeepEqual(got.Catalog.Names(), want.Catalog.Names()) {
		t.Fatalf("catalog names: got %v, want %v", got.Catalog.Names(), want.Catalog.Names())
	}
	for _, name := range want.Catalog.Names() {
		if !reflect.DeepEqual(got.Catalog.Get(name).Tuples, want.Catalog.Get(name).Tuples) {
			t.Fatalf("catalog %s rows differ", name)
		}
	}
}

func snapshotBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip: a built graph — including post-build inserts
// and deletes that create dead vertices, orphaned attribute entries,
// and catalog/payload row-order divergence — survives snapshot/load
// with full structural equality, and the encoding is deterministic.
func TestSnapshotRoundTrip(t *testing.T) {
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: insert rows (new and duplicate values), then delete the
	// FIRST duplicate vertex — after this, catalog row order and live
	// payload order for "items" diverge positionally, and the value-2
	// attribute entries for items.id stay in attrByEdge even where
	// orphaned.
	if _, err := g.InsertBatch("items", []relation.Tuple{
		{relation.Int(9), relation.Str("z"), relation.Float(2.5), relation.Str("c9")},
	}); err != nil {
		t.Fatal(err)
	}
	dups := g.TupleVertices("items")
	if err := g.DeleteBatch([]bsp.VertexID{dups[1], dups[3]}); err != nil {
		t.Fatal(err)
	}

	data := snapshotBytes(t, g)
	if again := snapshotBytes(t, g); !bytes.Equal(data, again) {
		t.Fatal("WriteSnapshot is not deterministic")
	}

	loaded, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	graphsStructurallyEqual(t, loaded, g)

	// The loaded graph keeps maintaining identically: the same insert on
	// both sides lands on the same vertex ids and leaves the graphs equal.
	rows := []relation.Tuple{{relation.Int(77), relation.Str("w"), relation.Null, relation.Str("cw")}}
	va, err := g.InsertBatch("items", rows)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := loaded.InsertBatch("items", rows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatalf("post-load insert ids: got %v, want %v", vb, va)
	}
	graphsStructurallyEqual(t, loaded, g)
}

// TestSnapshotCorruption: torn, bit-flipped, or mislabeled input is
// refused — never half-loaded.
func TestSnapshotCorruption(t *testing.T) {
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, g)

	if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(data[:len(data)-4]))); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("truncated err = %v, want ErrCorrupt", err)
	}
	// Dropping the entire end frame must also fail: a prefix that parses
	// is still not a complete image. Find the end frame's start by
	// scanning: it is the last frame.
	for cut := len(data) - 1; cut > 0; cut-- {
		if n, _ := codec.ScanValidPrefix(bytes.NewReader(data[:cut])); n == int64(cut) {
			if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(data[:cut]))); err == nil {
				t.Fatal("snapshot prefix without end marker loaded")
			}
			break
		}
	}
	for _, off := range []int{10, len(data) / 2, len(data) - 10} {
		flipped := append([]byte(nil), data...)
		flipped[off] ^= 0xff
		if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(flipped))); err == nil {
			t.Fatalf("bit flip at %d loaded cleanly", off)
		}
	}
	if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(nil))); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("empty err = %v, want ErrCorrupt", err)
	}
}
