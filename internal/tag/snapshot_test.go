package tag

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/relation"
	"repro/internal/tpch"
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
		// What readers read: each label's run, which both graphs must
		// find, including labels the vertex does not carry.
		for lbl := bsp.LabelID(0); int(lbl) <= want.G.Symbols.Len()+1; lbl++ {
			var run []bsp.Edge
			for _, e := range we {
				if e.Label == lbl {
					run = append(run, e)
				}
			}
			for _, g := range []*Graph{got, want} {
				if r := g.G.EdgesWithLabel(id, lbl); !slices.Equal(r, run) {
					t.Fatalf("vertex %d label %d run: got %v, want %v", v, lbl, r, run)
				}
			}
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
	if !reflect.DeepEqual(got.attrs, want.attrs) {
		t.Fatalf("attribute dictionary: got %v, want %v", got.attrs, want.attrs)
	}
	if !reflect.DeepEqual(got.dead, want.dead) {
		t.Fatalf("dead payloads: got %v, want %v", got.dead, want.dead)
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
// and a deleted first copy of a duplicate row — survives snapshot/load
// with full structural equality, and the encoding is deterministic.
func TestSnapshotRoundTrip(t *testing.T) {
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: insert rows (new and duplicate values), then delete the
	// FIRST duplicate vertex — the catalog must drop that vertex's row,
	// not merely an equal one — and the value-2 attribute entries for
	// items.id stay in attrByEdge even where orphaned.
	if _, err := g.InsertBatch("items", []relation.Tuple{
		{relation.Int(9), relation.Str("z"), relation.Float(2.5), relation.Str("c9")},
	}); err != nil {
		t.Fatal(err)
	}
	dups := g.TupleVertices("items")
	dead := []bsp.VertexID{dups[1], dups[3]}
	if err := g.DeleteBatch(dead); err != nil {
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
	// A deleted tuple keeps no row, before the snapshot and after it.
	for _, v := range dead {
		for _, d := range []*TupleData{g.TupleData(v), loaded.TupleData(v)} {
			if !d.Dead || d.Row != nil {
				t.Fatalf("deleted vertex %d payload %+v, want dead and row-less", v, d)
			}
		}
	}

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

// asVersion1 rewrites a current image of g the way version-1 writers
// laid it out: the header says version 1 and every tuple record carries
// a row inline — a live tuple its own row, a dead one rows[v], or the
// table's arity of NULLs where rows has none. The image must hold one
// vertex chunk.
func asVersion1(t testing.TB, g *Graph, image []byte, rows map[bsp.VertexID]relation.Tuple) []byte {
	t.Helper()
	frames := splitFrames(t, image)
	frames[0] = withHeaderField(t, frames[0], hdrVersion, 1)
	at := len(frames) - 2 - len(g.attrByEdge) // the chunk precedes the attribute index and end frames
	d := codec.NewDecoder(frames[at])
	start, err1 := d.Uvarint()
	n, err2 := d.Uvarint()
	if err1 != nil || err2 != nil || start != 0 || int(n) != g.G.NumVertices() {
		t.Fatalf("frame %d is not the only vertex chunk", at)
	}
	out := binary.AppendUvarint(binary.AppendUvarint(nil, start), n)
	for v := bsp.VertexID(0); int(v) < int(n); v++ {
		lbl, err := d.Uvarint()
		if err != nil {
			t.Fatal(err)
		}
		tag, err := d.Byte()
		if err != nil {
			t.Fatal(err)
		}
		out = append(binary.AppendUvarint(out, lbl), tag)
		switch tag {
		case snapVertLive, snapVertDead:
			td := g.TupleData(v)
			row := td.Row
			if tag == snapVertDead {
				if row = rows[v]; row == nil {
					row = make(relation.Tuple, g.Catalog.Get(td.Table).Schema.Len())
				}
			}
			if out, err = relation.AppendTuple(out, row); err != nil {
				t.Fatal(err)
			}
		case snapVertAttr:
			val, err := relation.DecodeValue(d)
			if err != nil {
				t.Fatal(err)
			}
			out, _ = relation.AppendValue(out, val)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	frames[at] = out
	return joinFrames(frames)
}

// TestSnapshotLoadsOldDeadRecords: version-1 images, whose dead records
// carry the table's arity of NULLs or, in the oldest ones, the deleted
// rows themselves, load into the same row-less graph as the current
// image of that state, and re-encode to it byte for byte.
func TestSnapshotLoadsOldDeadRecords(t *testing.T) {
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	victims := g.TupleVertices("items")[1:3]
	rows := map[bsp.VertexID]relation.Tuple{}
	for _, v := range victims {
		rows[v] = g.TupleData(v).Row
	}
	if err := g.DeleteBatch(victims); err != nil {
		t.Fatal(err)
	}
	image := snapshotBytes(t, g)
	for name, dead := range map[string]map[bsp.VertexID]relation.Tuple{"null rows": nil, "deleted rows": rows} {
		old := asVersion1(t, g, image, dead)
		if bytes.Equal(old, image) {
			t.Fatalf("%s: version-1 image equals the current one", name)
		}
		loaded, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(old)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphsStructurallyEqual(t, loaded, g)
		for _, v := range victims {
			if d := loaded.TupleData(v); !d.Dead || d.Row != nil {
				t.Fatalf("%s: deleted vertex %d loaded as %+v, want dead and row-less", name, v, d)
			}
		}
		if !bytes.Equal(snapshotBytes(t, loaded), image) {
			t.Fatalf("%s: version-1 image does not re-encode to the current image", name)
		}
	}
}

// version1Graph is the graph testdata/snapshot-v1.img holds, made by
// today's code: snapshotCatalog's graph, cloned, with a row of new
// values and a third copy of the duplicate items row inserted, then that
// third copy and the first groups row deleted. The version-1 writer's
// DeleteBatch dropped the first catalog row equal to a deleted row, so
// in the image the items catalog rows follow another order than the
// items vertices: 1, 2, 3, 9, 2 against 1, 2, 2, 3, 9.
func version1Graph(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if _, err := c.InsertBatch("items", []relation.Tuple{
		{relation.Int(9), relation.Str("z"), relation.Float(2.5), relation.Str("c9")},
		{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")},
	}); err != nil {
		t.Fatal(err)
	}
	items := c.TupleVertices("items")
	if err := c.DeleteBatch([]bsp.VertexID{items[len(items)-1], c.TupleVertices("groups")[0]}); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkCatalogFollowsVertices asserts the invariant the snapshot format
// rests on: catalog row i of every table is the row of its i-th tuple
// vertex, one backing array.
func checkCatalogFollowsVertices(t *testing.T, g *Graph) {
	t.Helper()
	for _, name := range g.Catalog.Names() {
		rows, verts := g.Catalog.Get(name).Tuples, g.TupleVertices(name)
		if len(rows) != len(verts) {
			t.Fatalf("%s: %d catalog rows, %d tuple vertices", name, len(rows), len(verts))
		}
		for i, v := range verts {
			row := g.TupleData(v).Row
			if len(row) != len(rows[i]) || unsafe.SliceData(row) != unsafe.SliceData(rows[i]) {
				t.Fatalf("%s: catalog row %d %v is not the row %v of vertex %d", name, i, rows[i], row, v)
			}
		}
	}
}

// TestSnapshotLoadsVersion1Image: a checkpoint image the version-1
// writer produced loads with every live row in place and the catalog
// rebuilt in vertex order, and re-encodes to a version-2 image that
// round-trips.
func TestSnapshotLoadsVersion1Image(t *testing.T) {
	image, err := os.ReadFile("testdata/snapshot-v1.img")
	if err != nil {
		t.Fatal(err)
	}
	if v := headerField(t, splitFrames(t, image)[0], hdrVersion); v != 1 {
		t.Fatalf("testdata image has version %d, want 1", v)
	}
	loaded, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(image)))
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string][]relation.Tuple{
		"items": {
			{relation.Int(1), relation.Str("a"), relation.Float(1.5), relation.Str("c1")},
			{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")},
			{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")},
			{relation.Int(3), relation.Null, relation.Float(-0.5), relation.Str("c3")},
			{relation.Int(9), relation.Str("z"), relation.Float(2.5), relation.Str("c9")},
		},
		"groups": {{relation.Int(10), relation.Int(2), relation.Bool(false), relation.Date(19001)}},
	}
	for table, want := range wantRows {
		var got []relation.Tuple
		for _, v := range loaded.TupleVertices(table) {
			got = append(got, loaded.TupleData(v).Row)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s live rows: got %v, want %v", table, got, want)
		}
	}
	checkCatalogFollowsVertices(t, loaded)
	want := version1Graph(t)
	graphsStructurallyEqual(t, loaded, want)

	v2 := snapshotBytes(t, loaded)
	if v := headerField(t, splitFrames(t, v2)[0], hdrVersion); v != snapshotVersion {
		t.Fatalf("re-encoded image has version %d, want %d", v, snapshotVersion)
	}
	if !bytes.Equal(v2, snapshotBytes(t, want)) {
		t.Fatal("re-encoded image differs from the image of the same graph made today")
	}
	again, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(v2)))
	if err != nil {
		t.Fatal(err)
	}
	graphsStructurallyEqual(t, again, loaded)
	checkCatalogFollowsVertices(t, again)
	if !bytes.Equal(snapshotBytes(t, again), v2) {
		t.Fatal("version-2 image does not re-encode byte for byte")
	}
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

// TestSnapshotCostFollowsLiveRows is the bound test for the checkpoint
// image: a dead tuple vertex costs its record's label and tag bytes and,
// on load, its vertex-table entry — never its table's row width. One
// built graph is cloned, and lineitem rows it already holds are inserted
// and deleted again, 2,000 and 8,000 of them: the live rows and the
// attribute vertices stay the same, only the dead vertices grow. Per dead
// vertex the image may grow by at most 3 bytes, and ReadSnapshot's
// allocation by at most 104 B. A dead vertex costs 50 B: its label, its
// payload pointer, its 24-byte edge-list header, its edge offset and its
// two bytes in the frame buffer (53-59 B measured; an allocation rounds
// up to a whole size class). Version 1 measured 18 bytes and 1.1-1.3 KB
// per dead vertex here: each record carried its table's arity of NULLs,
// and the load built them into a row before dropping it.
func TestSnapshotCostFollowsLiveRows(t *testing.T) {
	base, err := Build(tpch.Generate(0.5, 2021), nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := base.TupleVertices("lineitem")
	measure := func(dead int) (size, alloc uint64) {
		g := base.Clone()
		rows := make([]relation.Tuple, dead)
		for i := range rows {
			rows[i] = base.TupleData(lines[i%len(lines)]).Row
		}
		vs, err := g.InsertBatch("lineitem", rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.DeleteBatch(vs); err != nil {
			t.Fatal(err)
		}
		image := snapshotBytes(t, g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loaded, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(image)))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := loaded.G.NumVertices(); n != base.G.NumVertices()+dead {
			t.Fatalf("%d dead: loaded %d vertices, want %d", dead, n, base.G.NumVertices()+dead)
		}
		return uint64(len(image)), after.TotalAlloc - before.TotalAlloc
	}
	b0, a0 := measure(0)
	t.Logf("%d vertices, %d lineitems: image %d B, load allocates %d B", base.G.NumVertices(), len(lines), b0, a0)
	for _, dead := range []int{2000, 8000} {
		b, a := measure(dead)
		perByte := float64(int64(b)-int64(b0)) / float64(dead)
		perAlloc := float64(int64(a)-int64(a0)) / float64(dead)
		t.Logf("%d dead: image %d B (%+.2f B each), load allocates %d B (%+.1f B each)", dead, b, perByte, a, perAlloc)
		if perByte > 3 {
			t.Errorf("%d dead vertices grew the image by %.2f B each, want <= 3", dead, perByte)
		}
		if perAlloc > 104 {
			t.Errorf("%d dead vertices grew the load's allocation by %.1f B each, want <= 104", dead, perAlloc)
		}
	}
}
