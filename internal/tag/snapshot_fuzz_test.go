package tag

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/relation"
)

// splitFrames returns the frame payloads of a snapshot image.
func splitFrames(t testing.TB, image []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for br := bufio.NewReader(bytes.NewReader(image)); ; {
		payload, _, err := codec.ReadFrame(br)
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, payload)
	}
}

// joinFrames frames each non-empty payload back into an image.
func joinFrames(payloads [][]byte) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		if len(p) > 0 {
			codec.WriteFrame(&buf, p)
		}
	}
	return buf.Bytes()
}

// packPayloads encodes payloads as the fuzz input: each one prefixed by
// its uvarint length. unpackPayloads reverses it, cutting a length that
// overruns the input down to the bytes left.
func packPayloads(payloads [][]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	return b
}

func unpackPayloads(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 {
			break
		}
		data = data[k:]
		n = min(n, uint64(len(data)))
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// withHeaderAggregator re-encodes a snapshot header payload with a
// different aggregator id.
func withHeaderAggregator(t testing.TB, hdr []byte, agg uint64) []byte {
	t.Helper()
	d := codec.NewDecoder(hdr)
	magic, err := d.Take(len(snapMagic))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), magic...)
	for i := 0; i < 6; i++ { // version, vertices, edges, aggregator, symbols, attribute labels
		v, err := d.Uvarint()
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			v = agg
		}
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestSnapshotRejectsBadAggregator: a header naming an aggregator past
// the vertex count, or any vertex that was not decoded as the payload-
// less aggregator, is corrupt — global aggregation queries would send
// their partials to it.
func TestSnapshotRejectsBadAggregator(t *testing.T) {
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := splitFrames(t, snapshotBytes(t, g))
	items := g.TupleVertices("items")
	attr, _ := g.AttrVertexOf(relation.Int(1))
	n := uint64(g.G.NumVertices())
	for _, agg := range []uint64{n, n + 5, 1 << 40, uint64(attr), uint64(items[0])} {
		bad := slices.Clone(frames)
		bad[0] = withHeaderAggregator(t, frames[0], agg)
		if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(joinFrames(bad)))); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("aggregator %d (of %d vertices): err = %v, want ErrCorrupt", agg, n, err)
		}
	}
	good := slices.Clone(frames)
	good[0] = withHeaderAggregator(t, frames[0], uint64(g.Aggregator))
	if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(joinFrames(good)))); err != nil {
		t.Fatalf("re-framed intact header: %v", err)
	}
}

// snapshotSeedImages returns images of snapshotCatalog: as built, under
// MaterializeAll, and a Clone after inserts and deletes.
func snapshotSeedImages(t testing.TB) [][]byte {
	built, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Build(snapshotCatalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	c := built.Clone()
	if _, err := c.InsertBatch("items", []relation.Tuple{
		{relation.Int(9), relation.Str("z"), relation.Float(2.5), relation.Str("c9")},
		{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertBatch("groups", []relation.Tuple{
		{relation.Int(11), relation.Int(9), relation.Bool(true), relation.Date(19002)},
	}); err != nil {
		t.Fatal(err)
	}
	items := c.TupleVertices("items")
	if err := c.DeleteBatch([]bsp.VertexID{items[1], items[3], c.TupleVertices("groups")[0]}); err != nil {
		t.Fatal(err)
	}
	return [][]byte{snapshotBytes(t, built), snapshotBytes(t, all), snapshotBytes(t, c)}
}

// snapshotRegressions are images no graph writes but the decoder once
// accepted, each named by what it breaks. Each is written from a built
// graph with one piece of state corrupted in memory.
func snapshotRegressions(t testing.TB) map[string][]byte {
	corrupt := map[string]func(g *Graph){
		"payload-less-attribute": func(g *Graph) { g.G.SetData(orphanAttr(t, g, relation.Int(50)), nil) },
		"tuple-short-row": func(g *Graph) { // drops an unmaterialized cell: no edge goes missing
			v := g.TupleVertices("items")[0]
			g.G.SetData(v, &TupleData{Table: "items", Row: g.TupleData(v).Row[:3]})
		},
		"catalog-row-without-vertex": func(g *Graph) {
			rel := g.Catalog.Get("items")
			rel.Tuples = append(rel.Tuples, relation.Tuple{relation.Float(1), relation.Null, relation.Null, relation.Null})
		},
		"attribute-value-not-canonical": func(g *Graph) {
			g.G.SetData(orphanAttr(t, g, relation.Int(50)), &AttrData{Value: relation.Float(50)})
		},
		"attribute-value-twice": func(g *Graph) {
			g.G.SetData(orphanAttr(t, g, relation.Int(50)), &AttrData{Value: relation.Int(1)})
		},
		"attribute-index-holds-tuple": func(g *Graph) {
			lbl, _ := g.EdgeLabel("items", "id")
			g.attrByEdge[lbl] = append(slices.Clone(g.attrByEdge[lbl]), g.TupleVertices("groups")[1])
		},
		"attribute-index-repeats": func(g *Graph) {
			lbl, _ := g.EdgeLabel("items", "id")
			verts := g.attrByEdge[lbl]
			g.attrByEdge[lbl] = append(slices.Clone(verts), verts[len(verts)-1])
		},
	}
	out := make(map[string][]byte, len(corrupt))
	for name, mutate := range corrupt {
		g, err := Build(snapshotCatalog(), nil)
		if err != nil {
			t.Fatal(err)
		}
		mutate(g)
		out[name] = snapshotBytes(t, g)
	}
	return out
}

// orphanAttr inserts and deletes an items row with id v, returning the
// attribute vertex of v the delete leaves without edges.
func orphanAttr(t testing.TB, g *Graph, v relation.Value) bsp.VertexID {
	vs, err := g.InsertBatch("items", []relation.Tuple{{v, relation.Null, relation.Null, relation.Null}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteBatch(vs); err != nil {
		t.Fatal(err)
	}
	av, _ := g.AttrVertexOf(v)
	return av
}

// TestSnapshotRejectsImpossibleImages: every image in
// snapshotRegressions is refused as corrupt.
func TestSnapshotRejectsImpossibleImages(t *testing.T) {
	for name, img := range snapshotRegressions(t) {
		if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(img))); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzReadSnapshot: boot reads a checkpoint image from disk that this
// process did not write. The input is a list of frame payloads, framed
// before decoding so mutations reach the decoder instead of dying at the
// frame CRC. On any input ReadSnapshot never panics and allocates at
// most a constant factor of the bytes given (256, see below); every
// image it accepts is a graph maintenance can run on — aggregator in range and payload-less,
// one live tuple vertex per catalog row, only attribute vertices in the
// attribute index, every adjacency sorted — and re-encodes to a
// canonical image that decodes and re-encodes to itself. Seed images
// re-encode byte for byte.
func FuzzReadSnapshot(f *testing.F) {
	seeds := make(map[string]bool)
	images := snapshotSeedImages(f)
	for _, img := range images {
		seeds[string(img)] = true
		frames := splitFrames(f, img)
		f.Add(packPayloads(frames))
		for _, k := range []int{1, len(frames) / 2, len(frames) - 1} {
			f.Add(packPayloads(frames[:k])) // truncated
		}
		last := frames[len(frames)-1]
		f.Add(packPayloads(append(slices.Clone(frames[:len(frames)-1]), last[:len(last)/2])))
	}
	for _, img := range snapshotRegressions(f) {
		f.Add(packPayloads(splitFrames(f, img)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		image := joinFrames(unpackPayloads(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(image)))
		runtime.ReadMemStats(&after)
		// The factor is larger than the other decoders' 64: a vertex
		// decodes from as few as four bytes (a live row of a table with no
		// columns) into a ~100-byte record held in a slice grown by append,
		// plus its payload and catalog row, and tens of thousands of such
		// rows measure ~190x.
		if d := after.TotalAlloc - before.TotalAlloc; d > 256*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		checkLoadable(t, g)
		var canon bytes.Buffer
		if err := g.WriteSnapshot(&canon); err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		if seeds[string(image)] && !bytes.Equal(canon.Bytes(), image) {
			t.Fatal("seed image does not re-encode byte for byte")
		}
		again, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(canon.Bytes())))
		if err != nil {
			t.Fatalf("canonical image does not decode: %v", err)
		}
		var got bytes.Buffer
		if err := again.WriteSnapshot(&got); err != nil {
			t.Fatalf("re-decoded image does not re-encode: %v", err)
		}
		if !bytes.Equal(got.Bytes(), canon.Bytes()) {
			t.Fatal("re-encoding is not a fixpoint")
		}
	})
}

// checkLoadable asserts the invariants queries and maintenance rely on.
func checkLoadable(t *testing.T, g *Graph) {
	t.Helper()
	if int(g.Aggregator) >= g.G.NumVertices() {
		t.Fatalf("aggregator %d of %d vertices", g.Aggregator, g.G.NumVertices())
	}
	if d := g.G.Data(g.Aggregator); d != nil {
		t.Fatalf("aggregator %d has payload %v", g.Aggregator, d)
	}
	for table := range g.tupleVerts {
		if g.Catalog.Get(table) == nil {
			t.Fatalf("tuple vertices of %q, a table the catalog does not hold", table)
		}
	}
	for _, name := range g.Catalog.Names() {
		if rows := len(g.Catalog.Get(name).Tuples); rows != len(g.TupleVertices(name)) {
			t.Fatalf("table %q: %d catalog rows, %d live tuple vertices", name, rows, len(g.TupleVertices(name)))
		}
	}
	for lbl, verts := range g.attrByEdge {
		for _, v := range verts {
			if !g.IsAttr(v) {
				t.Fatalf("attribute index of label %d holds vertex %d, not an attribute vertex", lbl, v)
			}
		}
	}
	for v := 0; v < g.G.NumVertices(); v++ {
		es := g.G.Edges(bsp.VertexID(v))
		if !slices.IsSortedFunc(es, func(a, b bsp.Edge) int {
			if a.Label != b.Label {
				return int(a.Label - b.Label)
			}
			return int(a.To - b.To)
		}) {
			t.Fatalf("vertex %d adjacency not sorted: %v", v, es)
		}
	}
}
