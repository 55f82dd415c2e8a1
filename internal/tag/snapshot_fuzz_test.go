package tag

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
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

// Snapshot header fields after the magic, in order.
const (
	hdrVersion = iota
	hdrVertices
	hdrEdges
	hdrAggregator
	hdrSymbols
	hdrAttrLabels
	hdrFields
)

// headerField decodes field i of a snapshot header payload.
func headerField(t testing.TB, hdr []byte, i int) uint64 {
	t.Helper()
	d := codec.NewDecoder(hdr[len(snapMagic):])
	for ; ; i-- {
		v, err := d.Uvarint()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			return v
		}
	}
}

// withHeaderField re-encodes a snapshot header payload with field i set
// to val.
func withHeaderField(t testing.TB, hdr []byte, i int, val uint64) []byte {
	t.Helper()
	out := append([]byte(nil), snapMagic...)
	for f := 0; f < hdrFields; f++ {
		v := headerField(t, hdr, f)
		if f == i {
			v = val
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
		bad[0] = withHeaderField(t, frames[0], hdrAggregator, agg)
		if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(joinFrames(bad)))); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("aggregator %d (of %d vertices): err = %v, want ErrCorrupt", agg, n, err)
		}
	}
	good := slices.Clone(frames)
	good[0] = withHeaderField(t, frames[0], hdrAggregator, uint64(g.Aggregator))
	if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(joinFrames(good)))); err != nil {
		t.Fatalf("re-framed intact header: %v", err)
	}
}

// TestSnapshotRefusesUnbackedChunk: a vertex chunk claiming more
// records than its bytes can hold (every record is at least two bytes)
// is corrupt, refused before the vertex table is reserved for it.
func TestSnapshotRefusesUnbackedChunk(t *testing.T) {
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := splitFrames(t, snapshotBytes(t, g))
	at := len(frames) - 2 - len(g.attrByEdge) // the only vertex chunk
	d := codec.NewDecoder(frames[at])
	start, err1 := d.Uvarint()
	n, err2 := d.Uvarint()
	if err1 != nil || err2 != nil || start != 0 || int(n) != g.G.NumVertices() {
		t.Fatalf("frame %d is not the only vertex chunk", at)
	}
	records := frames[at][len(frames[at])-d.Remaining():]
	for _, claim := range []uint64{uint64(len(records))/2 + 1, 1 << 40} {
		bad := slices.Clone(frames)
		bad[0] = withHeaderField(t, frames[0], hdrVertices, claim)
		bad[at] = append(binary.AppendUvarint(binary.AppendUvarint(nil, 0), claim), records...)
		if _, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(joinFrames(bad)))); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("chunk of %d bytes claiming %d records: err = %v, want ErrCorrupt", len(records), claim, err)
		}
	}
}

// snapshotSeedGraphs returns graphs of snapshotCatalog: as built, under
// MaterializeAll, a Clone after inserts and deletes, and under
// MaterializeAll with two NaN cells.
func snapshotSeedGraphs(t testing.TB) []*Graph {
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
	// Two NaN prices, materialized: one attribute vertex both cells
	// reach, which the loader finds by looking their values up.
	nanCat := snapshotCatalog()
	nanItems := nanCat.Get("items")
	for _, id := range []int64{7, 8} {
		nanItems.Tuples = append(nanItems.Tuples, relation.Tuple{relation.Int(id), relation.Str("n"), relation.Float(math.NaN()), relation.Null})
	}
	nans, err := Build(nanCat, MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	return []*Graph{built, all, c, nans}
}

// snapshotRegressions are images no graph writes but the decoder once
// accepted, each named by what it breaks. Each is written from a built
// graph with one piece of state corrupted in memory.
func snapshotRegressions(t testing.TB) map[string][]byte {
	corrupt := map[string]func(g *Graph){
		"payload-less-attribute": func(g *Graph) { g.G.SetData(orphanAttr(t, g, relation.Int(50)), nil) },
		"tuple-short-row": func(g *Graph) { // drops an unmaterialized cell: no edge goes missing
			rel := g.Catalog.Get("items")
			rel.Tuples[0] = rel.Tuples[0][:3]
			g.G.SetData(g.TupleVertices("items")[0], &TupleData{Table: "items", Row: rel.Tuples[0]})
		},
		"catalog-row-without-vertex": func(g *Graph) {
			rel := g.Catalog.Get("items")
			rel.Tuples = append(rel.Tuples, relation.Tuple{relation.Float(1), relation.Null, relation.Null, relation.Null})
		},
		"more-live-records-than-catalog-rows": func(g *Graph) {
			rel := g.Catalog.Get("items")
			rel.Tuples = rel.Tuples[:len(rel.Tuples)-1]
		},
		"tuple-record-under-non-table-label": func(g *Graph) {
			g.G.SetData(orphanAttr(t, g, relation.Int(50)), g.dead["items"])
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
// most a constant factor of the bytes given (128, see below); every
// image it accepts is a graph maintenance can run on — aggregator in
// range and payload-less, catalog row i the row of live tuple vertex i,
// every dead one on its table's shared row-less payload, only attribute
// vertices in the attribute index, every adjacency sorted — and
// re-encodes to a canonical image that decodes and re-encodes to itself.
// Current seed images re-encode byte for byte.
func FuzzReadSnapshot(f *testing.F) {
	add := func(img []byte) {
		frames := splitFrames(f, img)
		f.Add(packPayloads(frames))
		for _, k := range []int{1, len(frames) / 2, len(frames) - 1} {
			f.Add(packPayloads(frames[:k])) // truncated
		}
		last := frames[len(frames)-1]
		f.Add(packPayloads(append(slices.Clone(frames[:len(frames)-1]), last[:len(last)/2])))
	}
	// Current images must re-encode byte for byte; version-1 images,
	// which re-encode to version 2, are plain corpus entries.
	seeds := make(map[string]bool)
	for _, g := range snapshotSeedGraphs(f) {
		img := snapshotBytes(f, g)
		seeds[string(img)] = true
		add(img)
		add(asVersion1(f, g, img, nil))
	}
	v1, err := os.ReadFile("testdata/snapshot-v1.img")
	if err != nil {
		f.Fatal(err)
	}
	add(v1)
	for _, img := range snapshotRegressions(f) {
		f.Add(packPayloads(splitFrames(f, img)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		image := joinFrames(unpackPayloads(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(image)))
		runtime.ReadMemStats(&after)
		// The factor is larger than the other decoders' 64. The seeds and
		// regressions measure 22-37x (the worst seed is a truncated
		// current image of 602 bytes). The worst shape found is tens of
		// thousands of live rows of a table with no columns: 3 bytes each
		// (a catalog row, a label and a tag) become a label, a payload
		// pointer, a 48-byte adjacency record, a payload and a catalog
		// slot grown by append, ~85x. Dead records measure ~50x;
		// version-1 dead records, whose NULL rows are decoded and
		// dropped, 33-43x.
		if d := after.TotalAlloc - before.TotalAlloc; d > 128*uint64(len(data))+1<<20 {
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
	checkCatalogFollowsVertices(t, g)
	for lbl, verts := range g.attrByEdge {
		for _, v := range verts {
			if !g.IsAttr(v) {
				t.Fatalf("attribute index of label %d holds vertex %d, not an attribute vertex", lbl, v)
			}
		}
	}
	for v := 0; v < g.G.NumVertices(); v++ {
		if d := g.TupleData(bsp.VertexID(v)); d != nil && d.Dead && d != g.dead[d.Table] {
			t.Fatalf("dead vertex %d has payload %+v, not its table's shared one", v, d)
		}
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
