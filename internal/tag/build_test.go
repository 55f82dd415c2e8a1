package tag

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// encodingDigest hashes every vertex of g in id order: its id, label,
// payload and adjacency, edges in stored order.
func encodingDigest(t testing.TB, g *Graph) string {
	t.Helper()
	h := sha256.New()
	var b []byte
	for v := 0; v < g.G.NumVertices(); v++ {
		id := bsp.VertexID(v)
		b = binary.AppendUvarint(b[:0], uint64(v))
		b = binary.AppendUvarint(b, uint64(g.G.Label(id)))
		var err error
		switch d := g.G.Data(id).(type) {
		case nil:
			b = append(b, 0)
		case *TupleData:
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(len(d.Table)))
			b = append(b, d.Table...)
			if d.Dead {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b, err = relation.AppendTuple(b, d.Row)
		case *AttrData:
			b = append(b, 2)
			b, err = relation.AppendValue(b, d.Value)
		default:
			t.Fatalf("vertex %d has payload %T", v, d)
		}
		if err != nil {
			t.Fatal(err)
		}
		es := g.G.Edges(id)
		b = binary.AppendUvarint(b, uint64(len(es)))
		for _, e := range es {
			b = binary.AppendUvarint(b, uint64(e.Label))
			b = binary.AppendUvarint(b, uint64(e.To))
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBuildEncodingPinned pins Build's output vertex by vertex: ids,
// labels, payloads and adjacency. Vertex ids are durable. WAL delete
// records name the tuple vertices they delete, and a restart without a
// checkpoint replays them against a freshly built graph, whose identity
// check hashes only its counts. A Build that numbered the same vertices
// in another order would delete other rows on replay.
func TestBuildEncodingPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		cat    *relation.Catalog
		digest string
	}{
		{"tpch-0.1", tpch.Generate(0.1, 7), "13fa105611193b1a"},
		{"tpcds-0.1", tpcds.Generate(0.1, 7), "1cc52f2e951a5ae1"},
		{"identity", identityCatalog(), "6d99344395405b0d"},
	} {
		g, err := Build(c.cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodingDigest(t, g); got != c.digest {
			t.Errorf("%s: %d vertices, %d edges, digest %s, want %s",
				c.name, g.G.NumVertices(), g.G.NumEdges(), got, c.digest)
		}
	}
}

// TestBulkAdjacencyIsolated runs InsertBatch and DeleteBatch directly on
// a built graph and on a ReadSnapshot-loaded one, not on a Clone, so
// their adjacency lists still share the one edge array the graph was
// assembled in. Every vertex the batches did not touch must keep the
// edges a fresh build gives it: an insert that appended past the end
// of an attribute vertex's list would overwrite its neighbour's first
// edge. The touched set is read off the batches: the inserted and the
// deleted tuple vertices and their neighbours.
func TestBulkAdjacencyIsolated(t *testing.T) {
	fresh, err := Build(tpch.Generate(0.1, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(tpch.Generate(0.1, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(snapshotBytes(t, fresh))))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"built": built, "loaded": loaded} {
		touched := make(map[bsp.VertexID]bool)
		note := func(vs []bsp.VertexID) {
			for _, v := range vs {
				touched[v] = true
				for _, e := range g.G.Edges(v) {
					touched[e.To] = true
				}
			}
		}
		// Rows the graph already holds, so every insert lands on existing
		// attribute vertices, spread over the id space.
		insert := func() {
			for _, table := range g.Catalog.Names() {
				rows := g.Catalog.Get(table).Tuples
				var batch []relation.Tuple
				for j := 0; j < len(rows); j += 1 + len(rows)/5 {
					batch = append(batch, rows[j])
				}
				vs, err := g.InsertBatch(table, batch)
				if err != nil {
					t.Fatal(err)
				}
				note(vs)
			}
		}
		insert()
		var gone []bsp.VertexID
		for _, table := range []string{"lineitem", "orders", "partsupp"} {
			vs := g.TupleVertices(table)
			for j := 0; j < len(vs); j += 9 {
				gone = append(gone, vs[j])
			}
		}
		note(gone) // before the delete drops their edges
		if err := g.DeleteBatch(gone); err != nil {
			t.Fatal(err)
		}
		insert()

		kept := 0
		for v := bsp.VertexID(0); int(v) < fresh.G.NumVertices(); v++ {
			if touched[v] {
				continue
			}
			kept++
			if got, want := g.G.Edges(v), fresh.G.Edges(v); !slices.Equal(got, want) {
				t.Fatalf("%s: untouched vertex %d has edges\n%v\nwant\n%v", name, v, got, want)
			}
		}
		if kept < fresh.G.NumVertices()/2 {
			t.Fatalf("%s: only %d of %d vertices untouched", name, kept, fresh.G.NumVertices())
		}
	}
}
