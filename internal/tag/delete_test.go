package tag

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// TestDeleteBatchCostFollowsBatch is the bound test for DeleteBatch: at
// a fixed scale, deleting 8x more lineitem vertices from a fresh Clone
// may at most double the bytes allocated, and a 400-row delete stays
// under 4 MB. A delete that copies the relation's tuple list or catalog
// rows once per deleted row allocates O(batch × table) instead — about
// 92 MB for 400 rows of scale 2's 8,185 lineitems.
func TestDeleteBatchCostFollowsBatch(t *testing.T) {
	g, err := Build(tpch.Generate(2, 2021), nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := g.TupleVertices("lineitem")
	allocs := func(n int) uint64 {
		vs := make([]bsp.VertexID, n)
		for i := range vs {
			vs[i] = lines[i*len(lines)/n] // spread over the table's values
		}
		next := g.Clone()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := next.DeleteBatch(vs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got, want := len(next.TupleVertices("lineitem")), len(lines)-n; got != want {
			t.Fatalf("after deleting %d: %d lineitem vertices, want %d", n, got, want)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocs(50), allocs(400)
	t.Logf("DeleteBatch of %d lineitems: 50 rows %d B, 400 rows %d B (ratio %.2f)",
		len(lines), small, large, float64(large)/float64(small))
	if large > 2*small {
		t.Errorf("400-row delete allocated %d B, %.1fx the 50-row delete's %d B; want <= 2x",
			large, float64(large)/float64(small), small)
	}
	if large >= 4<<20 {
		t.Errorf("400-row delete allocated %d B, want < 4 MB", large)
	}
}

// deleteBatchPerRow is the reference DeleteBatch that predates the
// one-pass rebuild: per deleted row it unlinks each materialized edge
// with its own RemoveEdge scan, copies the table's tuple-vertex list
// without the vertex, and copies the catalog rows without the first
// value-equal row.
func deleteBatchPerRow(t *Graph, vs []bsp.VertexID) error {
	if err := t.ValidateDelete(vs); err != nil {
		return err
	}
	if len(vs) == 0 {
		return nil
	}
	t.G.Thaw()
	for _, v := range vs {
		d := t.TupleData(v)
		rel := t.Catalog.Get(d.Table)
		for i, col := range rel.Schema.Columns {
			key := d.Table + "." + strings.ToLower(col.Name)
			if !t.materialized[key] || d.Row[i].IsNull() {
				continue
			}
			av, ok := t.attrVertex[d.Row[i].Key()]
			if !ok {
				continue
			}
			lbl := t.edgeLabel[key]
			t.G.RemoveEdge(v, av, lbl)
			t.G.RemoveEdge(av, v, lbl)
		}
		nd := *d
		nd.Dead = true
		nd.Row = nil // a deleted tuple keeps no row
		t.G.SetData(v, &nd)
		verts := t.tupleVerts[d.Table]
		for i, tv := range verts {
			if tv == v {
				t.tupleVerts[d.Table] = append(verts[:i:i], verts[i+1:]...)
				break
			}
		}
		for i, row := range rel.Tuples {
			if tuplesEqual(row, d.Row) {
				rel.Tuples = append(rel.Tuples[:i:i], rel.Tuples[i+1:]...)
				break
			}
		}
		if t.deltaDeletes != nil {
			t.deltaDeletes[d.Table]++
		}
	}
	t.G.Freeze()
	if t.deltaDirty != nil {
		t.noteFrozenDirty()
	}
	return nil
}

// TestDeleteBatchMatchesPerRowReference runs random insert/delete
// histories through DeleteBatch and through deleteBatchPerRow side by
// side and requires identical graphs after every step: catalog rows in
// order, tuple-vertex lists, adjacency, delta bookkeeping and
// WriteSnapshot bytes. Histories insert rows two or three times over
// and delete only some copies, delete ids in shuffled order, mix two
// tables in one batch, and run both on freshly built graphs (payload
// and catalog rows are one slice) and on checkpoint-loaded ones (two
// separate slices). Every clone step also checks that the generation
// it was cloned from is untouched.
func TestDeleteBatchMatchesPerRowReference(t *testing.T) {
	templates := map[string][]relation.Tuple{
		"items": {
			{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")}, // a base duplicate
			{relation.Int(5), relation.Str("e"), relation.Float(0.5), relation.Str("c5")},
			{relation.Int(6), relation.Null, relation.Null, relation.Str("c6")},
			{relation.Int(5), relation.Str("f"), relation.Float(0.5), relation.Str("c5")}, // same bucket, other row
		},
		"groups": {
			{relation.Int(10), relation.Int(2), relation.Bool(true), relation.Date(19000)}, // a base row
			{relation.Int(11), relation.Int(5), relation.Bool(false), relation.Null},
			{relation.Int(11), relation.Int(6), relation.Bool(false), relation.Date(19002)},
		},
	}
	tables := []string{"items", "groups"}

	for seed := int64(1); seed <= 24; seed++ {
		loaded := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/loaded=%v", seed, loaded), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			build := func() *Graph {
				g, err := Build(snapshotCatalog(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if !loaded {
					return g
				}
				got, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(snapshotBytes(t, g))))
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			cur, ref := build(), build()
			for step := 0; step < 12; step++ {
				// Most steps run on a clone, as the serving layer does;
				// some mutate the graph in place.
				parent, parentRef := cur, ref
				var before []byte
				if rng.Intn(4) != 0 {
					before = snapshotBytes(t, cur)
					cur, ref = cur.Clone(), ref.Clone()
				}

				if rng.Intn(3) == 0 {
					table := tables[rng.Intn(len(tables))]
					var rows []relation.Tuple
					for n := 1 + rng.Intn(3); n > 0; n-- {
						row := templates[table][rng.Intn(len(templates[table]))]
						for c := 1 + rng.Intn(3); c > 0; c-- { // one to three copies
							rows = append(rows, row.Clone())
						}
					}
					a, err := cur.InsertBatch(table, rows)
					if err != nil {
						t.Fatal(err)
					}
					b, err := ref.InsertBatch(table, rows)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("step %d: insert ids %v, reference %v", step, a, b)
					}
				} else {
					var live []bsp.VertexID
					for _, table := range tables[:1+rng.Intn(len(tables))] {
						live = append(live, cur.TupleVertices(table)...)
					}
					rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
					if len(live) > 0 {
						live = live[:1+rng.Intn(len(live))]
					}
					errA, errB := cur.DeleteBatch(live), deleteBatchPerRow(ref, live)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("step %d: delete %v err %v, reference %v", step, live, errA, errB)
					}
				}

				graphsStructurallyEqual(t, cur, ref)
				if !bytes.Equal(snapshotBytes(t, cur), snapshotBytes(t, ref)) {
					t.Fatalf("step %d: WriteSnapshot bytes differ from the reference", step)
				}
				if !reflect.DeepEqual(cur.DirtyVertices(), ref.DirtyVertices()) {
					t.Fatalf("step %d: dirty vertices %v, reference %v", step, cur.DirtyVertices(), ref.DirtyVertices())
				}
				for _, table := range tables {
					if cur.DeltaDeletes(table) != ref.DeltaDeletes(table) {
						t.Fatalf("step %d: %s delta deletes %d, reference %d",
							step, table, cur.DeltaDeletes(table), ref.DeltaDeletes(table))
					}
				}
				if before != nil {
					if !bytes.Equal(snapshotBytes(t, parent), before) {
						t.Fatalf("step %d: mutating the clone changed the generation it was cloned from", step)
					}
					graphsStructurallyEqual(t, parent, parentRef)
				}
			}
		})
	}
}
