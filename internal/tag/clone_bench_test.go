package tag

import (
	"math/rand"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// writeRecord is the rows of one serve_write-shaped write: 40 new orders
// and 4 lineitems for each, cloned from catalog rows with fresh keys.
type writeRecord struct {
	orders, lineitems []relation.Tuple
}

func newWriteRecords(cat *relation.Catalog, n int) []writeRecord {
	rng := rand.New(rand.NewSource(1))
	orders, lines := cat.Get("orders").Tuples, cat.Get("lineitem").Tuples
	key := int64(1 << 40)
	recs := make([]writeRecord, n)
	for i := range recs {
		for o := 0; o < 40; o++ {
			row := orders[rng.Intn(len(orders))].Clone()
			row[0] = relation.Int(key)
			recs[i].orders = append(recs[i].orders, row)
			for ln := 1; ln <= 4; ln++ {
				l := lines[rng.Intn(len(lines))].Clone()
				l[0], l[3] = relation.Int(key), relation.Int(int64(ln))
				recs[i].lineitems = append(recs[i].lineitems, l)
			}
			key++
		}
	}
	return recs
}

// apply runs the record on g as the serving layer does: insert the
// orders, delete up to 200 lineitems spread over the table, insert the
// lineitems.
func (r writeRecord) apply(b *testing.B, g *Graph) {
	if _, err := g.InsertBatch("orders", r.orders); err != nil {
		b.Fatal(err)
	}
	live := g.TupleVertices("lineitem")
	gone := make([]bsp.VertexID, min(200, len(live)))
	for i := range gone {
		gone[i] = live[i*len(live)/len(gone)]
	}
	if err := g.DeleteBatch(gone); err != nil {
		b.Fatal(err)
	}
	if _, err := g.InsertBatch("lineitem", r.lineitems); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCloneMaintenance measures the write path on the TPC-H
// scale-2 encoding: "write" clones the graph and applies one record, as
// a published write does; "replay20" applies 20 records to one clone,
// as a restart replaying its log does.
func BenchmarkCloneMaintenance(b *testing.B) {
	base, err := Build(tpch.Generate(2, 2021), nil)
	if err != nil {
		b.Fatal(err)
	}
	recs := newWriteRecords(base.Catalog, 20)
	for _, c := range []struct {
		name string
		recs []writeRecord
	}{{"write", recs[:1]}, {"replay20", recs}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := base.Clone()
				for _, r := range c.recs {
					r.apply(b, g)
				}
				benchGraph = g
			}
		})
	}
}
