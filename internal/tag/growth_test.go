package tag

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// countProgram is a two-hop traversal: each seed tuple vertex messages
// its attribute neighbors, and each attribute vertex emits the number of
// tuples that reached it. Every live row contributes exactly its
// materialized non-null column count.
type countProgram struct{}

func (countProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	if ctx.Step() == 0 {
		for _, e := range ctx.Graph().Edges(v) {
			ctx.Send(v, e.To, nil)
		}
		return
	}
	ctx.Emit(len(inbox))
}

// TestEngineRunAcrossInsertBatches interleaves tag.InsertBatch with
// Engine.Run on the same engine: the engine's sparse inboxes must
// absorb vertices created after the engine was built, with messages
// reaching the new vertices and the accounting growing exactly with
// the batch. The engine runs multi-worker, so -race checks the
// sharded compute/merge stages while the graph grows between runs.
func TestEngineRunAcrossInsertBatches(t *testing.T) {
	cat := relation.NewCatalog()
	rel := relation.New("ev", relation.MustSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("grp", relation.KindString)))
	for i := 0; i < 40; i++ {
		rel.MustAppend(relation.Int(int64(i)), relation.Str(fmt.Sprintf("g%d", i%4)))
	}
	cat.MustAdd(rel)
	cat.SetPrimaryKey("ev", "k")

	g, err := Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := bsp.NewEngine(g.G, bsp.Options{Workers: 4})

	// Each row has two materialized non-null columns, so each live row
	// contributes two attribute arrivals.
	edgesPerRow := 2
	rows := 40
	key := int64(1000)
	for round := 0; round < 5; round++ {
		eng.Run(countProgram{}, g.TupleVertices("ev"))
		got := 0
		for _, n := range eng.Emitted() {
			got += n.(int)
		}
		if want := rows * edgesPerRow; got != want {
			t.Fatalf("round %d: %d attribute arrivals, want %d", round, got, want)
		}

		batch := make([]relation.Tuple, 15)
		for i := range batch {
			batch[i] = relation.Tuple{relation.Int(key), relation.Str(fmt.Sprintf("g%d", key%4))}
			key++
		}
		if _, err := g.InsertBatch("ev", batch); err != nil {
			t.Fatal(err)
		}
		rows += len(batch)
	}

	// The sparse plane grew with the frontier, not the graph: idle
	// residency stays bounded (trimmed pools) no matter how many
	// batches landed. (On graphs this small the dense plane is cheap
	// too — the asymptotic comparison lives in internal/bsp's
	// TestInboxResidencyIsSparse.)
	eng.Run(countProgram{}, g.TupleVertices("ev"))
	if sparse := eng.InboxBytes(); sparse > 64<<10 {
		t.Errorf("idle sparse residency %d B not bounded by the pool budget", sparse)
	}
}
