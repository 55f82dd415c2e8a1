// Combiners: the combiner-aware message plane. Runs the same
// aggregation traversal twice — once with Send-time folding and once
// with every message materialized — at the raw BSP level and through a
// SQL aggregation, showing identical answers with a fraction of the
// inbox traffic.
//
//	go run ./examples/combiners
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
)

// degreeProgram counts, for a handful of hub vertices, how many
// followers point at them: every follower sends int64(1) to its hubs,
// each hub totals its inbox. The receiver reads folded and plain
// payloads identically, so the program runs on either plane. out is
// indexed by vertex — Compute runs concurrently across workers and may
// only touch its own vertex's slot.
type degreeProgram struct {
	lbl bsp.LabelID
	out []int64
}

// Combiner declares the fold: int64 payloads add up en route, so a
// worker emits one combined message per hub per superstep instead of
// one per follower.
func (p *degreeProgram) Combiner() bsp.Combiner { return bsp.SumCombiner{} }

func (p *degreeProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	ctx.AddOps(1 + bsp.InboxCount(inbox))
	if ctx.Step() == 0 {
		ctx.SendAlong(v, p.lbl, int64(1))
		return
	}
	var total int64
	for _, m := range inbox {
		total += m.Payload.(int64)
	}
	p.out[v] = total
}

func main() {
	// --- Raw BSP: a follower graph with a few hubs. ---
	rng := rand.New(rand.NewSource(11))
	g := bsp.NewGraph()
	follows := g.Symbols.Intern("follows")
	const hubs, followers = 4, 5000
	for i := 0; i < hubs+followers; i++ {
		g.AddVertex(follows, nil)
	}
	var initial []bsp.VertexID
	for f := hubs; f < hubs+followers; f++ {
		g.AddEdge(bsp.VertexID(f), bsp.VertexID(rng.Intn(hubs)), follows)
		initial = append(initial, bsp.VertexID(f))
	}
	g.Freeze()

	run := func(noCombine bool) ([]int64, bsp.Stats) {
		prog := &degreeProgram{lbl: follows, out: make([]int64, g.NumVertices())}
		eng := bsp.NewEngine(g, bsp.Options{Workers: 4, NoCombine: noCombine})
		stats := eng.Run(prog, initial)
		return prog.out, stats
	}
	plainOut, plain := run(true)
	combOut, comb := run(false)

	fmt.Println("hub in-degrees (identical on both planes):")
	for h := 0; h < hubs; h++ {
		p, c := plainOut[h], combOut[h]
		fmt.Printf("  hub %d: %d followers (plain %d)\n", h, c, p)
		if p != c {
			log.Fatalf("hub %d: combined %d != plain %d", h, c, p)
		}
	}
	if plain.Paper() != comb.Paper() {
		log.Fatalf("paper-facing stats diverged:\n  plain    %v\n  combined %v", plain, comb)
	}
	fmt.Printf("\nlogical messages     %8d (both planes — combining never changes M)\n", comb.Messages)
	fmt.Printf("folded en route      %8d (%.1f%%)\n", comb.MessagesCombined,
		100*float64(comb.MessagesCombined)/float64(comb.Messages))
	fmt.Printf("inbox slots saved    %8d bytes\n", comb.InboxBytesSaved())

	// --- The same effect through SQL: a scalar aggregation ships every
	// row's partial to the single aggregator vertex, where the GA
	// bottleneck of §8.3 used to queue one message per survivor. ---
	people := relation.New("people", relation.MustSchema(
		relation.Col("id", relation.KindInt), relation.Col("hub", relation.KindInt)))
	for f := 0; f < followers; f++ {
		people.MustAppend(relation.Int(int64(f)), relation.Int(int64(rng.Intn(hubs))))
	}
	cat := relation.NewCatalog()
	cat.MustAdd(people)
	tg, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		log.Fatal(err)
	}

	const q = `SELECT hub, COUNT(*), MIN(id), MAX(id) FROM people GROUP BY hub`
	plainSess := core.NewSession(tg, bsp.Options{Workers: 4, NoCombine: true})
	combSess := core.NewSession(tg, bsp.Options{Workers: 4})
	a, err := plainSess.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	b, err := combSess.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	if fmt.Sprint(a.Tuples) != fmt.Sprint(b.Tuples) {
		log.Fatal("combined SQL answer differs from uncombined")
	}
	fmt.Printf("\nSQL aggregation over %d rows (byte-identical answers):\n%v", followers, b)
	cs := combSess.Stats()
	fmt.Printf("combined plane folded %d of %d aggregator-bound messages (%.1f%%), saving %d inbox bytes\n",
		cs.MessagesCombined, cs.Messages,
		100*float64(cs.MessagesCombined)/float64(cs.Messages), cs.InboxBytesSaved())
}
