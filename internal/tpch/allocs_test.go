package tpch

import (
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/tag"
)

// TestTPCHAllocsPerQuery bounds the heap allocations of one warm query
// run at scale 0.1 on one worker. The global-aggregation queries are
// bound by the allocator, and the counts are deterministic (same graph,
// same plan, one worker), so a regression in the vertex kernels' per-edge
// or per-row allocation shows up here before it shows up as time.
func TestTPCHAllocsPerQuery(t *testing.T) {
	cat := Generate(0.1, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each ceiling sits about midway between the count before the
	// kernels stopped allocating per edge and per row and the count after
	// (q1 14,638 -> 5,759; q7 8,429 -> 1,917; q8 7,870 -> 1,778;
	// q9 51,928 -> 3,875; q19 7,996 -> 2,941), or, for q1, q17 and q18,
	// before and after survivors stopped building a partial per vertex
	// and IN probes stopped scanning (q1 5,761 -> 1,065; q17 3,904 ->
	// 1,078; q18 4,819 -> 2,301). q6 and q14 (540 and 709, then 536 and
	// 678) are each allowed a quarter over their count. The join-class
	// ceilings sit midway between the count before scalar expressions were
	// compiled once per query and the count after, when a filtered vertex
	// stopped allocating an evaluation environment (q2 915 -> 851; q3
	// 514 -> 427; q4 2,253 -> 1,797; q5 634 -> 598; q10 640 -> 522; q11
	// 288 -> 280; q12 661 -> 301; q13 667 -> 642; q15 1,296 -> 574; q20
	// 1,563 -> 1,160; q21 3,282 -> 2,855; q22 991 -> 982). q4, q13,
	// q20, q21 and q22 then sit midway between the count before outer
	// blocks scanned through the single-alias path and built their rows
	// in the row arena and the count after (q4 1,563 -> 1,063; q13 639 ->
	// 303; q20 1,161 -> 1,096; q21 2,453 -> 1,579; q22 889 -> 664).
	// q1, q17 and q18 then sit midway between the count before
	// single-table aggregates admitted, filtered and folded their seeds
	// in one pass and the count after (q1 694 -> 306; q17 992 -> 632;
	// q18 2,131 -> 1,759). q2, q4, q17 and q22 then sit midway between
	// the count before their correlated subqueries ran only for the outer
	// block's keys and the count after (q2 804 -> 507; q4 1,046 -> 397;
	// q17 628 -> 323; q22 639 -> 372). q18, q20, q21 and q22 then sit
	// midway between the count before every uncorrelated subquery ran
	// once as a constant and an IN over one settled into a list of
	// literals, and the count after (q18 1,474 -> 1,390; q20 1,058 ->
	// 856; q21 1,576 -> 1,469; q22 372 -> 315). q1, q13 and q18, the
	// counts that moved by a tenth or more, then sit midway between the
	// count before groups held their accumulators by value, carved from
	// the observer's chunks, and a target adopted its first message as
	// its merge, and the count after (q1 302 -> 172; q13 298 -> 257;
	// q18 1,390 -> 632).
	ceilings := map[string]float64{
		"q1":  237,
		"q2":  655,
		"q3":  470,
		"q4":  721,
		"q5":  616,
		"q6":  670,
		"q7":  5200,
		"q8":  4800,
		"q9":  27900,
		"q10": 581,
		"q11": 284,
		"q12": 481,
		"q13": 278,
		"q14": 850,
		"q15": 935,
		"q17": 475,
		"q18": 1011,
		"q19": 5500,
		"q20": 957,
		"q21": 1522,
		"q22": 343,
	}
	for _, q := range Queries() {
		ceiling, ok := ceilings[q.ID]
		if !ok {
			continue
		}
		an, err := sql.AnalyzeString(cat, q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewSession(g, bsp.Options{Workers: 1})
		if _, err := s.Run(an); err != nil { // sizes the pooled scratch
			t.Fatalf("%s: %v", q.ID, err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := s.Run(an); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
		})
		t.Logf("%s: %.0f allocations per run", q.ID, allocs)
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", q.ID, allocs, ceiling)
		}
	}
}

// TestTPCHImpliedRestrictionMessages bounds the messages of the two
// queries whose WHERE holds an OR across aliases, at scale 0.1 on one
// worker. Each arm of q7's nation-pair OR and of q19's brand/container/
// quantity OR constrains every alias it reads by itself, so the OR
// implies a restriction per alias that prunes tuples at their vertices
// before the reduction sends anything; evaluated only on joined rows, it
// prunes nothing until collection is over. Each ceiling sits about
// midway between the count without the implied restrictions and with
// them (q7 1,991 -> 2; q19 1,170 -> 0).
func TestTPCHImpliedRestrictionMessages(t *testing.T) {
	cat := Generate(0.1, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ceilings := map[string]int64{
		"q7":  1000,
		"q19": 585,
	}
	for _, q := range Queries() {
		ceiling, ok := ceilings[q.ID]
		if !ok {
			continue
		}
		s := core.NewSession(g, bsp.Options{Workers: 1})
		if _, err := s.Query(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		msgs := s.Stats().Paper().Messages
		t.Logf("%s: %d messages", q.ID, msgs)
		if msgs > ceiling {
			t.Errorf("%s: %d messages, ceiling %d", q.ID, msgs, ceiling)
		}
	}
}

// TestTPCHReductionMessages bounds the messages of one warm run on one
// worker for the queries whose reduction walk re-enters a join-tree
// node or can start at a selective leaf. The UP pass climbs back out of
// a subtree only along the marks its descent left, so a tuple the
// descent did not reach is not brought back, and the walk starts at the
// leaf that seeds the fewest tuples. Each scale-0.1 ceiling sits about
// midway between the count when the climb flooded every labelled edge
// and the walk started at the rightmost leaf, and the count after (q2
// 183 -> 80; q8 1,500 -> 448; q9 3,177 -> 1,736; q12 472 -> 7).
//
// q9's scale-2 row pins the reduction across lineitem and partsupp,
// which share partkey and suppkey: the generator draws a lineitem's
// supplier independently of its part, so 6,513 of its 8,169 lineitems
// match no partsupp row on both keys. The reduction also starts at
// part, the selected leaf (LIKE '%POLISHED%'), not at nation, the leaf
// with the fewest tuples, where the collection still starts. Its
// ceiling sits midway between the count when the reduction started at
// nation and the count once it starts at part (26,341 -> 9,360); the
// carried suppkey had taken it from 47,350 to 26,341.
func TestTPCHReductionMessages(t *testing.T) {
	ceilings := []struct {
		scale   float64
		query   string
		ceiling int64
	}{
		{0.1, "q2", 131},
		{0.1, "q8", 974},
		{0.1, "q9", 2456},
		{0.1, "q12", 239},
		{2, "q9", 17850},
	}
	graphs := map[float64]*tag.Graph{}
	for _, c := range ceilings {
		g := graphs[c.scale]
		if g == nil {
			var err error
			if g, err = tag.Build(Generate(c.scale, 2021), nil); err != nil {
				t.Fatal(err)
			}
			graphs[c.scale] = g
		}
		i := slices.IndexFunc(Queries(), func(q Query) bool { return q.ID == c.query })
		q := Queries()[i]
		s := core.NewSession(g, bsp.Options{Workers: 1})
		if _, err := s.Query(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		s.ResetStats()
		if _, err := s.Query(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		msgs := s.Stats().Messages
		t.Logf("%s at scale %g: %d messages", q.ID, c.scale, msgs)
		if msgs > c.ceiling {
			t.Errorf("%s at scale %g: %d messages, ceiling %d", q.ID, c.scale, msgs, c.ceiling)
		}
	}
}
