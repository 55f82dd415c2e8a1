package tpch

import (
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
	// 678) are each allowed a quarter over their count.
	ceilings := map[string]float64{
		"q1":  3400,
		"q6":  670,
		"q7":  5200,
		"q8":  4800,
		"q9":  27900,
		"q14": 850,
		"q17": 2500,
		"q18": 3550,
		"q19": 5500,
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
