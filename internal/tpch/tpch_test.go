package tpch

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(1, 42)
	b := Generate(1, 42)
	for _, name := range a.Names() {
		if !relation.EqualMultiset(a.Get(name), b.Get(name)) {
			t.Errorf("table %s not deterministic", name)
		}
	}
	c := Generate(1, 43)
	if relation.EqualMultiset(a.Get("lineitem"), c.Get("lineitem")) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateScaling(t *testing.T) {
	small := Generate(1, 1)
	big := Generate(2, 1)
	if big.Get("customer").Len() != 2*small.Get("customer").Len() {
		t.Errorf("customer scaling: %d vs %d", small.Get("customer").Len(), big.Get("customer").Len())
	}
	// Region/nation are fixed-size.
	if big.Get("nation").Len() != 25 || big.Get("region").Len() != 5 {
		t.Error("nation/region must not scale")
	}
	// Rough table ratio sanity: lineitem is the largest table.
	if big.Get("lineitem").Len() <= big.Get("orders").Len() {
		t.Error("lineitem should dominate orders")
	}
}

func TestForeignKeysResolve(t *testing.T) {
	cat := Generate(1, 7)
	orders := cat.Get("orders")
	custs := map[int64]bool{}
	for _, tp := range cat.Get("customer").Tuples {
		custs[tp[0].AsInt()] = true
	}
	for _, tp := range orders.Tuples {
		if !custs[tp[1].AsInt()] {
			t.Fatalf("order %v references missing customer %v", tp[0], tp[1])
		}
	}
	okeys := map[int64]bool{}
	for _, tp := range orders.Tuples {
		okeys[tp[0].AsInt()] = true
	}
	for _, tp := range cat.Get("lineitem").Tuples {
		if !okeys[tp[0].AsInt()] {
			t.Fatalf("lineitem references missing order %v", tp[0])
		}
	}
}

func TestAllQueriesParseAndAnalyze(t *testing.T) {
	cat := Generate(0.5, 1)
	for _, q := range Queries() {
		if _, err := sql.AnalyzeString(cat, q.SQL); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
	}
	if len(Queries()) != 22 {
		t.Errorf("workload has %d queries, want 22", len(Queries()))
	}
	if ByID("q5") == nil || ByID("nope") != nil {
		t.Error("ByID lookup broken")
	}
}

// TestEnginesAgreeOnWorkload is the headline integration test: every
// TPC-H query returns identical multisets on the TAG-join executor and
// the baseline relational engine.
func TestEnginesAgreeOnWorkload(t *testing.T) {
	cat := Generate(0.5, 11)
	g, err := tag.Build(cat, nil) // default policy: floats/comments unmaterialized
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewSession(g, bsp.Options{Workers: 4})
	base := baseline.New(cat)

	for _, q := range Queries() {
		got, err := ex.Query(q.SQL)
		if err != nil {
			t.Errorf("%s TAG: %v", q.ID, err)
			continue
		}
		want, err := base.Query(q.SQL)
		if err != nil {
			t.Errorf("%s baseline: %v", q.ID, err)
			continue
		}
		if !relation.EqualMultiset(got, want) {
			onlyG, onlyW := relation.DiffMultiset(got, want, 3)
			t.Errorf("%s MISMATCH: TAG %d rows vs baseline %d rows\nonly TAG: %v\nonly base: %v",
				q.ID, got.Len(), want.Len(), onlyG, onlyW)
		}
	}
}

func TestQueryClassesDetected(t *testing.T) {
	cat := Generate(0.5, 11)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewSession(g, bsp.Options{Workers: 4})
	want := map[string]core.AggClass{
		"q1": core.AggGlobal, "q3": core.AggLocal, "q4": core.AggLocal,
		"q5": core.AggLocal, "q6": core.AggScalar, "q7": core.AggGlobal,
		"q10": core.AggLocal, "q16": core.AggGlobal, "q19": core.AggScalar,
	}
	for id, cls := range want {
		q := ByID(id)
		if _, err := ex.Query(q.SQL); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if ex.Info.Agg != cls {
			t.Errorf("%s class = %v, want %v", id, ex.Info.Agg, cls)
		}
	}
	// q5 is the 5-way cycle query.
	if _, err := ex.Query(ByID("q5").SQL); err != nil {
		t.Fatal(err)
	}
	if ex.Info.Acyclic {
		t.Error("q5 should be cyclic")
	}
}
