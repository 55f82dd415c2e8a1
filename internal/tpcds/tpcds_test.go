package tpcds

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

func TestGenerateDeterministicAndScaled(t *testing.T) {
	a := Generate(1, 5)
	b := Generate(1, 5)
	for _, n := range a.Names() {
		if !relation.EqualMultiset(a.Get(n), b.Get(n)) {
			t.Errorf("table %s not deterministic", n)
		}
	}
	big := Generate(4, 5)
	// Facts scale linearly.
	if big.Get("store_sales").Len() != 4*a.Get("store_sales").Len() {
		t.Errorf("store_sales scaling: %d vs %d", a.Get("store_sales").Len(), big.Get("store_sales").Len())
	}
	// Dimensions scale sub-linearly (~2x for 4x scale).
	ratio := float64(big.Get("item").Len()) / float64(a.Get("item").Len())
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("item dim scaling ratio = %.2f, want ~2", ratio)
	}
	// date_dim is fixed.
	if big.Get("date_dim").Len() != a.Get("date_dim").Len() {
		t.Error("date_dim must not scale")
	}
}

func TestNullsPresent(t *testing.T) {
	cat := Generate(1, 5)
	nulls := 0
	for _, tp := range cat.Get("store_sales").Tuples {
		for _, v := range tp {
			if v.IsNull() {
				nulls++
			}
		}
	}
	if nulls == 0 {
		t.Error("TPC-DS-like data must contain NULLs")
	}
	// Primary keys never NULL.
	for _, tp := range cat.Get("item").Tuples {
		if tp[0].IsNull() {
			t.Fatal("PK must not be NULL")
		}
	}
}

func TestAllQueriesAnalyze(t *testing.T) {
	cat := Generate(0.5, 1)
	for _, q := range Queries() {
		if _, err := sql.AnalyzeString(cat, q.SQL); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
	}
	if len(Queries()) != 25 {
		t.Errorf("workload has %d queries, want 25", len(Queries()))
	}
	classes := map[string]int{}
	for _, q := range Queries() {
		classes[q.Class]++
	}
	if classes["noagg"] < 3 || classes["local"] < 8 || classes["global"] < 9 || classes["scalar"] < 4 {
		t.Errorf("class coverage = %v", classes)
	}
}

func TestEnginesAgreeOnWorkload(t *testing.T) {
	cat := Generate(0.3, 17)
	g, err := tag.Build(cat, nil)
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
