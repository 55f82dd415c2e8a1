package sql

import (
	"testing"

	"repro/internal/relation"
)

func testCatalog() *relation.Catalog {
	cat := relation.NewCatalog()
	r := relation.New("r", relation.MustSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("b", relation.KindString),
		relation.Col("d", relation.KindDate)))
	cat.MustAdd(r)
	s := relation.New("s", relation.MustSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("c", relation.KindFloat)))
	cat.MustAdd(s)
	return cat
}

func TestAnalyzeResolution(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat, "SELECT r.a, c FROM r, s WHERE r.a = s.a")
	if err != nil {
		t.Fatal(err)
	}
	blk := an.Root
	if len(blk.Tables) != 2 {
		t.Fatalf("tables = %d", len(blk.Tables))
	}
	// Unqualified c resolves uniquely to s.
	c := blk.Sel.Items[1].Expr.(*ColRef)
	if c.Alias != "s" || c.Table != "s" || c.Depth != 0 || c.Key != BindKey("s", "c") {
		t.Errorf("c resolved to %+v", c)
	}
	if cl := CloneExpr(c).(*ColRef); cl.Key != c.Key {
		t.Errorf("clone of %+v has key %q", c, cl.Key)
	}
	if blk.OutNames[0] != "a" || blk.OutNames[1] != "c" {
		t.Errorf("out names = %v", blk.OutNames)
	}
	if blk.OutKinds[1] != relation.KindFloat {
		t.Errorf("kind of c = %v", blk.OutKinds[1])
	}
}

func TestAnalyzeAmbiguousAndUnknown(t *testing.T) {
	cat := testCatalog()
	cases := []string{
		"SELECT a FROM r, s",                           // ambiguous
		"SELECT z FROM r",                              // unknown column
		"SELECT r.z FROM r",                            // unknown qualified column
		"SELECT x.a FROM r",                            // unknown alias
		"SELECT a FROM nope",                           // unknown table
		"SELECT r.a FROM r, r",                         // duplicate alias
		"SELECT a FROM r UNION ALL SELECT a, b FROM r", // width mismatch
	}
	for _, q := range cases {
		if _, err := AnalyzeString(cat, q); err == nil {
			t.Errorf("Analyze(%q) should fail", q)
		}
	}
}

func TestAnalyzeAlias(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat, "SELECT x.a FROM r AS x WHERE x.b = 'q'")
	if err != nil {
		t.Fatal(err)
	}
	c := an.Root.Sel.Items[0].Expr.(*ColRef)
	if c.Alias != "x" || c.Table != "r" {
		t.Errorf("aliased ref = %+v", c)
	}
}

func TestAnalyzeCorrelatedDepth(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat,
		"SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.a = r.a)")
	if err != nil {
		t.Fatal(err)
	}
	ex := an.Root.Sel.Where.(*Exists)
	sub := an.Blocks[ex.Sub]
	if sub == nil {
		t.Fatal("subquery block not analyzed")
	}
	if sub.Parent != an.Root {
		t.Error("subquery parent not linked")
	}
	eq := ex.Sub.Where.(*Binary)
	inner := eq.L.(*ColRef)
	outer := eq.R.(*ColRef)
	if inner.Depth != 0 || inner.Alias != "s" {
		t.Errorf("inner ref = %+v", inner)
	}
	if outer.Depth != 1 || outer.Alias != "r" {
		t.Errorf("outer ref should have depth 1, got %+v", outer)
	}
}

func TestAnalyzeStarExpansion(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat, "SELECT * FROM r, s")
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Root.Sel.Items) != 5 {
		t.Errorf("star expanded to %d items", len(an.Root.Sel.Items))
	}
	schema := an.Root.OutputSchema()
	// Duplicate column name a gets deduped.
	if schema.Len() != 5 {
		t.Errorf("schema = %v", schema)
	}
	if schema.Index("a_1") < 0 {
		t.Errorf("expected deduped a_1 in %v", schema)
	}
}

func TestAnalyzeAggregates(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat,
		"SELECT b, SUM(a), COUNT(*) FROM r GROUP BY b HAVING SUM(a) > 10")
	if err != nil {
		t.Fatal(err)
	}
	if !an.Root.HasAgg {
		t.Error("HasAgg should be true")
	}
	if len(an.Root.Aggregates) != 3 { // SUM, COUNT, SUM (having)
		t.Errorf("aggregates = %d", len(an.Root.Aggregates))
	}
	if an.Root.OutKinds[1] != relation.KindInt {
		t.Errorf("SUM(int) kind = %v", an.Root.OutKinds[1])
	}
	if an.Root.OutKinds[2] != relation.KindInt {
		t.Errorf("COUNT kind = %v", an.Root.OutKinds[2])
	}
}

func TestAnalyzeKindInference(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat,
		"SELECT r.a + 1, r.a / 2, c * 2, r.a = 1, b || 'x', YEAR(d), AVG(r.a) FROM r, s GROUP BY r.a, b, c, d")
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Kind{
		relation.KindInt, relation.KindFloat, relation.KindFloat,
		relation.KindBool, relation.KindString, relation.KindInt, relation.KindFloat,
	}
	for i, k := range want {
		if an.Root.OutKinds[i] != k {
			t.Errorf("kind[%d] = %v, want %v", i, an.Root.OutKinds[i], k)
		}
	}
}
