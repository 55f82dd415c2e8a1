package baseline

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// vectorizable predicates must behave identically on both scan paths.
func TestColumnScanMatchesRowScan(t *testing.T) {
	cat := shopCatalog()
	queries := []string{
		"SELECT okey FROM ord WHERE price = 5",
		"SELECT okey FROM ord WHERE price <> 5",
		"SELECT okey FROM ord WHERE price < 7",
		"SELECT okey FROM ord WHERE price <= 7",
		"SELECT okey FROM ord WHERE price > 7",
		"SELECT okey FROM ord WHERE price >= 7",
		"SELECT okey FROM ord WHERE price BETWEEN 5 AND 11",
		"SELECT okey FROM ord WHERE price NOT BETWEEN 5 AND 11",
		"SELECT okey FROM ord WHERE okey IN (100, 103, 999)",
		"SELECT okey FROM ord WHERE okey NOT IN (100, 103)",
		"SELECT cname FROM cust WHERE cname LIKE '%o%'",
		"SELECT cname FROM cust WHERE cname NOT LIKE 'a%'",
		"SELECT cname FROM cust WHERE cnation IS NULL",
		"SELECT cname FROM cust WHERE cnation IS NOT NULL",
		// Mixed: one vectorizable + one row-wise (expression) predicate.
		"SELECT okey FROM ord WHERE price > 4 AND price * 2 < 23",
	}
	row := New(cat)
	col := NewColumnStore(cat)
	for _, q := range queries {
		a, err := row.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := col.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !relation.EqualMultiset(a, b) {
			t.Errorf("scan paths disagree on %q: %d vs %d rows", q, a.Len(), b.Len())
		}
	}
}

func TestVectorizePredRejectsNonConstant(t *testing.T) {
	cat := shopCatalog()
	rel := cat.Get("ord")
	an, err := sql.AnalyzeString(cat, "SELECT okey FROM ord WHERE price > okey AND price > 5")
	if err != nil {
		t.Fatal(err)
	}
	conjs := sql.SplitConjuncts(an.Root.Sel.Where)
	if vectorColumn(conjs[0], rel.Schema) >= 0 {
		t.Error("col-vs-col comparison must not vectorize")
	}
	if vectorColumn(conjs[1], rel.Schema) < 0 {
		t.Error("col-vs-literal comparison should vectorize")
	}
}

func TestShuffleBroadcastThresholdBoundary(t *testing.T) {
	cat := shopCatalog()
	e := NewShuffle(cat, 4)
	e.Shuffle.BroadcastThreshold = 3 // nation (3 rows) broadcasts exactly
	if _, err := e.Query("SELECT cname, nname FROM cust, nation WHERE cnation = nkey"); err != nil {
		t.Fatal(err)
	}
	if e.Stats.BroadcastRows != 3*3 { // 3 rows to each of the 3 other partitions
		t.Errorf("broadcast rows = %d, want 9", e.Stats.BroadcastRows)
	}
	if e.Stats.ShuffledRows != 0 {
		t.Errorf("shuffled rows = %d, want 0", e.Stats.ShuffledRows)
	}
}

func TestIndexBytesNeedsKeys(t *testing.T) {
	cat := relation.NewCatalog()
	r := relation.New("nokeys", relation.MustSchema(relation.Col("a", relation.KindInt)))
	r.MustAppend(relation.Int(1))
	cat.MustAdd(r)
	if IndexBytes(cat) != 0 {
		t.Error("no declared keys means no index bytes")
	}
}
