package core

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
)

// shopCatalog mirrors the baseline package's test database.
func shopCatalog() *relation.Catalog {
	cat := relation.NewCatalog()

	nation := relation.New("nation", relation.MustSchema(
		relation.Col("nkey", relation.KindInt),
		relation.Col("nname", relation.KindString)))
	nation.MustAppend(relation.Int(1), relation.Str("USA"))
	nation.MustAppend(relation.Int(2), relation.Str("FRANCE"))
	nation.MustAppend(relation.Int(3), relation.Str("PERU"))
	cat.MustAdd(nation)
	cat.SetPrimaryKey("nation", "nkey")

	cust := relation.New("cust", relation.MustSchema(
		relation.Col("ckey", relation.KindInt),
		relation.Col("cnation", relation.KindInt),
		relation.Col("cname", relation.KindString)))
	cust.MustAppend(relation.Int(10), relation.Int(1), relation.Str("alice"))
	cust.MustAppend(relation.Int(20), relation.Int(1), relation.Str("bob"))
	cust.MustAppend(relation.Int(30), relation.Int(2), relation.Str("chloe"))
	cust.MustAppend(relation.Int(40), relation.Null, relation.Str("drift"))
	cat.MustAdd(cust)
	cat.SetPrimaryKey("cust", "ckey")

	ord := relation.New("ord", relation.MustSchema(
		relation.Col("okey", relation.KindInt),
		relation.Col("ocust", relation.KindInt),
		relation.Col("price", relation.KindInt)))
	ord.MustAppend(relation.Int(100), relation.Int(10), relation.Int(5))
	ord.MustAppend(relation.Int(101), relation.Int(10), relation.Int(7))
	ord.MustAppend(relation.Int(102), relation.Int(20), relation.Int(11))
	ord.MustAppend(relation.Int(103), relation.Int(30), relation.Int(2))
	ord.MustAppend(relation.Int(104), relation.Int(99), relation.Int(50))
	cat.MustAdd(ord)
	cat.SetPrimaryKey("ord", "okey")

	return cat
}

// triangleCatalog builds R(A,B), S(B,C), T(C,A) with two triangles and
// dangling tuples.
func triangleCatalog() *relation.Catalog {
	cat := relation.NewCatalog()
	r := relation.New("r", relation.MustSchema(relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt)))
	s := relation.New("s", relation.MustSchema(relation.Col("b", relation.KindInt), relation.Col("c", relation.KindInt)))
	t := relation.New("t", relation.MustSchema(relation.Col("c", relation.KindInt), relation.Col("a", relation.KindInt)))
	// Triangle 1: a=1,b=10,c=100. Triangle 2: a=2,b=20,c=200.
	r.MustAppend(relation.Int(1), relation.Int(10))
	r.MustAppend(relation.Int(2), relation.Int(20))
	r.MustAppend(relation.Int(3), relation.Int(30)) // dangling
	s.MustAppend(relation.Int(10), relation.Int(100))
	s.MustAppend(relation.Int(20), relation.Int(200))
	s.MustAppend(relation.Int(30), relation.Int(999)) // no T partner
	t.MustAppend(relation.Int(100), relation.Int(1))
	t.MustAppend(relation.Int(200), relation.Int(2))
	t.MustAppend(relation.Int(300), relation.Int(7)) // dangling
	cat.MustAdd(r)
	cat.MustAdd(s)
	cat.MustAdd(t)
	return cat
}

func newExec(t *testing.T, cat *relation.Catalog) *Session {
	t.Helper()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(g, bsp.Options{Workers: 4})
}

// checkAgainstBaseline runs the query on both engines and compares
// multisets.
func checkAgainstBaseline(t *testing.T, cat *relation.Catalog, query string) *relation.Relation {
	t.Helper()
	ex := newExec(t, cat)
	got, err := ex.Query(query)
	if err != nil {
		t.Fatalf("TAG %q: %v", query, err)
	}
	want, err := baseline.New(cat).Query(query)
	if err != nil {
		t.Fatalf("baseline %q: %v", query, err)
	}
	if !relation.EqualMultiset(got, want) {
		onlyG, onlyW := relation.DiffMultiset(got, want, 5)
		t.Fatalf("mismatch on %q:\nTAG rows %d, baseline rows %d\nonly TAG: %v\nonly baseline: %v",
			query, got.Len(), want.Len(), onlyG, onlyW)
	}
	return got
}

func TestSingleTableFilter(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(), "SELECT cname FROM cust WHERE ckey > 15")
}

func TestTwoWayJoin(t *testing.T) {
	got := checkAgainstBaseline(t, shopCatalog(),
		"SELECT cname, nname FROM cust, nation WHERE cnation = nkey")
	if got.Len() != 3 {
		t.Errorf("rows = %d, want 3", got.Len())
	}
}

func TestThreeWayJoinWithFilters(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(), `SELECT nname, price FROM nation, cust, ord
		WHERE cnation = nkey AND ocust = ckey AND price > 4`)
}

func TestTwoWayJoinMessageBounds(t *testing.T) {
	// §4.1.2: reduction messages are bounded by min(IN, OUT) per pass and
	// the total communication by O(IN + OUT).
	cat := shopCatalog()
	ex := newExec(t, cat)
	ex.ResetStats()
	out, err := ex.Query("SELECT cname, nname FROM cust, nation WHERE cnation = nkey")
	if err != nil {
		t.Fatal(err)
	}
	in := int64(cat.Get("cust").Len() + cat.Get("nation").Len())
	outN := int64(out.Len())
	msgs := ex.Stats().Messages
	// Reduction (3 passes over marked edges) + collection + finalize:
	// generous constant factor, but strictly linear.
	if msgs > 6*(in+outN) {
		t.Errorf("messages = %d exceeds 6*(IN+OUT) = %d", msgs, 6*(in+outN))
	}
}

func TestGroupByLocalAggregation(t *testing.T) {
	cat := shopCatalog()
	ex := newExec(t, cat)
	got, err := ex.Query("SELECT ocust, SUM(price), COUNT(*) FROM ord GROUP BY ocust HAVING SUM(price) > 5")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Info.Agg != AggLocal {
		t.Errorf("agg class = %v, want local", ex.Info.Agg)
	}
	want, _ := baseline.New(cat).Query("SELECT ocust, SUM(price), COUNT(*) FROM ord GROUP BY ocust HAVING SUM(price) > 5")
	if !relation.EqualMultiset(got, want) {
		t.Errorf("LA mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestGroupByMultiAliasIsGlobal(t *testing.T) {
	cat := shopCatalog()
	ex := newExec(t, cat)
	q := `SELECT nname, cname, COUNT(*) FROM nation, cust, ord
		WHERE cnation = nkey AND ocust = ckey GROUP BY nname, cname`
	got, err := ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Info.Agg != AggGlobal {
		t.Errorf("agg class = %v, want global", ex.Info.Agg)
	}
	want, _ := baseline.New(cat).Query(q)
	if !relation.EqualMultiset(got, want) {
		t.Errorf("GA mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestScalarAggregation(t *testing.T) {
	cat := shopCatalog()
	ex := newExec(t, cat)
	got, err := ex.Query("SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM ord WHERE price > 4")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Info.Agg != AggScalar {
		t.Errorf("agg class = %v", ex.Info.Agg)
	}
	row := got.Tuples[0]
	if row[0] != relation.Int(4) || row[1] != relation.Int(73) {
		t.Errorf("scalar row = %v", row)
	}
}

func TestScalarAggregationEmptyInput(t *testing.T) {
	got := checkAgainstBaseline(t, shopCatalog(), "SELECT COUNT(*), SUM(price) FROM ord WHERE price > 1000")
	if got.Len() != 1 || got.Tuples[0][0] != relation.Int(0) {
		t.Errorf("empty scalar = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	got := checkAgainstBaseline(t, shopCatalog(), "SELECT DISTINCT cnation FROM cust WHERE cnation IS NOT NULL")
	if got.Len() != 2 {
		t.Errorf("distinct rows = %d", got.Len())
	}
}

func TestDanglingTuplesEliminated(t *testing.T) {
	// Order 104 references a missing customer; drift has NULL nation.
	got := checkAgainstBaseline(t, shopCatalog(),
		"SELECT okey FROM ord, cust WHERE ocust = ckey")
	if got.Len() != 4 {
		t.Errorf("rows = %d, want 4", got.Len())
	}
}

func TestCorrelatedExistsSemiJoin(t *testing.T) {
	got := checkAgainstBaseline(t, shopCatalog(),
		"SELECT cname FROM cust WHERE EXISTS (SELECT 1 FROM ord WHERE ocust = ckey AND price > 10)")
	if got.Len() != 1 || got.Tuples[0][0] != relation.Str("bob") {
		t.Errorf("rows = %v", got)
	}
}

func TestNotExistsAntiJoin(t *testing.T) {
	got := checkAgainstBaseline(t, shopCatalog(),
		"SELECT cname FROM cust WHERE NOT EXISTS (SELECT 1 FROM ord WHERE ocust = ckey)")
	if got.Len() != 1 || got.Tuples[0][0] != relation.Str("drift") {
		t.Errorf("rows = %v", got)
	}
}

func TestInSubquery(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT okey FROM ord WHERE ocust IN (SELECT ckey FROM cust WHERE cnation = 1)")
}

func TestNotInSubquery(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT okey FROM ord WHERE ocust NOT IN (SELECT ckey FROM cust)")
}

func TestScalarSubqueryUncorrelated(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT okey FROM ord WHERE price > (SELECT AVG(price) FROM ord)")
}

func TestScalarSubqueryCorrelated(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(), `SELECT okey FROM ord o
		WHERE price > (SELECT 1.5 * AVG(price) FROM ord i WHERE i.ocust = o.ocust)`)
}

func TestExistsJoinInside(t *testing.T) {
	// Subquery with its own join (q21-style shape).
	checkAgainstBaseline(t, shopCatalog(), `SELECT nname FROM nation
		WHERE EXISTS (SELECT 1 FROM cust, ord WHERE ocust = ckey AND cnation = nkey AND price > 6)`)
}

// TestDepthTwoCorrelation: a block that reads a column two scopes out
// answers per value of it, not from a memo keyed by its nearer outer
// references alone.
func TestDepthTwoCorrelation(t *testing.T) {
	cat := relation.NewCatalog()
	a := relation.New("a", relation.MustSchema(relation.Col("ak", relation.KindInt)))
	a.MustAppend(relation.Int(1))
	a.MustAppend(relation.Int(2))
	b := relation.New("b", relation.MustSchema(relation.Col("bk", relation.KindInt), relation.Col("bv", relation.KindInt)))
	b.MustAppend(relation.Int(1), relation.Int(7))
	b.MustAppend(relation.Int(2), relation.Int(7))
	c := relation.New("c", relation.MustSchema(relation.Col("ck", relation.KindInt), relation.Col("cv", relation.KindInt)))
	c.MustAppend(relation.Int(1), relation.Int(7))
	for _, r := range []*relation.Relation{a, b, c} {
		cat.MustAdd(r)
	}
	for _, tc := range []struct{ name, q string }{
		{"exists", `SELECT ak FROM a WHERE EXISTS (SELECT 1 FROM b WHERE bk = ak
			AND EXISTS (SELECT 1 FROM c WHERE ck = ak AND cv = bv))`},
		{"in", `SELECT ak FROM a WHERE ak IN (SELECT bk FROM b WHERE bk = ak
			AND bv IN (SELECT cv FROM c WHERE ck = ak))`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkAgainstBaseline(t, cat, tc.q); got.Len() != 1 {
				t.Errorf("rows = %v, want only ak = 1", got)
			}
		})
	}
}

func TestTriangleQuery(t *testing.T) {
	cat := triangleCatalog()
	ex := newExec(t, cat)
	got, err := ex.Query("SELECT r.a, r.b, s.c FROM r, s, t WHERE r.b = s.b AND s.c = t.c AND t.a = r.a")
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Info.Acyclic == false {
		t.Errorf("triangle should be detected as cyclic, info=%+v", ex.Info)
	}
	if ex.Info.Cycles != 1 {
		t.Errorf("cycles = %d", ex.Info.Cycles)
	}
	if got.Len() != 2 {
		t.Fatalf("triangles = %d, want 2\n%v", got.Len(), got)
	}
	want, _ := baseline.New(cat).Query("SELECT r.a, r.b, s.c FROM r, s, t WHERE r.b = s.b AND s.c = t.c AND t.a = r.a")
	if !relation.EqualMultiset(got, want) {
		t.Errorf("triangle mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestTriangleThetaSweep(t *testing.T) {
	// Correctness must not depend on the heavy/light threshold (§6.1.2).
	cat := triangleCatalog()
	q := "SELECT r.a, r.b, s.c FROM r, s, t WHERE r.b = s.b AND s.c = t.c AND t.a = r.a"
	want, _ := baseline.New(cat).Query(q)
	for _, theta := range []float64{0.5, 1, 2, 1e9} {
		ex := newExec(t, cat)
		ex.Theta = theta
		got, err := ex.Query(q)
		if err != nil {
			t.Fatalf("theta=%v: %v", theta, err)
		}
		if !relation.EqualMultiset(got, want) {
			t.Errorf("theta=%v: mismatch (%d vs %d rows)", theta, got.Len(), want.Len())
		}
	}
}

func TestFiveCycleQuery(t *testing.T) {
	cat := relation.NewCatalog()
	names := []string{"r1", "r2", "r3", "r4", "r5"}
	for i, n := range names {
		rel := relation.New(n, relation.MustSchema(
			relation.Col(fmt.Sprintf("x%d", i+1), relation.KindInt),
			relation.Col(fmt.Sprintf("x%d", (i+1)%5+1), relation.KindInt)))
		// Two full cycles (k=0, k=1) plus noise.
		for k := 0; k < 2; k++ {
			rel.MustAppend(relation.Int(int64(10*(i+1)+k)), relation.Int(int64(10*((i+1)%5+1)+k)))
		}
		rel.MustAppend(relation.Int(int64(900+i)), relation.Int(int64(950+i)))
		cat.MustAdd(rel)
	}
	q := `SELECT r1.x1 FROM r1, r2, r3, r4, r5
		WHERE r1.x2 = r2.x2 AND r2.x3 = r3.x3 AND r3.x4 = r4.x4 AND r4.x5 = r5.x5 AND r5.x1 = r1.x1`
	checkAgainstBaseline(t, cat, q)
}

func TestCartesianProductQuery(t *testing.T) {
	got := checkAgainstBaseline(t, shopCatalog(),
		"SELECT nname, okey FROM nation, ord WHERE price > 10")
	if got.Len() != 6 { // 3 nations × 2 orders
		t.Errorf("rows = %d, want 6", got.Len())
	}
}

func TestLeftOuterJoin(t *testing.T) {
	got := checkAgainstBaseline(t, shopCatalog(),
		"SELECT cname, nname FROM cust LEFT JOIN nation ON cnation = nkey")
	if got.Len() != 4 {
		t.Errorf("rows = %d, want 4", got.Len())
	}
}

func TestRightAndFullOuterJoin(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT cname, nname FROM cust RIGHT JOIN nation ON cnation = nkey")
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT cname, nname FROM cust FULL JOIN nation ON cnation = nkey")
}

func TestMultiTableOuterJoin(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(), `SELECT okey, cname, nname FROM ord
		JOIN cust ON ocust = ckey LEFT JOIN nation ON cnation = nkey`)
}

func TestOuterJoinWithAggregation(t *testing.T) {
	// TPC-H q13 shape: customers counted with their order counts.
	checkAgainstBaseline(t, shopCatalog(), `SELECT ckey, COUNT(okey) FROM cust
		LEFT JOIN ord ON ocust = ckey GROUP BY ckey`)
}

func TestUnionAll(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT ckey FROM cust UNION ALL SELECT okey FROM ord WHERE price < 10")
}

func TestMultiAttributeJoin(t *testing.T) {
	cat := relation.NewCatalog()
	r := relation.New("r", relation.MustSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt), relation.Col("c", relation.KindInt)))
	s := relation.New("s", relation.MustSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt), relation.Col("d", relation.KindInt)))
	// Figure 3's instance: R2/S2 agree on B but not on A.
	r.MustAppend(relation.Int(1), relation.Int(10), relation.Int(7))
	r.MustAppend(relation.Int(2), relation.Int(20), relation.Int(8))
	s.MustAppend(relation.Int(1), relation.Int(10), relation.Int(70))
	s.MustAppend(relation.Int(3), relation.Int(20), relation.Int(80))
	cat.MustAdd(r)
	cat.MustAdd(s)
	got := checkAgainstBaseline(t, cat,
		"SELECT c, d FROM r, s WHERE r.a = s.a AND r.b = s.b")
	if got.Len() != 1 {
		t.Errorf("rows = %d, want 1 (only the (1,10) pair joins)", got.Len())
	}
}

func TestSelfJoin(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT o1.okey, o2.okey FROM ord o1, ord o2 WHERE o1.ocust = o2.ocust AND o1.okey < o2.okey")
}

func TestDuplicateTuplesMultiplicity(t *testing.T) {
	cat := shopCatalog()
	// Duplicate an order: join multiplicities must double for that key.
	cat.Get("ord").MustAppend(relation.Int(100), relation.Int(10), relation.Int(5))
	checkAgainstBaseline(t, cat, "SELECT okey, cname FROM ord, cust WHERE ocust = ckey")
}

func TestSnowflakeAggregation(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(), `SELECT nname, SUM(price) FROM nation, cust, ord
		WHERE cnation = nkey AND ocust = ckey GROUP BY nname`)
}

func TestExpressionsInSelect(t *testing.T) {
	checkAgainstBaseline(t, shopCatalog(),
		"SELECT okey * 2, price + 1, CASE WHEN price > 10 THEN 'hi' ELSE 'lo' END FROM ord")
}

func TestStatsAccumulate(t *testing.T) {
	ex := newExec(t, shopCatalog())
	if _, err := ex.Query("SELECT cname FROM cust, nation WHERE cnation = nkey"); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Messages == 0 || st.Supersteps == 0 {
		t.Errorf("stats not recorded: %v", st)
	}
	ex.ResetStats()
	if ex.Stats().Messages != 0 {
		t.Error("reset failed")
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	q := "SELECT nname, SUM(price) FROM nation, cust, ord WHERE cnation = nkey AND ocust = ckey GROUP BY nname"
	var first []string
	for i, w := range []int{1, 2, 8} {
		cat := shopCatalog()
		g, _ := tag.Build(cat, tag.MaterializeAll)
		ex := NewSession(g, bsp.Options{Workers: w})
		got, err := ex.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		keys := got.SortedKeys()
		if i == 0 {
			first = keys
			continue
		}
		if fmt.Sprint(keys) != fmt.Sprint(first) {
			t.Errorf("workers=%d produced different result", w)
		}
	}
}

// TestEqualitySeedsKeepCoercion covers equality filters whose literal
// kind differs from the column's: seeding from the attribute vertex
// must return exactly what SQL's numeric coercion does, including an
// integral float literal beyond 2^53 that compares equal to two
// distinct integers.
func TestEqualitySeedsKeepCoercion(t *testing.T) {
	cat := relation.NewCatalog()
	r := relation.New("big", relation.MustSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("f", relation.KindFloat)))
	r.MustAppend(relation.Int(1<<53), relation.Float(2))
	r.MustAppend(relation.Int(1<<53+1), relation.Float(2.5))
	r.MustAppend(relation.Int(7), relation.Null)
	cat.MustAdd(r)
	for _, q := range []string{
		"SELECT k FROM big WHERE k = 9007199254740992.0",
		"SELECT k FROM big WHERE k IN (7, 9007199254740993)",
		"SELECT k FROM big WHERE k = 7.5",
		"SELECT k FROM big WHERE f = 2",
		"SELECT k FROM big WHERE f = 2.5",
		"SELECT k FROM big WHERE f = NULL",
	} {
		checkAgainstBaseline(t, cat, q)
	}
}

// TestExponentLiterals: a literal with an exponent is one FLOAT, not
// an INT followed by a column alias, on TAG and refdb alike.
func TestExponentLiterals(t *testing.T) {
	cat := shopCatalog()
	got := checkAgainstBaseline(t, cat, "SELECT 1.5e3 FROM nation")
	if got.Schema.Len() != 1 || got.Len() != 3 || got.Tuples[0][0] != relation.Float(1500) {
		t.Errorf("SELECT 1.5e3: columns %v rows %v, want one FLOAT 1500 per nation", got.Schema.Columns, got.Tuples)
	}
	for q, want := range map[string]int{
		"SELECT nkey FROM nation WHERE nkey * 1e3 > 1.5E3": 2,
		"SELECT nkey FROM nation WHERE nkey < 25e-1":       2,
		"SELECT nkey FROM nation WHERE nkey > 2E+0":        1,
	} {
		if got := checkAgainstBaseline(t, cat, q); got.Len() != want {
			t.Errorf("%s: %d rows, want %d", q, got.Len(), want)
		}
	}
}

// TestRangeSeedsKeepCellKinds covers selections on columns whose
// attribute vertices hold a canonical Key rather than the cell: FLOAT
// 2.0 is stored as INT 2 (and INT arithmetic wraps where FLOAT does
// not), and BOOL TRUE as INT 1 (which is not TRUE). Each column has four
// values over 64 rows, so an INT column of the same shape would seed
// from its dictionary; these must return what evaluating the cells does.
func TestRangeSeedsKeepCellKinds(t *testing.T) {
	cat := relation.NewCatalog()
	r := relation.New("kinds", relation.MustSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("f", relation.KindFloat),
		relation.Col("b", relation.KindBool)))
	for i := 0; i < 64; i++ {
		r.MustAppend(relation.Int(int64(i%4)), relation.Float(float64(i%4)), relation.Bool(i%4 == 0))
	}
	cat.MustAdd(r)
	for _, q := range []string{
		"SELECT k FROM kinds WHERE f * 4611686018427387904 > 0",
		"SELECT k FROM kinds WHERE b",
		"SELECT k FROM kinds WHERE NOT b",
		"SELECT f FROM kinds WHERE k * 4611686018427387904 > 0",
	} {
		checkAgainstBaseline(t, cat, q)
	}
}
