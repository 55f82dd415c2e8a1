package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// boundsScales are the graph sizes a point lookup's cost must not track.
var boundsScales = []float64{0.5, 1, 2}

// orderWithLines returns the smallest o_orderkey that has exactly n
// lineitems, so a lookup of it has the same answer shape at every scale.
func orderWithLines(t *testing.T, cat *relation.Catalog, n int) int64 {
	t.Helper()
	count := map[int64]int{}
	for _, tu := range cat.Get("lineitem").Tuples {
		count[tu[0].I]++
	}
	best := int64(-1)
	for k, c := range count {
		if c == n && (best < 0 || k < best) {
			best = k
		}
	}
	if best < 0 {
		t.Fatalf("no order with %d lineitems", n)
	}
	return best
}

// lookupCost is one query's engine work and its average heap bytes
// per run after warm-up.
type lookupCost struct {
	visits, ops int64
	bytes       float64
}

func measureLookup(t *testing.T, ex *Session, q string) lookupCost {
	t.Helper()
	for i := 0; i < 3; i++ { // warm the session's pooled buffers
		if _, err := ex.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	ex.ResetStats()
	if _, err := ex.Query(q); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ex.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return lookupCost{
		visits: st.ActiveVisits,
		ops:    st.ComputeOps,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / runs,
	}
}

// TestPointLookupCostIndependentOfGraphSize pins the §3 claim that an
// equality selection enters the graph at its attribute vertex: a point
// lookup's vertex visits and compute ops are the same at every scale,
// and its allocation does not grow with |V| (no per-run per-vertex
// arrays).
func TestPointLookupCostIndependentOfGraphSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three TPC-H graphs")
	}
	queries := []struct {
		name string
		sql  func(cat *relation.Catalog) string
	}{
		{"orders-lineitem lookup", func(cat *relation.Catalog) string {
			return fmt.Sprintf("SELECT o_orderkey, l_linenumber, l_quantity, l_extendedprice FROM orders, lineitem "+
				"WHERE o_orderkey = l_orderkey AND o_orderkey = %d", orderWithLines(t, cat, 4))
		}},
		{"customer key", func(*relation.Catalog) string {
			return "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 2"
		}},
	}
	costs := make([][]lookupCost, len(queries))
	for _, scale := range boundsScales {
		cat := tpch.Generate(scale, 42)
		g, err := tag.Build(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewSession(g, bsp.Options{Workers: 1})
		for qi, q := range queries {
			c := measureLookup(t, ex, q.sql(cat))
			t.Logf("%s scale %v |V|=%d: visits=%d ops=%d bytes/query=%.0f",
				q.name, scale, g.G.NumVertices(), c.visits, c.ops, c.bytes)
			costs[qi] = append(costs[qi], c)
		}
	}
	for qi, q := range queries {
		base := costs[qi][0]
		for si, c := range costs[qi][1:] {
			scale := boundsScales[si+1]
			if c.visits != base.visits || c.ops != base.ops {
				t.Errorf("%s: scale %v visits/ops %d/%d, scale %v %d/%d; want identical",
					q.name, scale, c.visits, c.ops, boundsScales[0], base.visits, base.ops)
			}
			if c.bytes > 1.5*base.bytes {
				t.Errorf("%s: scale %v allocates %.0f B/query, over 1.5x the %.0f B at scale %v",
					q.name, scale, c.bytes, base.bytes, boundsScales[0])
			}
		}
	}
}

// TestRangeSeedCostFollowsAnswer pins range selections to the attribute
// vertices: a one-column selection over a column with at most n/4
// distinct values, keeping at most n/4 tuples, seeds a single-alias run
// from exactly the tuples it keeps. The run then visits each kept tuple
// once, as a seed, instead of every lineitem once: a non-aggregate
// block's survivors are assembled centrally, without another run.
// The l_quantity > 5 row keeps ~90% of lineitem, so it must still scan.
// The ship-date window runs at larger scales: the generator spreads
// lineitems over ~2,500 ship days, more than a quarter of lineitem below
// scale 4, where the dictionary would cost more than the scan.
func TestRangeSeedCostFollowsAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six TPC-H graphs")
	}
	q1, q2 := relation.DateOf(1995, 1, 1).I, relation.DateOf(1995, 4, 1).I
	rows := []struct {
		name   string
		sql    string
		keep   func(relation.Tuple) bool
		seeded bool
		scales []float64
	}{
		{"quantity > 45", "SELECT l_orderkey FROM lineitem WHERE l_quantity > 45",
			func(tu relation.Tuple) bool { return tu[4].I > 45 }, true, boundsScales},
		{"shipdate quarter", "SELECT l_orderkey FROM lineitem " +
			"WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1995-04-01'",
			func(tu relation.Tuple) bool { return tu[10].I >= q1 && tu[10].I < q2 }, true, []float64{4, 6, 8}},
		{"quantity > 5 scans", "SELECT l_orderkey FROM lineitem WHERE l_quantity > 5",
			func(tu relation.Tuple) bool { return tu[4].I > 5 }, false, boundsScales},
	}
	for _, scale := range []float64{0.5, 1, 2, 4, 6, 8} {
		cat := tpch.Generate(scale, 42)
		g, err := tag.Build(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewSession(g, bsp.Options{Workers: 1})
		lineitem := cat.Get("lineitem").Tuples
		for _, row := range rows {
			if !slices.Contains(row.scales, scale) {
				continue
			}
			survivors := 0
			for _, tu := range lineitem {
				if row.keep(tu) {
					survivors++
				}
			}
			seeds := survivors
			if !row.seeded {
				seeds = len(lineitem)
			}
			ex.ResetStats()
			out, err := ex.Query(row.sql)
			if err != nil {
				t.Fatalf("%s: %v", row.sql, err)
			}
			visits := ex.Stats().ActiveVisits
			t.Logf("%s scale %v: |lineitem|=%d answer=%d visits=%d", row.name, scale, len(lineitem), survivors, visits)
			if out.Len() != survivors {
				t.Errorf("%s scale %v: %d rows, want %d", row.name, scale, out.Len(), survivors)
			}
			if visits != int64(seeds) {
				t.Errorf("%s scale %v: %d visits, want %d seeds", row.name, scale, visits, seeds)
			}
		}
	}
}

// TestUncorrelatedSubqueryIsConstant pins an uncorrelated subquery in a
// filter to one evaluation. Decorrelation runs it once and writes its
// answer into the filter as a literal, so a scan that filters by it
// allocates nothing per row: the allocations of one run of the pinned
// statement below are the same at every scale. Its rows must equal the
// baseline engine's when the subquery answers no row (NULL), one row,
// or an EXISTS, and a scalar subquery of several rows still fails.
func TestUncorrelatedSubqueryIsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three TPC-H graphs")
	}
	const pinned = "SELECT COUNT(*) FROM lineitem WHERE l_quantity > (SELECT AVG(l_quantity) FROM lineitem)"
	var allocs []float64
	for _, scale := range boundsScales {
		g, err := tag.Build(tpch.Generate(scale, 42), nil)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewSession(g, bsp.Options{Workers: 1})
		if _, err := ex.Query(pinned); err != nil { // sizes the pooled scratch
			t.Fatal(err)
		}
		a := testing.AllocsPerRun(5, func() {
			if _, err := ex.Query(pinned); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("scale %v: %d lineitems, %.0f allocations per run", scale, len(g.TupleVertices("lineitem")), a)
		allocs = append(allocs, a)
	}
	for i, a := range allocs[1:] {
		if a > 1.02*allocs[0] {
			t.Errorf("scale %v: %.0f allocations per run, scale %v: %.0f; want within 2%%",
				boundsScales[i+1], a, boundsScales[0], allocs[0])
		}
	}

	cat := shopCatalog()
	ex := newExec(t, cat)
	for _, q := range []string{
		"SELECT COUNT(*), SUM(price) FROM ord WHERE price > (SELECT okey FROM ord WHERE okey > 1000)",
		"SELECT okey FROM ord WHERE NOT (price > (SELECT okey FROM ord WHERE okey > 1000))",
		"SELECT okey FROM ord WHERE price > (SELECT MIN(price) FROM ord) + 3",
		"SELECT ckey FROM cust WHERE EXISTS (SELECT 1 FROM ord WHERE price > 40)",
		"SELECT cnation, COUNT(*) FROM cust WHERE NOT EXISTS (SELECT 1 FROM ord WHERE price > 40) OR ckey > 10 GROUP BY cnation",
	} {
		got, err := ex.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := baseline.New(cat).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.EqualMultiset(got, want) {
			t.Errorf("%s: rows %v, want %v", q, got.Tuples, want.Tuples)
		}
	}
	// The zero-row answer is a NULL literal in the filter, not a lookup.
	an, err := sql.AnalyzeString(cat, "SELECT COUNT(*) FROM ord WHERE price > (SELECT okey FROM ord WHERE okey > 1000)")
	if err != nil {
		t.Fatal(err)
	}
	ex.decorr = map[*sql.Select]*decorrTable{}
	c, err := ex.compileBlock(an, an.Root)
	if err != nil {
		t.Fatal(err)
	}
	f := c.filters["ord"]
	if lit, ok := f[0].expr.(*sql.Binary).R.(*sql.Literal); len(f) != 1 || len(f[0].decorr) > 0 || !ok || !lit.Val.IsNull() {
		t.Errorf("filter %#v, want price > NULL with no lookup", f[0])
	}
	const several = "SELECT COUNT(*) FROM ord WHERE price > (SELECT okey FROM ord)"
	if _, err := ex.Query(several); err == nil {
		t.Errorf("%s: no error, want one for a scalar subquery of several rows", several)
	}
}

// inSubqueryCatalog builds p (64 rows: a key, a group, a quantity that
// is NULL every 13th row, a name) and q (128 rows: a key, a p key that
// is NULL every 17th row, a FLOAT amount in halves), large enough that
// a short IN list on p's key enters at attribute vertices.
func inSubqueryCatalog() *relation.Catalog {
	cat := relation.NewCatalog()
	p := relation.New("p", relation.MustSchema(
		relation.Col("pk", relation.KindInt), relation.Col("grp", relation.KindInt),
		relation.Col("qty", relation.KindInt), relation.Col("name", relation.KindString)))
	for i := range int64(64) {
		qty := relation.Int(i % 5)
		if i%13 == 0 {
			qty = relation.Null
		}
		p.MustAppend(relation.Int(i), relation.Int(i%8), qty, relation.Str(fmt.Sprintf("n%d", i%16)))
	}
	q := relation.New("q", relation.MustSchema(
		relation.Col("qk", relation.KindInt), relation.Col("pk", relation.KindInt), relation.Col("amt", relation.KindFloat)))
	for i := range int64(128) {
		pk := relation.Int((i * 7) % 64)
		if i%17 == 0 {
			pk = relation.Null
		}
		q.MustAppend(relation.Int(i), pk, relation.Float(float64(i%10)/2))
	}
	cat.MustAdd(p)
	cat.MustAdd(q)
	return cat
}

// TestUncorrelatedSubqueryShapes runs uncorrelated subqueries of every
// shape decorrelation refuses when correlated (HAVING, a grouped
// aggregate, a nested subquery) and DISTINCT under IN and NOT IN, where
// each runs once and settles into a list of literals, and a UNION, which
// keeps its per-row lookup. The rows equal the baseline's under every
// engine configuration, including an answer that holds a NULL, an empty
// answer probed by a NULL (NULL, so only the OR's other arm keeps the
// row), INT probed against FLOAT, and EXISTS over SELECT *. A subquery
// whose run fails (its own scalar subquery has several rows) answers
// with no error when no seed reaches its conjunct, as the per-row path
// did.
func TestUncorrelatedSubqueryShapes(t *testing.T) {
	cat := inSubqueryCatalog()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.New(cat)
	for _, row := range []struct {
		settles bool // the subquery leaves its conjunct: no lookup, no hoisting
		sql     string
	}{
		{true, `SELECT pk, name FROM p WHERE pk IN (SELECT pk FROM q GROUP BY pk HAVING SUM(amt) > 6)`},
		{true, `SELECT pk FROM p WHERE pk NOT IN (SELECT pk FROM q WHERE pk IS NOT NULL GROUP BY pk HAVING COUNT(*) > 1)`},
		{true, `SELECT pk, qty FROM p WHERE qty IN (SELECT MIN(qk) FROM q GROUP BY amt)`},
		{true, `SELECT pk, qty FROM p WHERE qty NOT IN (SELECT MIN(qk) FROM q GROUP BY amt)`},
		{true, `SELECT pk FROM p WHERE pk IN (SELECT pk FROM q WHERE amt > (SELECT AVG(amt) FROM q) AND qk < 40)`},
		{true, `SELECT pk FROM p WHERE pk NOT IN (SELECT q.pk FROM q WHERE q.pk IS NOT NULL AND EXISTS (SELECT 1 FROM p p2 WHERE p2.pk = q.pk AND p2.grp = 3))`},
		{true, `SELECT pk, grp FROM p WHERE grp IN (SELECT DISTINCT qk FROM q WHERE qk < 3)`},
		{true, `SELECT pk, grp FROM p WHERE grp NOT IN (SELECT DISTINCT qk FROM q WHERE qk < 3)`},
		{false, `SELECT pk FROM p WHERE pk IN (SELECT qk FROM q WHERE qk < 3 UNION ALL SELECT pk FROM p WHERE grp = 7)`},
		{true, `SELECT pk FROM p WHERE pk IN (SELECT pk FROM q WHERE qk < 20)`},
		{true, `SELECT pk FROM p WHERE pk NOT IN (SELECT pk FROM q WHERE qk < 20)`},
		{true, `SELECT pk, qty FROM p WHERE qty NOT IN (SELECT pk FROM q WHERE qk < 0) OR pk < 3`},
		{true, `SELECT pk, qty FROM p WHERE qty IN (SELECT pk FROM q WHERE qk < 0) OR pk < 3`},
		{true, `SELECT pk, qty FROM p WHERE qty IN (SELECT amt FROM q WHERE qk < 10)`},
		{true, `SELECT pk, qty FROM p WHERE qty NOT IN (SELECT amt FROM q WHERE qk < 10)`},
		{true, `SELECT pk FROM p WHERE pk IN (SELECT amt FROM q WHERE qk < 4)`},
		{true, `SELECT pk FROM p WHERE EXISTS (SELECT * FROM q WHERE amt > 4)`},
		{true, `SELECT pk FROM p WHERE NOT EXISTS (SELECT * FROM q WHERE amt > 4) OR pk = 5`},
		{false, `SELECT pk FROM p WHERE pk = 1000 AND grp IN (SELECT pk FROM q WHERE qk = (SELECT qk FROM q))`},
	} {
		q := row.sql
		an, err := sql.AnalyzeString(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewSession(g, bsp.Options{Workers: 1})
		ex.decorr = map[*sql.Select]*decorrTable{}
		c, err := ex.compileBlock(an, an.Root)
		if err != nil {
			t.Fatal(err)
		}
		f := c.filters["p"]
		looksUp := slices.ContainsFunc(f, func(p *predicate) bool { return p.hoisted || len(p.decorr) > 0 })
		if looksUp == row.settles {
			t.Errorf("%s: a filter looks its subquery up = %v, want %v", q, looksUp, !row.settles)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("baseline %s: %v", q, err)
		}
		for _, ec := range engineConfigs {
			got, err := NewSession(g, ec.opts).Query(q)
			if err != nil {
				t.Fatalf("%s %s: %v", ec.name, q, err)
			}
			if !relation.EqualMultiset(got, want) {
				onlyG, onlyW := relation.DiffMultiset(got, want, 4)
				t.Errorf("%s %s: %d rows, baseline %d\nonly TAG: %v\nonly baseline: %v", ec.name, q, got.Len(), want.Len(), onlyG, onlyW)
			}
		}
	}
}
