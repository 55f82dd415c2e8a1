package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// TestDecorrelationFollowsOuterSelection: a correlated subquery runs
// only for the keys its outer block's selection leaves, so with a fixed
// number of outer keys its cost does not grow with the inner table. At
// scales 0.5 to 4, a q17 shape (five parts) and a q4 shape (ten orders)
// keep their messages and compute ops within 1.3x of their scale-0.5
// counts, and answer what the baseline answers. Decorrelated over the
// whole of lineitem, both counts grow with it.
func TestDecorrelationFollowsOuterSelection(t *testing.T) {
	queries := []struct{ name, sql string }{
		{"q17", `SELECT SUM(l_extendedprice) / 7.0 FROM lineitem, part
			WHERE p_partkey = l_partkey AND p_partkey IN (1, 2, 3, 4, 5)
			  AND l_quantity < (SELECT 0.5 * AVG(l2.l_quantity) FROM lineitem l2 WHERE l2.l_partkey = p_partkey)`},
		{"q4", `SELECT o_orderpriority, COUNT(*) FROM orders
			WHERE o_orderkey IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
			  AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
			GROUP BY o_orderpriority`},
	}
	base := map[string]bsp.Stats{}
	for _, scale := range []float64{0.5, 1, 2, 4} {
		cat := tpch.Generate(scale, 2021)
		g, err := tag.Build(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := baseline.New(cat)
		for _, q := range queries {
			ex := NewSession(g, bsp.Options{Workers: 2})
			got, err := ex.Query(q.sql)
			if err != nil {
				t.Fatalf("%s at scale %g: %v", q.name, scale, err)
			}
			want, err := ref.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.EqualMultiset(got, want) {
				t.Fatalf("%s at scale %g: TAG %v, baseline %v", q.name, scale, got.Tuples, want.Tuples)
			}
			st := ex.Stats()
			t.Logf("%s at scale %g: %d messages, %d compute ops", q.name, scale, st.Messages, st.ComputeOps)
			b, ok := base[q.name]
			if !ok {
				base[q.name] = st
				continue
			}
			if float64(st.Messages) > 1.3*float64(b.Messages) || float64(st.ComputeOps) > 1.3*float64(b.ComputeOps) {
				t.Errorf("%s at scale %g: %d messages and %d compute ops, over 1.3x the %d and %d at scale 0.5",
					q.name, scale, st.Messages, st.ComputeOps, b.Messages, b.ComputeOps)
			}
		}
	}
}

// TestDecorrelationKeysIgnoreOuterFilters: the middle block of a
// depth-two query runs once per outer value (it holds a subquery, so it
// is not decorrelated itself), and its own EXISTS is decorrelated once
// for the whole run. The middle block's filter bv = ak reads the outer
// block, so it must not narrow that EXISTS's outer keys: taken under
// ak = 1 they would hold bk 10 alone, and ak = 2, whose b row has bk 20,
// would find no c row. bw > 0 is the filter the keys come from; it
// keeps two of b's eight rows, few enough to restrict the EXISTS.
func TestDecorrelationKeysIgnoreOuterFilters(t *testing.T) {
	cat := relation.NewCatalog()
	a := relation.New("a", relation.MustSchema(relation.Col("ak", relation.KindInt)))
	a.MustAppend(relation.Int(1))
	a.MustAppend(relation.Int(2))
	a.MustAppend(relation.Int(3))
	b := relation.New("b", relation.MustSchema(
		relation.Col("bk", relation.KindInt), relation.Col("bv", relation.KindInt), relation.Col("bw", relation.KindInt)))
	b.MustAppend(relation.Int(10), relation.Int(1), relation.Int(1))
	b.MustAppend(relation.Int(20), relation.Int(2), relation.Int(1))
	for k := int64(3); k <= 8; k++ {
		b.MustAppend(relation.Int(10*k), relation.Int(k), relation.Int(0))
	}
	c := relation.New("c", relation.MustSchema(relation.Col("ck", relation.KindInt)))
	c.MustAppend(relation.Int(10))
	c.MustAppend(relation.Int(20))
	c.MustAppend(relation.Int(30))
	for _, r := range []*relation.Relation{a, b, c} {
		cat.MustAdd(r)
	}
	q := `SELECT ak FROM a WHERE EXISTS (SELECT 1 FROM b WHERE bv = ak AND bw > 0
		AND EXISTS (SELECT 1 FROM c WHERE ck = bk))`
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.New(cat).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 2 {
		t.Fatalf("baseline answers %v, want ak 1 and 2", want.Tuples)
	}
	for _, ec := range engineConfigs {
		got, err := NewSession(g, ec.opts).Query(q)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		if !relation.EqualMultiset(got, want) {
			t.Errorf("%s: TAG answers %v, baseline %v", ec.name, got.Tuples, want.Tuples)
		}
	}
}

// TestExistsAnswersWithoutItsColumns: an EXISTS reads whether its
// subquery has rows, never their columns, so SELECT * and SELECT 1
// answer alike on both engines, correlated or not, negated or not. A
// correlated COUNT(*) answers 0 for an outer row no inner row matches.
func TestExistsAnswersWithoutItsColumns(t *testing.T) {
	cat := tpch.Generate(0.1, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.New(cat)
	for _, shape := range []string{
		`SELECT COUNT(*) FROM orders WHERE %s (SELECT %s FROM lineitem WHERE l_orderkey = o_orderkey)`,
		`SELECT COUNT(*) FROM orders WHERE o_orderkey < 40 AND %s (SELECT %s FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 45)`,
		`SELECT COUNT(*) FROM customer WHERE %s (SELECT %s FROM orders WHERE o_custkey = c_custkey AND o_orderpriority = '1-URGENT')`,
		`SELECT COUNT(*) FROM nation WHERE %s (SELECT %s FROM region WHERE r_name = 'ASIA')`,
	} {
		var answers []*relation.Relation
		for _, not := range []string{"EXISTS", "NOT EXISTS"} {
			for _, items := range []string{"*", "1"} {
				q := fmt.Sprintf(shape, not, items)
				got, err := NewSession(g, bsp.Options{Workers: 2}).Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				want, err := ref.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !relation.EqualMultiset(got, want) {
					t.Fatalf("%s: TAG %v, baseline %v", q, got.Tuples, want.Tuples)
				}
				answers = append(answers, got)
			}
		}
		if !relation.EqualMultiset(answers[0], answers[1]) || !relation.EqualMultiset(answers[2], answers[3]) {
			t.Errorf("%s: SELECT * and SELECT 1 answer %v and %v", shape, answers[0].Tuples, answers[1].Tuples)
		}
	}
	checkAgainstBaseline(t, shopCatalog(), "SELECT ckey FROM cust WHERE (SELECT COUNT(*) FROM ord WHERE ocust = ckey) = 0")
}

// corrCatalog builds three tables for correlated subqueries: an integer
// key k over eight values, an integer v, a FLOAT f holding integral and
// half values, a DATE d and a STRING s, each NULL now and then. A third
// of the tables hold 40-80 rows, so an outer selection can enter at its
// attribute vertices and the outer keys can seed the subquery.
func corrCatalog(rng *rand.Rand) *relation.Catalog {
	cat := relation.NewCatalog()
	for i := 0; i < 3; i++ {
		r := relation.New(fmt.Sprintf("c%d", i), relation.MustSchema(
			relation.Col("k", relation.KindInt),
			relation.Col("v", relation.KindInt),
			relation.Col("f", relation.KindFloat),
			relation.Col("d", relation.KindDate),
			relation.Col("s", relation.KindString)))
		rows := 4 + rng.Intn(20)
		if rng.Intn(3) == 0 {
			rows = 40 + rng.Intn(41)
		}
		null := func() bool { return rng.Intn(10) == 0 }
		for j := 0; j < rows; j++ {
			row := relation.Tuple{relation.Int(int64(rng.Intn(8))), relation.Int(int64(rng.Intn(10))),
				relation.Float(float64(rng.Intn(16)) / 2), relation.Date(int64(9400 + rng.Intn(6))),
				relation.Str([]string{"x", "y", "z"}[rng.Intn(3)])}
			for c := range row {
				if null() {
					row[c] = relation.Null
				}
			}
			r.MustAppend(row...)
		}
		cat.MustAdd(r)
	}
	return cat
}

// corrQuery builds a query whose WHERE holds one correlated subquery
// over alias i: EXISTS, NOT EXISTS, a scalar AVG, MIN or COUNT, or an
// IN. Its correlation reads an outer column of o (or of p, a second
// alias joined to o): the INT key, the DATE, the STRING, or o's FLOAT
// against i's INT key, which must not be restricted; sometimes a second
// correlation rides along. The outer block's filters may enter at
// attribute vertices (an equality, an IN list, a long IN list, a range)
// or may not (arithmetic, LIKE, an OR with IS NULL).
func corrQuery(rng *rand.Rand) string {
	from := fmt.Sprintf("c%d o", rng.Intn(3))
	var conjs []string
	outer := []string{"o"}
	if rng.Intn(3) == 0 {
		from += fmt.Sprintf(", c%d p", rng.Intn(3))
		conjs = append(conjs, "o.k = p."+[]string{"k", "v"}[rng.Intn(2)])
		outer = append(outer, "p")
	}
	for _, a := range outer {
		for n := rng.Intn(3); n > 0; n-- {
			switch rng.Intn(8) {
			case 0:
				conjs = append(conjs, fmt.Sprintf("%s.k = %d", a, rng.Intn(8)))
			case 1:
				conjs = append(conjs, fmt.Sprintf("%s.v IN (%d, %d)", a, rng.Intn(10), rng.Intn(10)))
			case 2:
				conjs = append(conjs, fmt.Sprintf("%s.k IN (0, 1, 2, 3, 4, 5, 6, NULL, 9, 10, %d)", a, rng.Intn(8)))
			case 3:
				conjs = append(conjs, fmt.Sprintf("%s.v BETWEEN %d AND %d", a, rng.Intn(5), 3+rng.Intn(7)))
			case 4:
				conjs = append(conjs, fmt.Sprintf("%s.k + %s.v > %d", a, a, rng.Intn(12)))
			case 5:
				conjs = append(conjs, fmt.Sprintf("%s.s LIKE '%s%%'", a, []string{"x", "y"}[rng.Intn(2)]))
			case 6:
				conjs = append(conjs, fmt.Sprintf("(%s.v < %d OR %s.k IS NULL)", a, rng.Intn(10), a))
			default:
				conjs = append(conjs, fmt.Sprintf("%s.f > %d.5", a, rng.Intn(6)))
			}
		}
	}
	a := outer[rng.Intn(len(outer))]
	var corr string
	switch rng.Intn(5) {
	case 0:
		corr = "i.d = " + a + ".d"
	case 1:
		corr = "i.s = " + a + ".s"
	case 2:
		corr = a + ".f = i.k" // FLOAT against INT: not restricted
	default:
		corr = "i.k = " + a + ".k"
	}
	if rng.Intn(4) == 0 {
		corr += " AND i.s = " + outer[rng.Intn(len(outer))] + ".s"
	}
	if rng.Intn(2) == 0 {
		corr += fmt.Sprintf(" AND i.v > %d", rng.Intn(8))
	}
	inner := fmt.Sprintf("c%d i WHERE %s", rng.Intn(3), corr)
	cmp := outer[rng.Intn(len(outer))] + ".v"
	var sub string
	switch rng.Intn(7) {
	case 0:
		sub = fmt.Sprintf("EXISTS (SELECT %s FROM %s)", []string{"1", "*"}[rng.Intn(2)], inner)
	case 1:
		sub = fmt.Sprintf("NOT EXISTS (SELECT %s FROM %s)", []string{"1", "*"}[rng.Intn(2)], inner)
	case 2:
		sub = fmt.Sprintf("%s < (SELECT AVG(i.v) FROM %s)", cmp, inner)
	case 3:
		sub = fmt.Sprintf("%s >= (SELECT MIN(i.v) FROM %s)", cmp, inner)
	case 4:
		sub = fmt.Sprintf("(SELECT COUNT(*) FROM %s) %s %d", inner, []string{"=", ">", "<"}[rng.Intn(3)], rng.Intn(3))
	case 5:
		sub = fmt.Sprintf("%s IN (SELECT i.v FROM %s)", cmp, inner)
	default:
		sub = fmt.Sprintf("%s NOT IN (SELECT i.v FROM %s)", cmp, inner)
	}
	conjs = append(conjs, sub)
	rng.Shuffle(len(conjs), func(x, y int) { conjs[x], conjs[y] = conjs[y], conjs[x] })
	where := " WHERE " + strings.Join(conjs, " AND ")
	switch rng.Intn(3) {
	case 0:
		return "SELECT o.k, o.v, o.s FROM " + from + where
	case 1:
		return "SELECT o.s, COUNT(*), SUM(o.v) FROM " + from + where + " GROUP BY o.s"
	}
	return "SELECT COUNT(*), MIN(o.k), MAX(o.f) FROM " + from + where
}

// TestRandomizedCorrelatedSubqueries cross-checks correlated subqueries
// run for their outer keys against the baseline on random data, under
// every engine configuration.
func TestRandomizedCorrelatedSubqueries(t *testing.T) {
	for _, tc := range engineConfigs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(66))
			for round := 0; round < 20; round++ {
				cat := corrCatalog(rng)
				g, err := tag.Build(cat, tag.MaterializeAll)
				if err != nil {
					t.Fatal(err)
				}
				ex := NewSession(g, tc.opts)
				ref := baseline.New(cat)
				for qi := 0; qi < 12; qi++ {
					q := corrQuery(rng)
					got, err1 := ex.Query(q)
					want, err2 := ref.Query(q)
					if err1 != nil || err2 != nil {
						t.Fatalf("round %d q %d errors: tag=%v base=%v\nquery: %s", round, qi, err1, err2, q)
					}
					if !relation.EqualMultiset(got, want) {
						onlyG, onlyW := relation.DiffMultiset(got, want, 4)
						t.Fatalf("round %d mismatch (%d vs %d rows)\nquery: %s\nonly TAG: %v\nonly base: %v",
							round, got.Len(), want.Len(), q, onlyG, onlyW)
					}
				}
			}
		})
	}
}
