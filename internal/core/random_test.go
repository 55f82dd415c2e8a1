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
)

// randCatalog builds a random 4-table catalog with small integer domains
// (lots of join matches, duplicates and NULLs) plus a string column. A
// third of the tables hold 40-100 rows, so a column's six values are at
// most a quarter of its rows and selections can seed from the column's
// dictionary.
func randCatalog(rng *rand.Rand) *relation.Catalog {
	cat := relation.NewCatalog()
	names := []string{"t0", "t1", "t2", "t3"}
	labels := []string{"x", "y", "z"}
	for _, n := range names {
		r := relation.New(n, relation.MustSchema(
			relation.Col("a", relation.KindInt),
			relation.Col("b", relation.KindInt),
			relation.Col("c", relation.KindInt),
			relation.Col("s", relation.KindString)))
		rows := 4 + rng.Intn(24)
		if rng.Intn(3) == 0 {
			rows = 40 + rng.Intn(61)
		}
		for i := 0; i < rows; i++ {
			val := func() relation.Value {
				if rng.Intn(12) == 0 {
					return relation.Null
				}
				return relation.Int(int64(rng.Intn(6)))
			}
			r.MustAppend(val(), val(), val(), relation.Str(labels[rng.Intn(len(labels))]))
		}
		cat.MustAdd(r)
	}
	return cat
}

// randQuery builds a random supported query over the catalog.
func randQuery(rng *rand.Rand) string {
	nAliases := 1 + rng.Intn(3)
	aliases := make([]string, nAliases)
	var from []string
	for i := range aliases {
		aliases[i] = fmt.Sprintf("r%d", i)
		from = append(from, fmt.Sprintf("t%d %s", rng.Intn(4), aliases[i]))
	}
	cols := []string{"a", "b", "c"}
	col := func(i int) string { return aliases[i] + "." + cols[rng.Intn(3)] }

	var conjs []string
	// Join predicates: connect alias i to a previous alias (usually).
	for i := 1; i < nAliases; i++ {
		if rng.Intn(6) == 0 {
			continue // occasionally leave a Cartesian component
		}
		conjs = append(conjs, fmt.Sprintf("%s = %s", col(rng.Intn(i)), col(i)))
	}
	// Filters.
	for i := 0; i < rng.Intn(3); i++ {
		a := rng.Intn(nAliases)
		switch rng.Intn(14) {
		case 0:
			conjs = append(conjs, fmt.Sprintf("%s > %d", col(a), rng.Intn(4)))
		case 1:
			conjs = append(conjs, fmt.Sprintf("%s IN (%d, %d)", col(a), rng.Intn(6), rng.Intn(6)))
		case 2:
			conjs = append(conjs, fmt.Sprintf("%s.s LIKE '%s%%'", aliases[a], []string{"x", "y", "z"}[rng.Intn(3)]))
		case 3:
			conjs = append(conjs, fmt.Sprintf("%s IS NOT NULL", col(a)))
		case 4:
			conjs = append(conjs, fmt.Sprintf("%s BETWEEN %d AND %d", col(a), rng.Intn(3), 2+rng.Intn(4)))
		// Equalities a run may seed from the attribute vertex: an
		// in-domain value, an absent one, a string, and a float literal
		// against an integer column.
		case 5:
			conjs = append(conjs, fmt.Sprintf("%s = %d", col(a), rng.Intn(6)))
		case 6:
			conjs = append(conjs, fmt.Sprintf("%s = 99", col(a)))
		case 7:
			conjs = append(conjs, fmt.Sprintf("%s.s = '%s'", aliases[a], []string{"x", "y", "z"}[rng.Intn(3)]))
		case 8:
			conjs = append(conjs, fmt.Sprintf("%s.a = %d.0", aliases[a], rng.Intn(6)))
		// Ranges a run may seed from a column's dictionary: two-sided on
		// one column, true on NULL, negated, on a string, and through
		// arithmetic that compares an integer with a fractional literal.
		case 9:
			c := col(a)
			conjs = append(conjs, fmt.Sprintf("%s >= %d AND %s < %d", c, rng.Intn(4), c, 2+rng.Intn(4)))
		case 10:
			c := col(a)
			conjs = append(conjs, fmt.Sprintf("(%s < %d OR %s IS NULL)", c, rng.Intn(4), c))
		case 11:
			conjs = append(conjs, fmt.Sprintf("NOT (%s BETWEEN %d AND %d)", col(a), rng.Intn(3), 2+rng.Intn(4)))
		case 12:
			conjs = append(conjs, fmt.Sprintf("%s.s >= '%s'", aliases[a], []string{"x", "y", "z"}[rng.Intn(3)]))
		case 13:
			conjs = append(conjs, fmt.Sprintf("%s + 1 > %d.5", col(a), rng.Intn(6)))
		}
	}
	if nAliases >= 2 && rng.Intn(4) != 0 {
		conjs = append(conjs, randCrossOr(rng, aliases))
	}
	// Occasionally a subquery predicate.
	if rng.Intn(4) == 0 {
		inner := rng.Intn(4)
		a := rng.Intn(nAliases)
		switch rng.Intn(3) {
		case 0:
			conjs = append(conjs, fmt.Sprintf("EXISTS (SELECT 1 FROM t%d sub WHERE sub.a = %s)", inner, col(a)))
		case 1:
			conjs = append(conjs, fmt.Sprintf("%s IN (SELECT sub.b FROM t%d sub WHERE sub.c > 1)", col(a), inner))
		case 2:
			conjs = append(conjs, fmt.Sprintf("%s.a NOT IN (SELECT sub.c FROM t%d sub WHERE sub.c IS NOT NULL)", aliases[a], inner))
		}
	}

	where := ""
	if len(conjs) > 0 {
		where = " WHERE " + strings.Join(conjs, " AND ")
	}

	switch rng.Intn(4) {
	case 0: // plain projection
		return fmt.Sprintf("SELECT %s, %s FROM %s%s",
			col(0), col(rng.Intn(nAliases)), strings.Join(from, ", "), where)
	case 1: // DISTINCT
		return fmt.Sprintf("SELECT DISTINCT %s FROM %s%s",
			col(0), strings.Join(from, ", "), where)
	case 2: // group by + aggregates
		g := col(rng.Intn(nAliases))
		if nAliases >= 2 && rng.Intn(2) == 0 {
			// Two key columns from two aliases: a survivor's collected
			// rows can then fall into several groups, and on the local
			// path go to several attribute vertices.
			i := rng.Intn(nAliases)
			g = col(i) + ", " + col((i+1+rng.Intn(nAliases-1))%nAliases)
		}
		return fmt.Sprintf("SELECT %s, COUNT(*), SUM(%s), MIN(%s), AVG(%s), COUNT(DISTINCT %s) FROM %s%s GROUP BY %s",
			g, col(rng.Intn(nAliases)), col(rng.Intn(nAliases)), col(rng.Intn(nAliases)), col(rng.Intn(nAliases)),
			strings.Join(from, ", "), where, g)
	default: // scalar aggregation
		return fmt.Sprintf("SELECT COUNT(*), SUM(%s), MAX(%s), AVG(%s), COUNT(DISTINCT %s) FROM %s%s",
			col(rng.Intn(nAliases)), col(0), col(rng.Intn(nAliases)), col(rng.Intn(nAliases)),
			strings.Join(from, ", "), where)
	}
}

// randCrossOr builds an OR of 2-3 AND arms over two of the aliases, the
// shape each alias gets an implied restriction from. An arm may
// constrain only one of the two aliases (so nothing may be pushed to the
// other), be an IS NULL test, nest a one-alias OR, compare the two
// aliases with each other, or hold a subquery (so nothing may be pushed
// at all).
func randCrossOr(rng *rand.Rand, aliases []string) string {
	i := rng.Intn(len(aliases))
	j := (i + 1 + rng.Intn(len(aliases)-1)) % len(aliases)
	pair := [2]string{aliases[i], aliases[j]}
	col := func(a string) string { return a + "." + []string{"a", "b", "c"}[rng.Intn(3)] }
	atom := func(a string) string {
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%s = %d", col(a), rng.Intn(6))
		case 1:
			return fmt.Sprintf("%s > %d", col(a), rng.Intn(5))
		case 2:
			return fmt.Sprintf("%s IN (%d, %d)", col(a), rng.Intn(6), rng.Intn(6))
		case 3:
			return fmt.Sprintf("%s BETWEEN %d AND %d", col(a), rng.Intn(3), 1+rng.Intn(5))
		default:
			return fmt.Sprintf("%s.s = '%s'", a, []string{"x", "y", "z"}[rng.Intn(3)])
		}
	}
	var arms []string
	for k := 2 + rng.Intn(2); k > 0; k-- {
		x, y := pair[0], pair[1]
		if rng.Intn(2) == 0 {
			x, y = y, x
		}
		switch rng.Intn(7) {
		case 0, 1:
			arms = append(arms, atom(x)+" AND "+atom(y))
		case 2: // nothing on y
			arms = append(arms, atom(x))
		case 3:
			arms = append(arms, col(x)+" IS NULL")
		case 4:
			arms = append(arms, fmt.Sprintf("(%s OR %s) AND %s", atom(x), atom(x), atom(y)))
		case 5:
			arms = append(arms, fmt.Sprintf("%s < %s AND %s", col(x), col(y), atom(x)))
		default:
			if rng.Intn(4) == 0 {
				arms = append(arms, fmt.Sprintf("EXISTS (SELECT 1 FROM t%d sub WHERE sub.a = %s)", rng.Intn(4), col(x)))
			} else {
				arms = append(arms, fmt.Sprintf("%s AND %s AND %s", atom(x), atom(y), atom(x)))
			}
		}
	}
	return "(" + strings.Join(arms, " OR ") + ")"
}

// TestRandomizedDifferential cross-checks the TAG-join executor against
// the baseline engine on hundreds of randomly generated queries over
// randomly generated databases (small domains: duplicate-heavy,
// NULL-heavy, skewed), on one worker, on four with and without the
// message combiners, and across two partitions.
func TestRandomizedDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts bsp.Options
	}{
		{"workers1", bsp.Options{Workers: 1}},
		{"workers4", bsp.Options{Workers: 4}},
		{"workers4-uncombined", bsp.Options{Workers: 4, NoCombine: true}},
		{"partitions2", bsp.Options{Partitions: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) { randomizedDifferential(t, tc.opts) })
	}
}

func randomizedDifferential(t *testing.T, opts bsp.Options) {
	const rounds = 30
	const queriesPerRound = 12
	rng := rand.New(rand.NewSource(99))

	for round := 0; round < rounds; round++ {
		cat := randCatalog(rng)
		g, err := tag.Build(cat, tag.MaterializeAll)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewSession(g, opts)
		ref := baseline.New(cat)

		for qi := 0; qi < queriesPerRound; qi++ {
			q := randQuery(rng)
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
}

// TestRandomizedOuterJoins cross-checks LEFT/RIGHT/FULL joins (both the
// §7 two-way vertex program and the table-level path) against the
// baseline on random data.
func TestRandomizedOuterJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 12; round++ {
		cat := randCatalog(rng)
		g, err := tag.Build(cat, tag.MaterializeAll)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewSession(g, bsp.Options{Workers: 4})
		ref := baseline.New(cat)
		jt := []string{"LEFT JOIN", "RIGHT JOIN", "FULL JOIN"}[rng.Intn(3)]
		c1, c2 := []string{"a", "b", "c"}[rng.Intn(3)], []string{"a", "b", "c"}[rng.Intn(3)]
		q := fmt.Sprintf("SELECT l.a, l.b, r.c FROM t%d l %s t%d r ON l.%s = r.%s",
			rng.Intn(4), jt, rng.Intn(4), c1, c2)
		if rng.Intn(2) == 0 {
			// Three-way: an inner join before the outer one (table path).
			q = fmt.Sprintf("SELECT l.a, m.b, r.c FROM t%d l JOIN t%d m ON l.a = m.a %s t%d r ON m.%s = r.%s",
				rng.Intn(4), rng.Intn(4), jt, rng.Intn(4), c1, c2)
		}
		got, err1 := ex.Query(q)
		want, err2 := ref.Query(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d errors: tag=%v base=%v\nquery: %s", round, err1, err2, q)
		}
		if !relation.EqualMultiset(got, want) {
			onlyG, onlyW := relation.DiffMultiset(got, want, 4)
			t.Fatalf("round %d outer-join mismatch (%d vs %d rows)\nquery: %s\nonly TAG: %v\nonly base: %v",
				round, got.Len(), want.Len(), q, onlyG, onlyW)
		}
	}
}

// TestRandomizedSelfJoins stresses the plan-edge-keyed marking that makes
// self-joins sound.
func TestRandomizedSelfJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 10; round++ {
		cat := randCatalog(rng)
		g, err := tag.Build(cat, tag.MaterializeAll)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewSession(g, bsp.Options{Workers: 4})
		ref := baseline.New(cat)
		tbl := rng.Intn(4)
		q := fmt.Sprintf(`SELECT p.a, q.b FROM t%d p, t%d q WHERE p.b = q.b AND p.a < q.a`, tbl, tbl)
		got, err1 := ex.Query(q)
		want, err2 := ref.Query(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v %v", err1, err2)
		}
		if !relation.EqualMultiset(got, want) {
			t.Fatalf("self-join mismatch on %s: %d vs %d rows", q, got.Len(), want.Len())
		}
	}
}

// TestQueryAfterMaintenance verifies that incremental TAG inserts and
// deletes are visible to subsequent queries without rebuilding (the §3
// maintenance claim), including engine-internal growth.
func TestQueryAfterMaintenance(t *testing.T) {
	cat := shopCatalog()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSession(g, bsp.Options{Workers: 2})
	q := "SELECT cname, nname FROM cust, nation WHERE cnation = nkey"
	out, err := ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	before := out.Len()

	// Insert a customer in PERU (new attribute linkage) and re-query.
	if _, err := g.InsertTuple("cust", relation.Tuple{
		relation.Int(50), relation.Int(3), relation.Str("eve")}); err != nil {
		t.Fatal(err)
	}
	out, err = ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != before+1 {
		t.Fatalf("after insert rows = %d, want %d", out.Len(), before+1)
	}

	// Delete it again.
	verts := g.TupleVertices("cust")
	if err := g.DeleteTuple(verts[len(verts)-1]); err != nil {
		t.Fatal(err)
	}
	out, err = ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != before {
		t.Fatalf("after delete rows = %d, want %d", out.Len(), before)
	}
}
