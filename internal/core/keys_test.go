package core

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/relation"
	"repro/internal/tag"
)

// renderRows renders a result as sorted "[v1 v2 ...]" rows, quoting
// strings so that separator bytes inside them stay visible.
func renderRows(r *relation.Relation) []string {
	out := make([]string, 0, r.Len())
	for _, t := range r.Tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			if v.Kind == relation.KindString {
				parts[i] = strconv.Quote(v.S)
			} else {
				parts[i] = v.String()
			}
		}
		out = append(out, "["+strings.Join(parts, " ")+"]")
	}
	slices.Sort(out)
	return out
}

// checkBothEngines runs query on TAG-join and on the baseline engine and
// checks each against the hand-written sorted rows.
func checkBothEngines(t *testing.T, cat *relation.Catalog, query string, want []string) {
	t.Helper()
	got, err := newExec(t, cat).Query(query)
	if err != nil {
		t.Fatalf("TAG %q: %v", query, err)
	}
	ref, err := baseline.New(cat).Query(query)
	if err != nil {
		t.Fatalf("baseline %q: %v", query, err)
	}
	for _, e := range []struct {
		name string
		r    *relation.Relation
	}{{"TAG", got}, {"baseline", ref}} {
		if rows := renderRows(e.r); !slices.Equal(rows, want) {
			t.Errorf("%s %q:\n got %q\nwant %q", e.name, query, rows, want)
		}
	}
}

// TestKeySemanticsPinned pins what grouping, DISTINCT and equi-joins
// treat as one key on a FLOAT column: every NaN is one group, -0 and 0
// are one group (the first seen value names it), and 2.0 joins INT 2.
func TestKeySemanticsPinned(t *testing.T) {
	cat := relation.NewCatalog()
	fl := relation.New("fl", relation.MustSchema(
		relation.Col("f", relation.KindFloat),
		relation.Col("x", relation.KindInt)))
	nan := math.NaN()
	for i, f := range []float64{nan, nan, math.Copysign(0, -1), 0, 2, 2.5} {
		fl.MustAppend(relation.Float(f), relation.Int(int64(i)))
	}
	ik := relation.New("ik", relation.MustSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("y", relation.KindInt)))
	ik.MustAppend(relation.Int(2), relation.Int(20))
	ik.MustAppend(relation.Int(0), relation.Int(10))
	cat.MustAdd(fl)
	cat.MustAdd(ik)

	checkBothEngines(t, cat, "SELECT f, COUNT(*), SUM(x) FROM fl GROUP BY f",
		[]string{"[-0 2 5]", "[2 1 4]", "[2.5 1 5]", "[NaN 2 1]"})
	checkBothEngines(t, cat, "SELECT DISTINCT f FROM fl",
		[]string{"[-0]", "[2.5]", "[2]", "[NaN]"})
	checkBothEngines(t, cat, "SELECT f, k, x FROM fl, ik WHERE f = k",
		[]string{"[-0 0 2]", "[0 0 3]", "[2 2 4]"})
	checkBothEngines(t, cat, "SELECT y, COUNT(*), SUM(x) FROM fl, ik WHERE f = k GROUP BY y",
		[]string{"[10 2 5]", "[20 1 4]"})
	checkBothEngines(t, cat, "SELECT a.x, b.x FROM fl a, fl b WHERE a.f = b.f AND a.x < 2",
		[]string{"[0 0]", "[0 1]", "[1 0]", "[1 1]"})
	checkBothEngines(t, cat, "SELECT COUNT(DISTINCT f), COUNT(f) FROM fl",
		[]string{"[4 6]"})
}

// TestNaNComparison pins SQL comparison on a FLOAT column holding NaN:
// NaN sorts above every number and equals only NaN, so =, IN and
// BETWEEN drop NaN rows, > keeps them, and MIN and MAX, per group and
// over a join whose partials merge at vertices in worker order, give
// one answer. Both engines, under every engine configuration. (The
// dialect has no ORDER BY; relation's TestCompareIsTotalWithNaN pins the
// sort order.)
func TestNaNComparison(t *testing.T) {
	cat := relation.NewCatalog()
	fl := relation.New("fl", relation.MustSchema(
		relation.Col("f", relation.KindFloat),
		relation.Col("g", relation.KindInt),
		relation.Col("x", relation.KindInt)))
	nan := math.NaN()
	for i, f := range []float64{5, nan, 7, nan, 1.5, nan, 5, 2} {
		fl.MustAppend(relation.Float(f), relation.Int(int64(i%3)), relation.Int(int64(i)))
	}
	fl.MustAppend(relation.Null, relation.Int(1), relation.Int(8))
	fl.MustAppend(relation.Float(nan), relation.Int(3), relation.Int(9))
	gs := relation.New("gs", relation.MustSchema(
		relation.Col("g", relation.KindInt),
		relation.Col("y", relation.KindInt)))
	for g := range 4 {
		gs.MustAppend(relation.Int(int64(g)), relation.Int(int64(10*g)))
		gs.MustAppend(relation.Int(int64(g)), relation.Int(int64(10*g+1)))
	}
	cat.MustAdd(fl)
	cat.MustAdd(gs)
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT x FROM fl WHERE f = 5", []string{"[0]", "[6]"}},
		{"SELECT x FROM fl WHERE f <> 5", []string{"[1]", "[2]", "[3]", "[4]", "[5]", "[7]", "[9]"}},
		{"SELECT x FROM fl WHERE f IN (5, 7)", []string{"[0]", "[2]", "[6]"}},
		{"SELECT x FROM fl WHERE f NOT IN (5, 7)", []string{"[1]", "[3]", "[4]", "[5]", "[7]", "[9]"}},
		{"SELECT x FROM fl WHERE f BETWEEN 5 AND 5", []string{"[0]", "[6]"}},
		{"SELECT x FROM fl WHERE f BETWEEN 2 AND 7", []string{"[0]", "[2]", "[6]", "[7]"}},
		{"SELECT x FROM fl WHERE f > 6", []string{"[1]", "[2]", "[3]", "[5]", "[9]"}},
		{"SELECT x FROM fl WHERE f < 6", []string{"[0]", "[4]", "[6]", "[7]"}},
		{"SELECT MIN(f), MAX(f) FROM fl", []string{"[1.5 NaN]"}},
		{"SELECT g, MIN(f), MAX(f) FROM fl GROUP BY g", []string{"[0 5 NaN]", "[1 1.5 NaN]", "[2 7 NaN]", "[3 NaN NaN]"}},
		{"SELECT MIN(fl.f), MAX(fl.f) FROM fl, gs WHERE fl.g = gs.g AND gs.y < 20", []string{"[1.5 NaN]"}},
		{"SELECT gs.y, MIN(fl.f), MAX(fl.f) FROM fl, gs WHERE fl.g = gs.g GROUP BY gs.y",
			[]string{"[0 5 NaN]", "[1 5 NaN]", "[10 1.5 NaN]", "[11 1.5 NaN]", "[20 7 NaN]", "[21 7 NaN]", "[30 NaN NaN]", "[31 NaN NaN]"}},
	}
	ref := baseline.New(cat)
	for _, tc := range cases {
		want, err := ref.Query(tc.sql)
		if err != nil {
			t.Fatalf("baseline %q: %v", tc.sql, err)
		}
		if rows := renderRows(want); !slices.Equal(rows, tc.want) {
			t.Errorf("baseline %q:\n got %q\nwant %q", tc.sql, rows, tc.want)
		}
		for _, ec := range engineConfigs {
			got, err := NewSession(g, ec.opts).Query(tc.sql)
			if err != nil {
				t.Fatalf("TAG %s %q: %v", ec.name, tc.sql, err)
			}
			if rows := renderRows(got); !slices.Equal(rows, tc.want) {
				t.Errorf("TAG %s %q:\n got %q\nwant %q", ec.name, tc.sql, rows, tc.want)
			}
		}
	}
}

// floatKeyCatalog holds FLOAT join keys with every identity case: NaN
// (several cells), -0.0 against 0.0, 2.0 against INT 2, and 2.5. Every
// column repeats its values, so every join is many to many.
func floatKeyCatalog() *relation.Catalog {
	cat := relation.NewCatalog()
	nan := math.NaN()
	add := func(name, col string, kind relation.Kind, rows [][2]relation.Value) {
		r := relation.New(name, relation.MustSchema(
			relation.Col("id", relation.KindInt),
			relation.Col("a", relation.KindInt),
			relation.Col(col, kind)))
		for i, row := range rows {
			r.MustAppend(relation.Int(int64(i)), row[0], row[1])
		}
		cat.MustAdd(r)
	}
	f, i := relation.Float, relation.Int
	add("p", "f", relation.KindFloat, [][2]relation.Value{
		{i(1), f(nan)}, {i(2), f(nan)}, {i(1), f(math.Copysign(0, -1))}, {i(2), f(2)},
		{i(1), f(2.5)}, {i(1), f(nan)}, {i(2), relation.Null},
	})
	add("q", "f", relation.KindFloat, [][2]relation.Value{
		{i(1), f(nan)}, {i(1), f(0)}, {i(2), f(nan)}, {i(2), f(2.5)}, {i(1), f(2)},
	})
	add("r", "k", relation.KindInt, [][2]relation.Value{
		{i(1), i(2)}, {i(2), i(0)}, {i(1), i(1)}, {i(2), i(2)}, {i(1), i(1)}, {i(2), relation.Null},
	})
	return cat
}

// TestFloatJoinKeys checks TAG-join against the baseline on FLOAT join
// keys under every engine configuration: a NaN joins every NaN, -0.0
// joins 0.0, 2.0 joins INT 2, and 2.5 only 2.5. The keys are decided
// once (relation.Ident), so the attribute vertices, the reduction's
// carried sets, the collection's class agreement, the cycle pre-pass
// and DISTINCT all agree with the baseline's hash keys.
func TestFloatJoinKeys(t *testing.T) {
	cat := floatKeyCatalog()
	policies := map[string]tag.Policy{"all": tag.MaterializeAll, "default": tag.DefaultPolicy}
	cases := []struct {
		name, policy, sql string
	}{
		{"one-class", "all", "SELECT p.id, q.id FROM p, q WHERE p.f = q.f"},
		{"one-class-int", "all", "SELECT p.id, r.id FROM p, r WHERE p.f = r.k"},
		{"two-class-edge", "all", "SELECT p.id, q.id FROM p, q WHERE p.a = q.a AND p.f = q.f"},
		{"two-class-edge", "default", "SELECT p.id, q.id FROM p, q WHERE p.a = q.a AND p.f = q.f"},
		{"triangle", "all", "SELECT p.id, q.id, r.id FROM p, q, r WHERE p.a = r.a AND r.k = q.a AND q.f = p.f"},
		{"count-distinct", "all", "SELECT COUNT(DISTINCT f), COUNT(f) FROM p"},
		{"count-distinct-grouped", "default", "SELECT a, COUNT(DISTINCT f), SUM(DISTINCT f) FROM p GROUP BY a"},
		{"count-distinct-joined", "all", "SELECT COUNT(DISTINCT q.f) FROM p, q WHERE p.a = q.a"},
	}
	ref := baseline.New(cat)
	for _, pol := range []string{"all", "default"} {
		g, err := tag.Build(cat, policies[pol])
		if err != nil {
			t.Fatal(err)
		}
		for _, ec := range engineConfigs {
			ex := NewSession(g, ec.opts)
			for _, tc := range cases {
				if tc.policy != pol {
					continue
				}
				t.Run(tc.name+"/"+pol+"/"+ec.name, func(t *testing.T) {
					want, err := ref.Query(tc.sql)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ex.Query(tc.sql)
					if err != nil {
						t.Fatal(err)
					}
					if !relation.EqualMultiset(got, want) {
						onlyG, onlyW := relation.DiffMultiset(got, want, 4)
						t.Fatalf("%d rows, baseline %d\nonly TAG: %v\nonly baseline: %v", got.Len(), want.Len(), onlyG, onlyW)
					}
				})
			}
		}
	}
}

// TestKeysContainingSeparatorBytes checks that composite keys are
// injective: two rows whose string columns differ only in where a 0x1f
// byte splits them are distinct groups, distinct DISTINCT rows and
// distinct join keys in both engines, and distinct tuples to the
// multiset oracle.
func TestKeysContainingSeparatorBytes(t *testing.T) {
	cat := relation.NewCatalog()
	tt := relation.New("t", relation.MustSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("a", relation.KindString),
		relation.Col("b", relation.KindString),
		relation.Col("x", relation.KindInt)))
	tt.MustAppend(relation.Int(1), relation.Str("p\x1f3q"), relation.Str("r"), relation.Int(1))
	tt.MustAppend(relation.Int(1), relation.Str("p"), relation.Str("q\x1f3r"), relation.Int(2))
	u := relation.New("u", relation.MustSchema(
		relation.Col("a", relation.KindString),
		relation.Col("b", relation.KindString)))
	u.MustAppend(relation.Str("p\x1f3q"), relation.Str("r"))
	cat.MustAdd(tt)
	cat.MustAdd(u)

	checkBothEngines(t, cat, "SELECT a, b, SUM(x) FROM t GROUP BY a, b",
		[]string{`["p" "q\x1f3r" 2]`, `["p\x1f3q" "r" 1]`})
	checkBothEngines(t, cat, "SELECT DISTINCT a, b FROM t",
		[]string{`["p" "q\x1f3r"]`, `["p\x1f3q" "r"]`})
	checkBothEngines(t, cat, "SELECT COUNT(*) FROM t, u WHERE t.a = u.a AND t.b = u.b",
		[]string{"[1]"})
	checkBothEngines(t, cat, "SELECT t.a, t.b, SUM(x) FROM t, u WHERE t.a = u.a AND t.b = u.b GROUP BY t.a, t.b",
		[]string{`["p\x1f3q" "r" 1]`})

	// The (k, a, b) prefixes of the two t rows.
	one := relation.New("one", u.Schema)
	one.Tuples = []relation.Tuple{tt.Tuples[0][:3]}
	two := relation.New("two", u.Schema)
	two.Tuples = []relation.Tuple{tt.Tuples[1][:3]}
	if relation.EqualMultiset(one, two) {
		t.Errorf("EqualMultiset treats %q and %q as one tuple", renderRows(one), renderRows(two))
	}
}

// TestKeyIndexMatchesLinearScan grows a list of distinct one- and
// two-value keys past the linear threshold, drawing values whose keys
// coincide across kinds (2 and 2.0, -0 and 0, TRUE and 1, NaNs) or whose
// strings hold the separator byte, and checks every lookup against a
// linear scan with tuplesEqual.
func TestKeyIndexMatchesLinearScan(t *testing.T) {
	pool := []relation.Value{
		relation.Null, relation.Int(0), relation.Int(1), relation.Int(2),
		relation.Float(2), relation.Float(2.5), relation.Float(math.Copysign(0, -1)),
		relation.Float(math.NaN()), relation.Float(math.Inf(1)), relation.Bool(true),
		relation.Str("p\x1f3q"), relation.Str("p"), relation.Str(""), relation.Date(2),
	}
	rng := rand.New(rand.NewSource(3))
	for _, width := range []int{1, 2} {
		var index keyIndex
		var keys [][]relation.Value
		keyAt := func(i int) []relation.Value { return keys[i] }
		for n := 0; n < 400; n++ {
			key := make([]relation.Value, width)
			for i := range key {
				key[i] = pool[rng.Intn(len(pool))]
			}
			want := slices.IndexFunc(keys, func(k []relation.Value) bool { return tuplesEqual(k, key) })
			if got := index.find(len(keys), keyAt, key); got != want {
				t.Fatalf("width %d, %d keys: find(%v) = %d, linear scan %d", width, len(keys), key, got, want)
			}
			if want < 0 {
				keys = append(keys, key)
			}
		}
		if len(keys) <= linearKeys {
			t.Fatalf("width %d: only %d distinct keys, the hashed index never ran", width, len(keys))
		}
	}
}
