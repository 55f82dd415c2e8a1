package sql

import (
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// evalExpr parses "SELECT <expr> FROM r" against a one-table catalog and
// evaluates it under the supplied row.
func evalExpr(t *testing.T, exprSQL string, row relation.Tuple) relation.Value {
	t.Helper()
	cat := testCatalog()
	an, err := AnalyzeString(cat, "SELECT "+exprSQL+" FROM r")
	if err != nil {
		t.Fatalf("analyze %q: %v", exprSQL, err)
	}
	env := &Env{
		Binding: Binding{"r.a": 0, "r.b": 1, "r.d": 2},
		Row:     row,
	}
	v, err := Eval(an.Root.Sel.Items[0].Expr, env, nil)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSQL, err)
	}
	return v
}

func TestEvalArithmeticAndComparison(t *testing.T) {
	row := relation.Tuple{relation.Int(7), relation.Str("abc"), relation.DateOf(2020, 6, 15)}
	cases := []struct {
		expr string
		want relation.Value
	}{
		{"a + 1", relation.Int(8)},
		{"a - 10", relation.Int(-3)},
		{"a * 2", relation.Int(14)},
		{"a / 2", relation.Float(3.5)},
		{"-a", relation.Int(-7)},
		{"a = 7", relation.Bool(true)},
		{"a <> 7", relation.Bool(false)},
		{"a < 10 AND a > 5", relation.Bool(true)},
		{"a < 5 OR a > 6", relation.Bool(true)},
		{"NOT a = 7", relation.Bool(false)},
		{"a BETWEEN 5 AND 10", relation.Bool(true)},
		{"a NOT BETWEEN 5 AND 10", relation.Bool(false)},
		{"a IN (1, 7, 9)", relation.Bool(true)},
		{"a NOT IN (1, 7, 9)", relation.Bool(false)},
		{"b LIKE 'a%'", relation.Bool(true)},
		{"b LIKE '%b%'", relation.Bool(true)},
		{"b LIKE 'a_c'", relation.Bool(true)},
		{"b NOT LIKE 'z%'", relation.Bool(true)},
		{"b || 'd'", relation.Str("abcd")},
		{"a IS NULL", relation.Bool(false)},
		{"a IS NOT NULL", relation.Bool(true)},
		{"YEAR(d)", relation.Int(2020)},
		{"MONTH(d)", relation.Int(6)},
		{"DAY(d)", relation.Int(15)},
		{"CASE WHEN a > 5 THEN 'big' ELSE 'small' END", relation.Str("big")},
		{"CASE WHEN a > 50 THEN 'big' END", relation.Null},
		{"d + 10 > d", relation.Bool(true)},
	}
	for _, c := range cases {
		if got := evalExpr(t, c.expr, row); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	row := relation.Tuple{relation.Null, relation.Null, relation.Null}
	cases := []struct {
		expr string
		want relation.Value
	}{
		{"a = 1", relation.Null},
		{"a = 1 AND 1 = 1", relation.Null},
		{"a = 1 AND 1 = 2", relation.Bool(false)},
		{"a = 1 OR 1 = 1", relation.Bool(true)},
		{"a = 1 OR 1 = 2", relation.Null},
		{"NOT a = 1", relation.Null},
		{"a IS NULL", relation.Bool(true)},
		{"a + 1", relation.Null},
		{"a IN (1, 2)", relation.Null},
		{"a BETWEEN 1 AND 2", relation.Null},
		{"b LIKE 'x%'", relation.Null},
		{"5 IN (1, a)", relation.Null}, // no match but NULL present
		{"1 IN (1, a)", relation.Bool(true)},
	}
	for _, c := range cases {
		if got := evalExpr(t, c.expr, row); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"abc", "a%c%", true},
		{"special offer", "%special%offer%", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestMatchLikePrefixProperty(t *testing.T) {
	f := func(s string) bool {
		return MatchLike(s, "%") && MatchLike(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalCorrelatedOuterRef(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat, "SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.a = r.a)")
	if err != nil {
		t.Fatal(err)
	}
	ex := an.Root.Sel.Where.(*Exists)
	cmp := ex.Sub.Where.(*Binary)

	outerEnv := &Env{Binding: Binding{"r.a": 0}, Row: relation.Tuple{relation.Int(42)}}
	innerEnv := &Env{Binding: Binding{"s.a": 0}, Row: relation.Tuple{relation.Int(42)}, Parent: outerEnv}
	v, err := Eval(cmp, innerEnv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != relation.Bool(true) {
		t.Errorf("correlated compare = %v", v)
	}
}

func TestEvalSubqueryCallback(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat, "SELECT a FROM r WHERE a IN (SELECT a FROM s) AND EXISTS (SELECT 1 FROM s) AND a > (SELECT c FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	subResult := relation.New("sub", relation.MustSchema(relation.Col("a", relation.KindInt)))
	subResult.MustAppend(relation.Int(5))
	subq := func(sub *Select, env *Env) (*relation.Relation, error) {
		return subResult, nil
	}
	env := &Env{Binding: Binding{"r.a": 0}, Row: relation.Tuple{relation.Int(5)}}
	conjs := SplitConjuncts(an.Root.Sel.Where)
	if v, _ := Eval(conjs[0], env, subq); v != relation.Bool(true) {
		t.Errorf("IN subquery = %v", v)
	}
	if v, _ := Eval(conjs[1], env, subq); v != relation.Bool(true) {
		t.Errorf("EXISTS = %v", v)
	}
	if v, _ := Eval(conjs[2], env, subq); v != relation.Bool(false) {
		t.Errorf("scalar compare = %v", v)
	}
}

func TestAggregator(t *testing.T) {
	sum := NewAggregator(&FuncCall{Name: "SUM"})
	avg := NewAggregator(&FuncCall{Name: "AVG"})
	cnt := NewAggregator(&FuncCall{Name: "COUNT"})
	cntStar := NewAggregator(&FuncCall{Name: "COUNT", Star: true})
	mn := NewAggregator(&FuncCall{Name: "MIN"})
	mx := NewAggregator(&FuncCall{Name: "MAX"})
	dcnt := NewAggregator(&FuncCall{Name: "COUNT", Distinct: true})

	vals := []relation.Value{relation.Int(3), relation.Int(1), relation.Null, relation.Int(3)}
	for _, v := range vals {
		sum.Observe(v)
		avg.Observe(v)
		cnt.Observe(v)
		cntStar.Observe(v)
		mn.Observe(v)
		mx.Observe(v)
		dcnt.Observe(v)
	}
	if sum.Result() != relation.Int(7) {
		t.Errorf("SUM = %v", sum.Result())
	}
	if avg.Result() != relation.Float(7.0/3.0) {
		t.Errorf("AVG = %v", avg.Result())
	}
	if cnt.Result() != relation.Int(3) {
		t.Errorf("COUNT = %v (NULL must be skipped)", cnt.Result())
	}
	if cntStar.Result() != relation.Int(4) {
		t.Errorf("COUNT(*) = %v", cntStar.Result())
	}
	if mn.Result() != relation.Int(1) || mx.Result() != relation.Int(3) {
		t.Errorf("MIN/MAX = %v/%v", mn.Result(), mx.Result())
	}
	if dcnt.Result() != relation.Int(2) {
		t.Errorf("COUNT(DISTINCT) = %v", dcnt.Result())
	}
}

func TestAggregatorMerge(t *testing.T) {
	a := NewAggregator(&FuncCall{Name: "SUM"})
	b := NewAggregator(&FuncCall{Name: "SUM"})
	a.Observe(relation.Int(1))
	b.Observe(relation.Int(2))
	b.Observe(relation.Int(3))
	a.Merge(b)
	if a.Result() != relation.Int(6) {
		t.Errorf("merged SUM = %v", a.Result())
	}
	empty := NewAggregator(&FuncCall{Name: "SUM"})
	a.Merge(empty)
	if a.Result() != relation.Int(6) {
		t.Errorf("merge with empty = %v", a.Result())
	}
	mn := NewAggregator(&FuncCall{Name: "MIN"})
	mn2 := NewAggregator(&FuncCall{Name: "MIN"})
	mn.Observe(relation.Int(5))
	mn2.Observe(relation.Int(2))
	mn.Merge(mn2)
	if mn.Result() != relation.Int(2) {
		t.Errorf("merged MIN = %v", mn.Result())
	}
}

func TestRewriteAggregates(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat, "SELECT SUM(a) + COUNT(*) * 2 FROM r")
	if err != nil {
		t.Fatal(err)
	}
	orig := an.Root.Sel.Items[0].Expr
	slots := map[*FuncCall]int{}
	rewritten := RewriteAggregates(orig, func(f *FuncCall) int {
		if s, ok := slots[f]; ok {
			return s
		}
		s := len(slots)
		slots[f] = s
		return s
	})
	if len(slots) != 2 {
		t.Fatalf("slots = %d", len(slots))
	}
	env := &Env{Binding: Binding{AggKey(0): 0, AggKey(1): 1}, Row: relation.Tuple{relation.Int(10), relation.Int(3)}}
	v, err := Eval(rewritten, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != relation.Int(16) {
		t.Errorf("rewritten eval = %v, want 16", v)
	}
	// Original AST is untouched.
	if _, ok := orig.(*Binary).L.(*FuncCall); !ok {
		t.Error("original tree was mutated")
	}
	// Aggregates inside the original still error.
	if _, err := Eval(orig, env, nil); err == nil {
		t.Error("aggregate outside context should error")
	}
}
