package sql

import (
	"testing"

	"repro/internal/relation"
)

func TestCloneSelectIsDeep(t *testing.T) {
	orig := MustParse(`SELECT a, COUNT(*) FROM r WHERE a > 1 AND b IN (SELECT b FROM s)
		GROUP BY a HAVING COUNT(*) > 2 UNION ALL SELECT a, 0 FROM r`)
	cl := CloneSelect(orig)

	// Mutate the clone's resolved fields; the original must not change.
	cl.Items[0].Expr.(*ColRef).Alias = "mutated"
	cl.Where.(*Binary).L.(*Binary).Op = "<"
	cl.Union.Items[0].Expr.(*ColRef).Column = "zzz"

	if orig.Items[0].Expr.(*ColRef).Alias == "mutated" {
		t.Error("clone shares item exprs")
	}
	if orig.Where.(*Binary).L.(*Binary).Op != ">" {
		t.Error("clone shares where exprs")
	}
	if orig.Union.Items[0].Expr.(*ColRef).Column == "zzz" {
		t.Error("clone shares union arm")
	}
	// Subquery Selects are distinct objects too.
	origSub := SubSelects(orig.Where)[0]
	clSub := SubSelects(cl.Where)[0]
	if origSub == clSub {
		t.Error("clone shares subquery Select")
	}
}

func TestCloneExprCoversAllNodes(t *testing.T) {
	exprs := []Expr{
		&Literal{Val: relation.Int(1)},
		&ColRef{Column: "a"},
		&AggRef{Slot: 2},
		&Unary{Op: "NOT", X: &Literal{Val: relation.Bool(true)}},
		&Between{X: &ColRef{Column: "a"}, Lo: &Literal{}, Hi: &Literal{}},
		&InList{X: &ColRef{Column: "a"}, List: []Expr{&Literal{}}},
		&Like{X: &ColRef{Column: "a"}, Pattern: "x%"},
		&IsNull{X: &ColRef{Column: "a"}},
		&Case{Whens: []When{{Cond: &Literal{}, Then: &Literal{}}}, Else: &Literal{}},
		&FuncCall{Name: "YEAR", Args: []Expr{&ColRef{Column: "d"}}},
		&ScalarSubquery{Sub: MustParse("SELECT 1 FROM r")},
		&Exists{Sub: MustParse("SELECT 1 FROM r"), Not: true},
		&InSubquery{X: &ColRef{Column: "a"}, Sub: MustParse("SELECT 1 FROM r")},
	}
	for _, e := range exprs {
		cl := CloneExpr(e)
		if cl == nil {
			t.Errorf("clone of %T is nil", e)
		}
		if cl == e {
			t.Errorf("clone of %T aliases the original", e)
		}
	}
	if CloneExpr(nil) != nil {
		t.Error("clone of nil should be nil")
	}
}

func TestAliasesOfDescendsSubqueries(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat,
		"SELECT r.a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.a = r.a AND s.c > 0)")
	if err != nil {
		t.Fatal(err)
	}
	conj := an.Root.Sel.Where
	refs := AliasesOf(an, conj, 0)
	if !refs["r"] {
		t.Errorf("correlated outer ref not attributed to current block: %v", refs)
	}
	if refs["s"] {
		t.Errorf("subquery-local alias leaked into current block: %v", refs)
	}
}

func TestBlockIsCorrelated(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat,
		"SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.a = r.a) AND a IN (SELECT a FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	conjs := SplitConjuncts(an.Root.Sel.Where)
	corr := an.Blocks[conjs[0].(*Exists).Sub]
	uncorr := an.Blocks[conjs[1].(*InSubquery).Sub]
	if !BlockIsCorrelated(an, corr) {
		t.Error("EXISTS block should be correlated")
	}
	if BlockIsCorrelated(an, uncorr) {
		t.Error("IN block should not be correlated")
	}
	if BlockIsCorrelated(an, an.Root) {
		t.Error("root block is never correlated")
	}
}

func TestOuterRefs(t *testing.T) {
	cat := testCatalog()
	an, err := AnalyzeString(cat,
		"SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.a = r.a AND s.c > r.a)")
	if err != nil {
		t.Fatal(err)
	}
	sub := an.Blocks[an.Root.Sel.Where.(*Exists).Sub]
	refs := OuterRefs(an, sub)
	if len(refs) != 2 {
		t.Fatalf("outer refs = %d, want 2", len(refs))
	}
	for _, r := range refs {
		if r.Alias != "r" || r.Column != "a" {
			t.Errorf("outer ref = %+v", r)
		}
	}

	// A reference two scopes out is one of the inner block's too.
	an, err = AnalyzeString(cat, `SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s
		WHERE EXISTS (SELECT 1 FROM s s2 WHERE s2.a = r.a AND s2.c = s.c))`)
	if err != nil {
		t.Fatal(err)
	}
	mid := an.Blocks[an.Root.Sel.Where.(*Exists).Sub]
	inner := an.Blocks[mid.Sel.Where.(*Exists).Sub]
	var got []string
	for _, r := range OuterRefs(an, inner) {
		got = append(got, r.Alias+"."+r.Column)
	}
	if len(got) != 2 || got[0] != "r.a" || got[1] != "s.c" {
		t.Errorf("inner outer refs = %v, want [r.a s.c]", got)
	}
}

func TestSubSelectsFindsAllForms(t *testing.T) {
	s := MustParse(`SELECT (SELECT 1 FROM r) FROM r
		WHERE EXISTS (SELECT 1 FROM s) AND a IN (SELECT a FROM s)
		AND CASE WHEN b = 'x' THEN a ELSE (SELECT 2 FROM s) END > 0`)
	n := len(SubSelects(s.Items[0].Expr)) + len(SubSelects(s.Where))
	if n != 4 {
		t.Errorf("subselects = %d, want 4", n)
	}
}
