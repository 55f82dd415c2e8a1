package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// compileRoot compiles the root block of query on a fresh session.
func compileRoot(t *testing.T, cat *relation.Catalog, query string) *compiled {
	t.Helper()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	an, err := sql.AnalyzeString(cat, query)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSession(g, bsp.Options{Workers: 1})
	ex.corrCache = map[*sql.Select]*corrMemo{}
	ex.decorr = map[*sql.Select]*decorrTable{}
	c, err := ex.compileBlock(an, an.Root)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// impliedFilters returns, per alias, the pushed filters that are not
// conjuncts of the WHERE clause: the restrictions the compiler derived.
func impliedFilters(c *compiled) map[string][]*predicate {
	where := sql.SplitConjuncts(c.blk.Sel.Where)
	out := map[string][]*predicate{}
	for _, a := range c.sortAliases() {
		for _, p := range c.filters[a] {
			if !slices.Contains(where, p.expr) {
				out[a] = append(out[a], p)
			}
		}
	}
	return out
}

// TestImpliedRestrictionsPushed pins which aliases an OR across aliases
// restricts at their vertices: q19's arms constrain both lineitem and
// part, q7's both nations, and in (a.a = 1 AND b.c = 2) OR a.a = 3 only
// a is constrained by every arm. The residual OR stays, and the derived
// restriction is new nodes over the original, unmodified subtrees.
func TestImpliedRestrictionsPushed(t *testing.T) {
	cat := tpch.Generate(0.01, 2021)
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{"q7", []string{"n1", "n2"}},
		{"q19", []string{"lineitem", "part"}},
	} {
		qs := tpch.Queries()
		i := slices.IndexFunc(qs, func(q tpch.Query) bool { return q.ID == tc.id })
		c := compileRoot(t, cat, qs[i].SQL)
		got := impliedFilters(c)
		if keys := sortedKeys(got); !slices.Equal(keys, tc.want) {
			t.Errorf("%s: implied restrictions on %v, want %v", tc.id, keys, tc.want)
		}
		if len(c.residual) == 0 {
			t.Errorf("%s: the OR left the residual", tc.id)
		}
	}

	c := compileRoot(t, randCatalog(rand.New(rand.NewSource(1))),
		"SELECT a.a FROM t0 a, t1 b WHERE a.b = b.b AND ((a.a = 1 AND b.c = 2) OR a.a = 3)")
	got := impliedFilters(c)
	if keys := sortedKeys(got); !slices.Equal(keys, []string{"a"}) || len(got["a"]) != 1 {
		t.Fatalf("implied restrictions %v, want one on a", got)
	}
	or := c.blk.Sel.Where.(*sql.Binary).R.(*sql.Binary)
	arm1 := or.L.(*sql.Binary)
	r, ok := got["a"][0].expr.(*sql.Binary)
	if !ok || r.Op != "OR" || r.L != arm1.L || r.R != or.R {
		t.Errorf("restriction on a is not (a.a = 1) OR (a.a = 3) over the original nodes: %#v", got["a"][0].expr)
	}
	if arm1.Op != "AND" || or.Op != "OR" || len(c.residual) != 1 || c.residual[0].expr != or {
		t.Errorf("the residual OR was changed or moved")
	}
}
