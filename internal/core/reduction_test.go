package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

// TestLemma51FullReducer verifies the effect of the reduction phase
// directly (Lemma 5.1 / Example 5.3): after the UP+DOWN passes, the
// surviving start-alias vertices are exactly the tuples of the fully
// reduced relation — those participating in the multi-way join.
func TestLemma51FullReducer(t *testing.T) {
	cat := shopCatalog()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSession(g, bsp.Options{Workers: 2})
	an, err := sql.AnalyzeString(cat,
		"SELECT okey FROM nation, cust, ord WHERE cnation = nkey AND ocust = ckey")
	if err != nil {
		t.Fatal(err)
	}
	ex.corrCache = map[*sql.Select]*corrMemo{}
	ex.decorr = map[*sql.Select]*decorrTable{}
	c, err := ex.compileBlock(an, an.Root)
	if err != nil {
		t.Fatal(err)
	}
	comp := c.qp.Components[0]
	res, err := ex.runComponent(c, comp, nil, ex.subqueryFn(an))
	if err != nil {
		t.Fatal(err)
	}

	// The collection survivors live at the join tree root (the largest
	// relation, ord). Their keys must be the fully reduced ord tuples.
	if res.rootAlias != "ord" {
		t.Fatalf("root = %s, want ord", res.rootAlias)
	}
	var got []int64
	for _, v := range res.survivors {
		d := ex.TAG.TupleData(v)
		got = append(got, d.Row[0].AsInt())
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })

	// Reference full reduction via semijoins on the baseline engine.
	ref, err := baseline.New(cat).Query(`SELECT okey FROM ord
		WHERE EXISTS (SELECT 1 FROM cust WHERE ckey = ocust
		              AND EXISTS (SELECT 1 FROM nation WHERE nkey = cnation))`)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, row := range ref.Tuples {
		want = append(want, row[0].AsInt())
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	if len(got) != len(want) {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivors = %v, want %v", got, want)
		}
	}
}

// TestReductionEliminatesBeforeCollection checks the §4.1.2 property that
// dangling tuples never receive collection-phase tables: the number of
// collection messages is bounded by the join output side, not the input.
func TestReductionEliminatesBeforeCollection(t *testing.T) {
	cat := relation.NewCatalog()
	r := relation.New("r", relation.MustSchema(relation.Col("a", relation.KindInt)))
	s := relation.New("s", relation.MustSchema(relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt)))
	// 100 dangling R tuples, one matching pair.
	for i := 0; i < 100; i++ {
		r.MustAppend(relation.Int(int64(1000 + i)))
	}
	r.MustAppend(relation.Int(7))
	s.MustAppend(relation.Int(7), relation.Int(1))
	cat.MustAdd(r)
	cat.MustAdd(s)

	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSession(g, bsp.Options{Workers: 2})
	out, err := ex.Query("SELECT b FROM r, s WHERE r.a = s.a")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	// Reduction UP pass touches all |R| vertices once (O(IN)), but the
	// DOWN pass and collection follow marks: total messages stay well
	// under a constant multiple of IN.
	in := int64(r.Len() + s.Len())
	if msgs := ex.Stats().Messages; msgs > 4*in {
		t.Errorf("messages = %d exceed 4*IN = %d", msgs, 4*in)
	}
}

// TestEngineGrowsWithGraph is the regression test for querying after
// incremental TAG inserts grew the vertex set beyond the engine's
// original buffers.
func TestEngineGrowsWithGraph(t *testing.T) {
	cat := shopCatalog()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSession(g, bsp.Options{Workers: 2})
	if _, err := ex.Query("SELECT COUNT(*) FROM cust"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := g.InsertTuple("cust", relation.Tuple{
			relation.Int(int64(1000 + i)), relation.Int(1), relation.Str("new")}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ex.Query("SELECT COUNT(*) FROM cust")
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[0][0] != relation.Int(54) {
		t.Errorf("count after growth = %v, want 54", out.Tuples[0][0])
	}
}

// TestOuterJoinNullKeys checks that the table path NULL-extends
// preserved tuples whose join column is NULL: SQL equality joins a NULL
// key to nothing, so such a tuple matches no row and has no attribute
// edge on the join column.
func TestOuterJoinNullKeys(t *testing.T) {
	cat := relation.NewCatalog()
	l := relation.New("l", relation.MustSchema(
		relation.Col("id", relation.KindInt), relation.Col("k", relation.KindInt)))
	r := relation.New("r", relation.MustSchema(
		relation.Col("k", relation.KindInt), relation.Col("v", relation.KindString)))
	l.MustAppend(relation.Int(1), relation.Int(10))
	l.MustAppend(relation.Int(2), relation.Null) // NULL join key
	l.MustAppend(relation.Int(3), relation.Int(99))
	r.MustAppend(relation.Int(10), relation.Str("hit"))
	cat.MustAdd(l)
	cat.MustAdd(r)

	got := checkAgainstBaseline(t, cat, "SELECT id, v FROM l LEFT JOIN r ON l.k = r.k")
	if got.Len() != 3 {
		t.Fatalf("rows = %d, want 3", got.Len())
	}
	nulls := 0
	for _, row := range got.Tuples {
		if row[1].IsNull() {
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("NULL-extended rows = %d, want 2", nulls)
	}
	// FULL variant: the unmatched right side appears too (none here) and
	// the RIGHT variant drops the NULL-key left rows.
	checkAgainstBaseline(t, cat, "SELECT id, v FROM l FULL JOIN r ON l.k = r.k")
	checkAgainstBaseline(t, cat, "SELECT id, v FROM l RIGHT JOIN r ON l.k = r.k")
}

// TestCollectionPushedSelections verifies the §7 optimization of applying
// residual predicates during collection: the cross-alias OR predicate of
// a q7-style query must reduce collection traffic, not just final rows.
func TestCollectionPushedSelections(t *testing.T) {
	cat := shopCatalog()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSession(g, bsp.Options{Workers: 2})
	// Cross-alias residual: only one (nation, price) combination passes.
	q := `SELECT nname, price FROM nation, cust, ord
		WHERE cnation = nkey AND ocust = ckey
		AND ((nname = 'USA' AND price > 10) OR (nname = 'NOPE' AND price < 0))`
	got, err := ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := baseline.New(cat).Query(q)
	if !relation.EqualMultiset(got, want) {
		t.Fatalf("pushed-selection mismatch: %d vs %d rows", got.Len(), want.Len())
	}
}

// TestReductionClimbsAlongMarks runs the reduction of a 4-relation star
// whose root f is re-entered from two filtered subtrees, x and y, after
// the walk arrives from the start leaf z. f holds every combination of
// three bits (a, b, c); z keeps a = 0 (z.a = 2 dangles), x keeps b = 0
// and y keeps c = 1. So the first arrival reaches the four f tuples
// with a = 0, and the climbs back from x and y must reach only the ones
// among them that joined: f(0,0,0) and f(0,0,1), then f(0,0,1). Had the
// climbs flooded every f.b and f.c edge, x's would have reached the two
// a = 1 tuples with b = 0 too, y's the four c = 1 tuples, and the
// survivors of those floods would have sent again: 46 reduction
// messages instead of 31. z's selection z.a >= 0 keeps both its rows;
// it makes z a selected leaf with fewer seeds than x and y, so the
// reduction starts there.
func TestReductionClimbsAlongMarks(t *testing.T) {
	cat := relation.NewCatalog()
	ints := func(name string, cols []string, rows ...[]int64) {
		var cs []relation.Column
		for _, c := range cols {
			cs = append(cs, relation.Col(c, relation.KindInt))
		}
		r := relation.New(name, relation.MustSchema(cs...))
		for _, row := range rows {
			tup := make(relation.Tuple, len(row))
			for i, v := range row {
				tup[i] = relation.Int(v)
			}
			r.MustAppend(tup...)
		}
		cat.MustAdd(r)
	}
	var fRows [][]int64
	for i := int64(0); i < 8; i++ {
		fRows = append(fRows, []int64{i & 1, i >> 1 & 1, i >> 2 & 1})
	}
	ints("f", []string{"a", "b", "c"}, fRows...)
	ints("x", []string{"b", "q"}, []int64{0, 1}, []int64{1, 0}, []int64{7, 1})
	ints("y", []string{"c", "r"}, []int64{0, 0}, []int64{1, 1}, []int64{7, 0})
	ints("z", []string{"a"}, []int64{0}, []int64{2})

	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSession(g, bsp.Options{Workers: 2})
	an, err := sql.AnalyzeString(cat, `SELECT z.a FROM f, x, y, z
		WHERE f.a = z.a AND f.b = x.b AND f.c = y.c AND x.q = 1 AND y.r = 1 AND z.a >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ex.compileBlock(an, an.Root)
	if err != nil {
		t.Fatal(err)
	}
	comp := c.qp.Components[0]
	p := comp.TAGPlan
	if p.Nodes[p.Root].Alias != "f" || p.StartAlias != "z" {
		t.Fatalf("plan roots at %s and starts at %s, want f and z:\n%s", p.Nodes[p.Root].Alias, p.StartAlias, p)
	}
	r := &componentRun{ex: ex, c: c, comp: comp, prefilter: map[string]map[bsp.VertexID]bool{}}
	defer r.release()
	if err := r.resolveSteps(); err != nil {
		t.Fatal(err)
	}
	r.marks = ex.takeMarks()
	ex.ResetStats()
	survivors, err := r.runReduction(p.StartAlias)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := ex.Stats().Messages; msgs != 31 {
		t.Errorf("reduction sent %d messages, want 31", msgs)
	}

	// The start leaf's survivors are its semijoin-reduced tuples.
	var got []int64
	for _, v := range survivors {
		got = append(got, ex.TAG.TupleData(v).Row[0].AsInt())
	}
	ref, err := baseline.New(cat).Query(`SELECT z.a FROM z WHERE EXISTS (SELECT 1 FROM f WHERE f.a = z.a
		AND EXISTS (SELECT 1 FROM x WHERE x.b = f.b AND x.q = 1)
		AND EXISTS (SELECT 1 FROM y WHERE y.c = f.c AND y.r = 1))`)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, row := range ref.Tuples {
		want = append(want, row[0].AsInt())
	}
	if !slices.Equal(got, want) {
		t.Errorf("start survivors = %v, want %v", got, want)
	}

	// No f tuple the first arrival missed (a = 1) heard from a climb
	// back out of x or y: the root receives nothing in the DOWN pass, so
	// its marks on those plan edges are the climbs'.
	for _, leaf := range []string{"x", "y"} {
		i := slices.IndexFunc(p.Nodes, func(n plan.Node) bool { return n.Kind == plan.RelNode && n.Alias == leaf })
		edge := p.Nodes[i].Parent // the f-side plan edge
		for _, v := range g.TupleVertices("f") {
			if row := g.TupleData(v).Row; row[0].AsInt() != 0 && len(r.marks.edgeIDs(v, edge)) > 0 {
				t.Errorf("f%v heard from the climb out of %s", row, leaf)
			}
		}
	}
}

// selectionStarCatalog builds a fact table f of n rows over a 4-row
// dimension d and a leaf s of n/4 rows. Fact row i joins d on i % 4 and
// s on i / 4, so each s key has four fact rows; s.flag is 1 on every
// sixteenth key, so a selection on it keeps a fixed fraction of s.
func selectionStarCatalog(n int) *relation.Catalog {
	cat := relation.NewCatalog()
	d := relation.New("d", relation.MustSchema(relation.Col("id", relation.KindInt), relation.Col("name", relation.KindString)))
	for i := range 4 {
		d.MustAppend(relation.Int(int64(i)), relation.Str(fmt.Sprintf("d%d", i)))
	}
	s := relation.New("s", relation.MustSchema(relation.Col("k", relation.KindInt), relation.Col("flag", relation.KindInt)))
	for k := range n / 4 {
		flag := int64(0)
		if k%16 == 0 {
			flag = 1
		}
		s.MustAppend(relation.Int(int64(k)), relation.Int(flag))
	}
	f := relation.New("f", relation.MustSchema(relation.Col("d", relation.KindInt), relation.Col("s", relation.KindInt), relation.Col("v", relation.KindInt)))
	for i := range n {
		f.MustAppend(relation.Int(int64(i%4)), relation.Int(int64(i/4)), relation.Int(int64(i)))
	}
	cat.MustAdd(d)
	cat.MustAdd(s)
	cat.MustAdd(f)
	return cat
}

// TestReductionStartsAtSelection runs a star whose smallest leaf, the
// 4-row dimension d, has no selection, while the leaf s has one that
// keeps a sixteenth of it. The reduction starts at s, so its messages
// follow the fact rows the selection reaches (n/16), not the fact
// table: a start at d would wake all n fact rows before s's selection
// removed any, and send at least 2n messages. The collection still
// starts at d, from the reduction's survivors there, and the rows equal
// the baseline's under every engine configuration.
func TestReductionStartsAtSelection(t *testing.T) {
	const q = `SELECT d.name, f.v, s.k FROM f, d, s WHERE f.d = d.id AND f.s = s.k AND s.flag = 1`
	for _, n := range []int{512, 1024, 2048} {
		cat := selectionStarCatalog(n)
		g, err := tag.Build(cat, tag.MaterializeAll)
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.New(cat).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		reached := n / 16 // the fact rows joining a selected s key
		if want.Len() != reached {
			t.Fatalf("n=%d: the baseline answers %d rows, want %d", n, want.Len(), reached)
		}

		ex := NewSession(g, bsp.Options{Workers: 2})
		an, err := sql.AnalyzeString(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ex.compileBlock(an, an.Root)
		if err != nil {
			t.Fatal(err)
		}
		comp := c.qp.Components[0]
		p := comp.TAGPlan
		if p.Nodes[p.Root].Alias != "f" || p.StartAlias != "s" || p.CollectAlias != "d" {
			t.Fatalf("n=%d: plan roots at %s, reduces from %s and collects from %s; want f, s and d:\n%s",
				n, p.Nodes[p.Root].Alias, p.StartAlias, p.CollectAlias, p)
		}
		r := &componentRun{ex: ex, c: c, comp: comp, prefilter: map[string]map[bsp.VertexID]bool{}}
		if err := r.resolveSteps(); err != nil {
			t.Fatal(err)
		}
		r.marks = ex.takeMarks()
		ex.ResetStats()
		survivors, err := r.runReduction(p.StartAlias)
		r.release()
		if err != nil {
			t.Fatal(err)
		}
		msgs := ex.Stats().Messages
		t.Logf("n=%d: %d reduction messages for %d reached fact rows", n, msgs, reached)
		if msgs > int64(8*reached) {
			t.Errorf("n=%d: the reduction sent %d messages, over 8 per reached fact row (%d)", n, msgs, 8*reached)
		}
		// The survivors are the collection's start: all four d tuples.
		if len(survivors) != 4 || ex.TAG.TupleData(survivors[0]).Table != "d" {
			t.Errorf("n=%d: the reduction emitted %d survivors, want d's 4", n, len(survivors))
		}

		for _, ec := range engineConfigs {
			rows, err := NewSession(g, ec.opts).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.EqualMultiset(rows, want) {
				t.Errorf("n=%d %s: %d rows, baseline %d", n, ec.name, rows.Len(), want.Len())
			}
		}
	}
}

// TestSeedsAdmittedAtVertices checks that the reduction admits its start
// alias at the tuple vertices (§7 selections) and charges every seed to
// the cost measure: with a filter no seed passes, the run is one
// superstep in which each seed is visited and computes once, and no
// message is sent. The filters compare two columns, so no selection
// enters at attribute vertices and every tuple is a seed.
func TestSeedsAdmittedAtVertices(t *testing.T) {
	const n = 6
	cat := relation.NewCatalog()
	for _, name := range []string{"x", "y"} {
		r := relation.New(name, relation.MustSchema(
			relation.Col("a", relation.KindInt),
			relation.Col("b", relation.KindInt),
			relation.Col("c", relation.KindInt)))
		for i := range int64(n) {
			r.MustAppend(relation.Int(i), relation.Int(i), relation.Int(i+1))
		}
		cat.MustAdd(r)
	}
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []bsp.Options{{Workers: 1}, {Workers: 2}, {Workers: 2, Partitions: 2}} {
		ex := NewSession(g, opts)
		out, err := ex.Query("SELECT x.a FROM x, y WHERE x.a = y.a AND x.b > x.c AND y.b > y.c")
		if err != nil {
			t.Fatal(err)
		}
		st := ex.Stats()
		if out.Len() != 0 || st.Supersteps != 1 || st.ActiveVisits != n || st.ComputeOps != n || st.Messages != 0 {
			t.Errorf("%+v: %d rows, stats %v; want 0 rows, 1 superstep, %d visits, %d ops, no messages",
				opts, out.Len(), st, n, n)
		}
	}
}

// enteredSelectionCatalog builds two fixtures whose one selection
// enters at attribute vertices on a root or inner relation, keeping
// eight tuples at every n. The star: the fact f (n rows, the root) joins
// the 4-row dimension d, which has no selection, and f.v IN (eight
// values) selects eight fact rows. The chain: a (4 rows) under m (n/4
// rows) under b (n rows, the root), and m.k IN (eight keys) selects
// eight m rows, which join 32 b rows.
func enteredSelectionCatalog(n int) *relation.Catalog {
	cat := relation.NewCatalog()
	d := relation.New("d", relation.MustSchema(relation.Col("id", relation.KindInt), relation.Col("name", relation.KindString)))
	a := relation.New("a", relation.MustSchema(relation.Col("id", relation.KindInt), relation.Col("name", relation.KindString)))
	for i := range 4 {
		d.MustAppend(relation.Int(int64(i)), relation.Str(fmt.Sprintf("d%d", i)))
		a.MustAppend(relation.Int(int64(i)), relation.Str(fmt.Sprintf("a%d", i)))
	}
	f := relation.New("f", relation.MustSchema(relation.Col("d", relation.KindInt), relation.Col("v", relation.KindInt)))
	b := relation.New("b", relation.MustSchema(relation.Col("mk", relation.KindInt), relation.Col("v", relation.KindInt)))
	for i := range n {
		f.MustAppend(relation.Int(int64(i%4)), relation.Int(int64(i)))
		b.MustAppend(relation.Int(int64(i/4)), relation.Int(int64(i)))
	}
	m := relation.New("m", relation.MustSchema(relation.Col("k", relation.KindInt), relation.Col("a", relation.KindInt)))
	for k := range n / 4 {
		m.MustAppend(relation.Int(int64(k)), relation.Int(int64(k%4)))
	}
	for _, r := range []*relation.Relation{d, a, f, b, m} {
		cat.MustAdd(r)
	}
	return cat
}

// TestReductionStartsAtEnteredSelection runs the two fixtures of
// enteredSelectionCatalog, whose only selection enters at attribute
// vertices on the join tree's root (the star's f) or on an inner
// relation (the chain's m). The reduction starts there, so a run's
// messages follow the eight selected tuples and stay within 1.3x of
// their count at n = 512: a start at the unselected leaf (d, a) would
// wake every fact row, or every m row, before the selection removed
// any. The collection still starts at that leaf, and the rows equal
// the baseline's under every engine configuration.
func TestReductionStartsAtEnteredSelection(t *testing.T) {
	queries := []struct {
		name, sql             string
		root, reduce, collect string
	}{
		{"star", `SELECT d.name, f.v FROM f, d WHERE f.d = d.id AND f.v IN (3, 70, 135, 200, 265, 330, 395, 460)`, "f", "f", "d"},
		{"chain", `SELECT a.name, m.k, b.v FROM a, m, b WHERE m.a = a.id AND b.mk = m.k AND m.k IN (1, 9, 17, 25, 33, 41, 49, 57)`, "b", "m", "a"},
	}
	base := map[string]int64{}
	for _, n := range []int{512, 1024, 2048} {
		cat := enteredSelectionCatalog(n)
		g, err := tag.Build(cat, tag.MaterializeAll)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want, err := baseline.New(cat).Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewSession(g, bsp.Options{Workers: 2})
			an, err := sql.AnalyzeString(cat, q.sql)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ex.compileBlock(an, an.Root)
			if err != nil {
				t.Fatal(err)
			}
			p := c.qp.Components[0].TAGPlan
			if p.Nodes[p.Root].Alias != q.root || p.StartAlias != q.reduce || p.CollectAlias != q.collect {
				t.Errorf("%s n=%d: plan roots at %s, reduces from %s and collects from %s; want %s, %s and %s:\n%s",
					q.name, n, p.Nodes[p.Root].Alias, p.StartAlias, p.CollectAlias, q.root, q.reduce, q.collect, p)
			}
			got, err := ex.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.EqualMultiset(got, want) {
				t.Errorf("%s n=%d: %d rows, baseline %d", q.name, n, got.Len(), want.Len())
			}
			msgs := ex.Stats().Messages
			t.Logf("%s n=%d: %d messages for %d rows", q.name, n, msgs, want.Len())
			if b, ok := base[q.name]; !ok {
				base[q.name] = msgs
			} else if float64(msgs) > 1.3*float64(b) {
				t.Errorf("%s n=%d: %d messages, over 1.3x the %d at n=512", q.name, n, msgs, b)
			}
			for _, ec := range engineConfigs {
				rows, err := NewSession(g, ec.opts).Query(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				if !relation.EqualMultiset(rows, want) {
					t.Errorf("%s n=%d %s: %d rows, baseline %d", q.name, n, ec.name, rows.Len(), want.Len())
				}
			}
		}
	}
}
