package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

// twoKeyCatalog builds r and s, joined on the first `width` of the
// columns a, b and c. s has n rows: n/4 values of a with four rows
// each, like partsupp's four suppliers a part. r has 2n rows, eight a
// value. Of those eight, two match one of the first two s rows of their
// a on every join column; the other six differ from all four in one
// column past a, or hold a NULL there. So a quarter of r and half of s
// match, and every a value has rows of both kinds on both sides. With
// sibling, t has 3n/2 rows over the same values of a, which it alone
// joins on. The last column of each is a payload.
func twoKeyCatalog(n, width int, sibling bool) *relation.Catalog {
	cat := relation.NewCatalog()
	r := relation.New("r", relation.MustSchema(relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt),
		relation.Col("c", relation.KindInt), relation.Col("v", relation.KindInt)))
	s := relation.New("s", relation.MustSchema(relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt),
		relation.Col("c", relation.KindInt), relation.Col("w", relation.KindInt)))
	groups := n / 4
	for i := 0; i < n; i++ {
		// The k-th s row of a is (a, a+groups*k, 7*a+k).
		a, k := i%groups, i/groups
		s.MustAppend(relation.Int(int64(a)), relation.Int(int64(i)), relation.Int(int64(7*a+k)), relation.Int(int64(i)))
	}
	for j := 0; j < 2*n; j++ {
		a, m := j%groups, j/groups
		k := m % 2
		b, c := relation.Int(int64(a+groups*k)), relation.Int(int64(7*a+k))
		switch m / 2 {
		case 1: // b belongs to another a's row
			b = relation.Int(int64((a + 1) % groups))
		case 2: // c mismatches when it is joined on, else b is NULL
			if width == 3 {
				c = relation.Int(int64(7*a + k + 1))
			} else {
				b = relation.Null
			}
		case 3: // a NULL in c when it is joined on, else a b no s row has
			if width == 3 {
				c = relation.Null
			} else {
				b = relation.Int(int64(-1 - j))
			}
		}
		r.MustAppend(relation.Int(int64(a)), b, c, relation.Int(int64(j)))
	}
	cat.MustAdd(r)
	cat.MustAdd(s)
	if sibling {
		t := relation.New("t", relation.MustSchema(relation.Col("a", relation.KindInt), relation.Col("z", relation.KindInt)))
		for i := 0; i < 3*n/2; i++ {
			t.MustAppend(relation.Int(int64(i%groups)), relation.Int(int64(i)))
		}
		cat.MustAdd(t)
	}
	return cat
}

// TestMultiClassEdgeIsFullyReduced is the bound test for plan edges
// whose aliases share several classes. r and s share two (then three)
// join columns, at three sizes; a quarter of r and half of s match on
// all of them. In the third shape a sibling t, joined on a alone, hangs
// under the same attribute node and is the walk's middle stop, so r
// and s semijoin across it on the values kept with the marks. Under
// every engine configuration the reduction leaves exactly the r and s
// tuples that appear in the answer, the collection never builds an
// empty table, and the rows equal the baseline's.
func TestMultiClassEdgeIsFullyReduced(t *testing.T) {
	shapes := []struct {
		width   int
		sibling bool
	}{{2, false}, {3, false}, {2, true}}
	for _, sh := range shapes {
		for _, n := range []int{40, 160, 640} {
			cat := twoKeyCatalog(n, sh.width, sh.sibling)
			g, err := tag.Build(cat, tag.MaterializeAll)
			if err != nil {
				t.Fatal(err)
			}
			cols, from := "r.v, s.w", "r, s"
			var on []string
			for _, col := range []string{"a", "b", "c"}[:sh.width] {
				on = append(on, fmt.Sprintf("r.%s = s.%s", col, col))
			}
			if sh.sibling {
				cols, from, on = cols+", t.z", from+", t", append(on, "t.a = r.a")
			}
			q := fmt.Sprintf("SELECT %s FROM %s WHERE %s", cols, from, strings.Join(on, " AND "))
			want, err := baseline.New(cat).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			// The survivors an exact reduction leaves: the payloads in the
			// answer (the test reads them for the root r and the start s).
			wantSurvivors := map[string][]int64{}
			for i, alias := range []string{"r", "s"} {
				for _, row := range want.Tuples {
					wantSurvivors[alias] = append(wantSurvivors[alias], row[i].AsInt())
				}
				slices.Sort(wantSurvivors[alias])
				wantSurvivors[alias] = slices.Compact(wantSurvivors[alias])
			}
			if len(wantSurvivors["r"]) != n/2 || len(wantSurvivors["s"]) != n/2 {
				t.Fatalf("fixture: %d r and %d s rows match, want %d and %d", len(wantSurvivors["r"]), len(wantSurvivors["s"]), n/2, n/2)
			}
			name := fmt.Sprintf("width%d/n%d", sh.width, n)
			if sh.sibling {
				name = fmt.Sprintf("width%d-sibling/n%d", sh.width, n)
			}
			for _, tc := range engineConfigs {
				t.Run(name+"/"+tc.name, func(t *testing.T) {
					ex := NewSession(g, tc.opts)
					if got := reductionSurvivors(t, ex, q); !maps.EqualFunc(got, wantSurvivors, slices.Equal) {
						t.Errorf("survivors %v\nwant %v", got, wantSurvivors)
					}
					before := ex.emptyTables.Load()
					rows, err := ex.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					if empty := ex.emptyTables.Load() - before; empty != 0 {
						t.Errorf("the collection sent or emitted %d empty tables", empty)
					}
					if !relation.EqualMultiset(rows, want) {
						t.Errorf("%d rows, baseline %d", rows.Len(), want.Len())
					}
				})
			}
		}
	}
}

// reductionSurvivors runs the reduction of q's one component and
// returns the sorted payloads (the last column) of the surviving tuples
// of the collection's start alias, which are the run's output, and of its root
// alias, which are the tuples marked on the last UP step's plan edge:
// the walk reaches the root along that edge once, and DOWN starts there.
func reductionSurvivors(t *testing.T, ex *Session, q string) map[string][]int64 {
	t.Helper()
	an, err := sql.AnalyzeString(ex.TAG.Catalog, q)
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
	r := &componentRun{ex: ex, c: c, comp: comp, prefilter: map[string]map[bsp.VertexID]bool{}}
	defer r.release()
	if err := r.resolveSteps(); err != nil {
		t.Fatal(err)
	}
	r.marks = ex.takeMarks()
	start := comp.TAGPlan.CollectAlias
	survivors, err := r.runReduction(comp.TAGPlan.StartAlias)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(v bsp.VertexID) int64 {
		row := ex.TAG.TupleData(v).Row
		return row[len(row)-1].AsInt()
	}
	out := map[string][]int64{start: {}, comp.Tree.Root: {}}
	for _, v := range survivors {
		out[start] = append(out[start], payload(v))
	}
	last := r.steps[r.nUp-1].edgeID
	for _, v := range ex.TAG.TupleVertices(c.aliasTable[comp.Tree.Root]) {
		if r.marks.edgeIDs(v, last) != nil {
			out[comp.Tree.Root] = append(out[comp.Tree.Root], payload(v))
		}
	}
	for _, vs := range out {
		slices.Sort(vs)
	}
	return out
}

// TestTreeParentEdgesLeaveNoEmptyTables runs a join whose tree hangs r0
// under r1 on a class the root r4 also joins on, with a second class r0
// shares only with r1. The plan puts r0 under r1's attribute node, so
// the reduction semijoins r0 with r1 on both classes and the collection
// never joins a vertex's own row into an empty table.
func TestTreeParentEdgesLeaveNoEmptyTables(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat := relation.NewCatalog()
	for i := range 5 {
		r := relation.New(fmt.Sprintf("t%d", i), relation.MustSchema(
			relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt), relation.Col("c", relation.KindInt)))
		for range 60 {
			r.MustAppend(relation.Int(int64(rng.Intn(12))), relation.Int(int64(rng.Intn(12))), relation.Int(int64(rng.Intn(12))))
		}
		cat.MustAdd(r)
	}
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT r0.a, r1.a, r2.a, r3.a, r4.a FROM t0 r0, t1 r1, t2 r2, t3 r3, t4 r4
		WHERE r0.a = r1.b AND r0.c = r1.c AND r1.c = r2.b AND r1.a = r2.c AND r0.c = r3.c AND r0.a = r4.c`
	want, err := baseline.New(cat).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range engineConfigs {
		t.Run(tc.name, func(t *testing.T) {
			ex := NewSession(g, tc.opts)
			rows, err := ex.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.EqualMultiset(rows, want) {
				t.Errorf("%d rows, baseline %d", rows.Len(), want.Len())
			}
			if empty := ex.emptyTables.Load(); empty != 0 {
				t.Errorf("the collection sent or emitted %d empty tables", empty)
			}
		})
	}
}
