package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/relation"
	"repro/internal/tag"
)

// cycleCatalog builds five tables of three INT columns over one small
// domain, so an attribute vertex stands in several classes of a cycle
// and a tuple under several aliases of a self-join. Every column is
// INT: the pre-pass is what is under test, not how the engines compare
// FLOAT keys.
func cycleCatalog(rng *rand.Rand) *relation.Catalog {
	cat := relation.NewCatalog()
	for i := range 5 {
		r := relation.New(fmt.Sprintf("t%d", i), relation.MustSchema(
			relation.Col("a", relation.KindInt),
			relation.Col("b", relation.KindInt),
			relation.Col("c", relation.KindInt)))
		for range 5 + rng.Intn(26) {
			val := func() relation.Value {
				if rng.Intn(12) == 0 {
					return relation.Null
				}
				return relation.Int(int64(rng.Intn(6)))
			}
			r.MustAppend(val(), val(), val())
		}
		cat.MustAdd(r)
	}
	return cat
}

// cycleQuery draws a k-cycle r0 → r1 → … → r(k-1) → r0 over distinct
// tables, or over t0 alone (self), each alias leaving by another column
// than it enters by. It counts the answers or lists one column per
// alias.
func cycleQuery(rng *rand.Rand, k int, self bool) string {
	cols := []string{"a", "b", "c"}
	in, out := make([]string, k), make([]string, k)
	from := make([]string, k)
	for i := range k {
		c := rng.Intn(3)
		in[i], out[i] = cols[c], cols[(c+1+rng.Intn(2))%3]
		tbl := i
		if self {
			tbl = 0
		}
		from[i] = fmt.Sprintf("t%d r%d", tbl, i)
	}
	where := make([]string, k)
	sel := make([]string, k)
	for i := range k {
		where[i] = fmt.Sprintf("r%d.%s = r%d.%s", i, out[i], (i+1)%k, in[(i+1)%k])
		sel[i] = fmt.Sprintf("r%d.%s", i, cols[rng.Intn(3)])
	}
	list := "COUNT(*)"
	if rng.Intn(2) == 0 {
		list = strings.Join(sel, ", ")
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s", list, strings.Join(from, ", "), strings.Join(where, " AND "))
}

// TestRandomizedCycles cross-checks cyclic queries, which run the §6.2
// pre-pass, against the baseline: k = 3, 4 and 5, over distinct tables
// and as self-joins of one table, at θ = √IN, 0.5 and 1e9, under every
// engine configuration. One vertex at several hops of a walk must pass
// on at each what reached it there.
func TestRandomizedCycles(t *testing.T) {
	type cycleCase struct {
		name string
		cat  *relation.Catalog
		q    string
	}
	edges := relation.New("e", relation.MustSchema(
		relation.Col("src", relation.KindInt), relation.Col("dst", relation.KindInt)))
	edges.MustAppend(relation.Int(1), relation.Int(1))
	edges.MustAppend(relation.Int(1), relation.Int(2))
	edges.MustAppend(relation.Int(2), relation.Int(1))
	selfTri := relation.NewCatalog()
	selfTri.MustAdd(edges)
	cases := []cycleCase{{"self-join-triangle", selfTri,
		"SELECT e1.src, e2.src, e3.src FROM e e1, e e2, e e3 WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src"}}
	rng := rand.New(rand.NewSource(5))
	for round := range 4 {
		cat := cycleCatalog(rng)
		for k := 3; k <= 5; k++ {
			for _, self := range []bool{false, true} {
				kind := "distinct"
				if self {
					kind = "self"
				}
				cases = append(cases, cycleCase{fmt.Sprintf("round%d-k%d-%s", round, k, kind), cat, cycleQuery(rng, k, self)})
			}
		}
	}

	graphs := map[*relation.Catalog]*tag.Graph{}
	for _, c := range cases {
		if graphs[c.cat] == nil {
			g, err := tag.Build(c.cat, tag.MaterializeAll)
			if err != nil {
				t.Fatal(err)
			}
			graphs[c.cat] = g
		}
	}
	for _, c := range cases {
		want, err := baseline.New(c.cat).Query(c.q)
		if err != nil {
			t.Fatalf("%s: baseline: %v\nquery: %s", c.name, err, c.q)
		}
		t.Run(c.name, func(t *testing.T) {
			for _, tc := range engineConfigs {
				for _, theta := range []float64{0, 0.5, 1e9} {
					ex := NewSession(graphs[c.cat], tc.opts)
					ex.Theta = theta
					got, err := ex.Query(c.q)
					if err != nil {
						t.Fatalf("%s θ=%v: %v\nquery: %s", tc.name, theta, err, c.q)
					}
					if ex.Info.Cycles != 1 {
						t.Fatalf("%s: %d cycles, want 1\nquery: %s", tc.name, ex.Info.Cycles, c.q)
					}
					if !relation.EqualMultiset(got, want) {
						onlyG, onlyW := relation.DiffMultiset(got, want, 4)
						t.Fatalf("%s θ=%v: %d rows, baseline %d\nquery: %s\nonly TAG: %v\nonly base: %v",
							tc.name, theta, got.Len(), want.Len(), c.q, onlyG, onlyW)
					}
				}
			}
		})
	}
}
