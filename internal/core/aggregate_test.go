package core

import (
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

// TestSingleAliasAggregateOnePass checks that a single-table aggregate
// block admits, filters and folds its seeds in the aggregation's first
// superstep, with no reduction run before it. Its counts are the
// reduction's and the fold's together, less the superstep and the
// survivor visits the second pass cost: one op per seed, two per
// survivor (the fold of its row and the group it touches) and the
// targets' merge ops, with one message per survivor and, through the
// per-machine relay, one per relay. The filter compares two columns, so
// no selection enters at attribute vertices and every tuple is a seed;
// 1 < 2 is a residual predicate (it reads no alias). The survivors
// sit on both partitions of Partitions 2.
func TestSingleAliasAggregateOnePass(t *testing.T) {
	cat := relation.NewCatalog()
	x := relation.New("x", relation.MustSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("b", relation.KindInt),
		relation.Col("c", relation.KindInt)))
	for i := range int64(24) {
		x.MustAppend(relation.Int(2*i), relation.Int(i%3), relation.Int(i%4))
	}
	cat.MustAdd(x)
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	seeds := g.TupleVertices("x")
	var survivors []bsp.VertexID
	for _, v := range seeds {
		if row := g.TupleData(v).Row; row[1].I < row[2].I {
			survivors = append(survivors, v)
		}
	}
	// groupsOf returns the distinct group keys of the survivors, per
	// relay vertex (one relay for parts <= 1).
	groupsOf := func(key func(relation.Tuple) [2]int64, parts int) map[bsp.VertexID]map[[2]int64]bool {
		out := map[bsp.VertexID]map[[2]int64]bool{}
		for _, v := range survivors {
			relay := bsp.VertexID(0)
			if parts > 1 {
				relay = bsp.VertexID(bsp.PartitionOf(v, parts))
			}
			if out[relay] == nil {
				out[relay] = map[[2]int64]bool{}
			}
			out[relay][key(g.TupleData(v).Row)] = true
		}
		return out
	}
	rows := []struct {
		name, sql string
		local     bool // LA: the targets are the key's attribute vertices
		key       func(relation.Tuple) [2]int64
	}{
		{"scalar", "SELECT COUNT(*), SUM(x.a) FROM x WHERE x.b < x.c AND 1 < 2", false,
			func(relation.Tuple) [2]int64 { return [2]int64{} }},
		{"GA", "SELECT x.b, x.c, COUNT(*) FROM x WHERE x.b < x.c GROUP BY x.b, x.c", false,
			func(r relation.Tuple) [2]int64 { return [2]int64{r[1].I, r[2].I} }},
		{"LA", "SELECT x.c, SUM(x.a) FROM x WHERE x.b < x.c GROUP BY x.c HAVING SUM(x.a) > 40", true,
			func(r relation.Tuple) [2]int64 { return [2]int64{r[2].I} }},
	}
	for _, row := range rows {
		want, err := baseline.New(cat).Query(row.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []bsp.Options{{Workers: 1}, {Workers: 2}, {Workers: 2, Partitions: 2}} {
			ex := NewSession(g, opts)
			out, err := ex.Query(row.sql)
			if err != nil {
				t.Fatalf("%s %+v: %v", row.name, opts, err)
			}
			if !relation.EqualMultiset(out, want) {
				t.Errorf("%s %+v: rows %v, want %v", row.name, opts, out.Tuples, want.Tuples)
			}
			n, s := int64(len(seeds)), int64(len(survivors))
			steps, targets, msgs, merges := int64(2), int64(0), s, s
			if row.local {
				targets = int64(len(groupsOf(row.key, 1)[0]))
			} else if relays := groupsOf(row.key, opts.Partitions); opts.Partitions > 1 {
				if len(relays) != 2 {
					t.Fatalf("survivors on %d partitions, want 2", len(relays))
				}
				steps, targets, msgs = 3, int64(len(relays))+1, s+int64(len(relays))
				for _, groups := range relays {
					merges += int64(len(groups))
				}
			} else {
				targets = 1
			}
			st := ex.Stats()
			if st.Supersteps != steps || st.ActiveVisits != n+targets || st.Messages != msgs || st.ComputeOps != n+2*s+merges {
				t.Errorf("%s %+v: stats %v; want %d supersteps, %d visits, %d messages, %d ops",
					row.name, opts, st, steps, n+targets, msgs, n+2*s+merges)
			}
		}
	}
}

// TestForeignAccumulatorCountFailsTheRun folds a one-COUNT group, as a
// peer's record decodes, into a two-COUNT group of the same key, as the
// cluster's shard merge does (pgCombiner.Merge). The fold keeps it apart
// instead of indexing past its accumulators, and projecting the groups
// fails with an error instead of a panic.
func TestForeignAccumulatorCountFailsTheRun(t *testing.T) {
	ex := newExec(t, shopCatalog())
	an, err := sql.AnalyzeString(ex.TAG.Catalog, "SELECT cnation, COUNT(*), COUNT(ckey) FROM cust GROUP BY cnation")
	if err != nil {
		t.Fatal(err)
	}
	ex.corrCache = map[*sql.Select]*corrMemo{}
	ex.decorr = map[*sql.Select]*decorrTable{}
	c, err := ex.compileBlock(an, an.Root)
	if err != nil {
		t.Fatal(err)
	}
	setup := newAggSetup(c.blk)
	key := []relation.Value{relation.Int(1)}
	group := func(n int) *groupAcc {
		g := &groupAcc{key: key, rep: key}
		for range n {
			a := sql.NewAggregator(&sql.FuncCall{Name: "COUNT", Star: true})
			a.Observe(relation.Int(1))
			g.aggs = append(g.aggs, *a)
		}
		return g
	}
	wire, err := sessionCodec{}.Append(nil, &partialGroups{groups: []*groupAcc{group(1)}})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := sessionCodec{}.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	merged := pgCombiner{}.Merge(&partialGroups{groups: []*groupAcc{group(2)}}, peer).(*partialGroups)
	if len(merged.groups) != 2 {
		t.Fatalf("%d groups after the fold, want the foreign one kept apart", len(merged.groups))
	}
	if _, err := projectGroups(c, setup, merged.groups, nil, nil, nil); err == nil {
		t.Fatal("projecting a group of the wrong accumulator count succeeded")
	}
	if _, err := projectGroups(c, setup, merged.groups[:1], nil, nil, nil); err != nil {
		t.Fatalf("the block's own group: %v", err)
	}
}

// TestGroupAllocationsFlat bounds what one aggregation group costs the
// heap, on the GA path (two GROUP BY columns: every group meets at the
// global aggregator vertex) and on the LA path (one materialized GROUP
// BY column: each group completes at its key's attribute vertex). A
// table of 2n rows holds n distinct keys, two rows a key, and each
// group sums a FLOAT and counts its rows. One warm run at n = 1k, 2k
// and 4k allocates at most 3 times per group, and what a group adds
// stays flat: the allocations per added group from 1k to 2k and from
// 2k to 4k are within 10% of each other. A group's accumulators, key,
// partial message and merge do not allocate per accumulator or per
// observation.
func TestGroupAllocationsFlat(t *testing.T) {
	const perGroup, spread = 3, 1.10
	for _, row := range []struct{ path, sql string }{
		{"GA", "SELECT x.k, x.j, SUM(x.f), COUNT(*) FROM x GROUP BY x.k, x.j"},
		{"LA", "SELECT x.k, SUM(x.f), COUNT(*) FROM x GROUP BY x.k"},
	} {
		sizes := []int{1000, 2000, 4000}
		var counts []float64
		for _, n := range sizes {
			cat := relation.NewCatalog()
			x := relation.New("x", relation.MustSchema(
				relation.Col("k", relation.KindInt),
				relation.Col("j", relation.KindInt),
				relation.Col("f", relation.KindFloat)))
			for i := range 2 * n {
				k := int64(i % n)
				x.MustAppend(relation.Int(k), relation.Int(k), relation.Float(float64(i%997)/100))
			}
			cat.MustAdd(x)
			g, err := tag.Build(cat, tag.MaterializeAll)
			if err != nil {
				t.Fatal(err)
			}
			an, err := sql.AnalyzeString(cat, row.sql)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSession(g, bsp.Options{Workers: 1})
			out, err := s.Run(an) // sizes the pooled scratch
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != n {
				t.Fatalf("%s n=%d: %d groups", row.path, n, out.Len())
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := s.Run(an); err != nil {
					t.Fatal(err)
				}
			})
			per := allocs / float64(n)
			t.Logf("%s n=%d: %.0f allocations, %.2f per group", row.path, n, allocs, per)
			if per > perGroup {
				t.Errorf("%s n=%d: %.2f allocations per group, want at most %d", row.path, n, per, perGroup)
			}
			counts = append(counts, allocs)
		}
		added := []float64{
			(counts[1] - counts[0]) / float64(sizes[1]-sizes[0]),
			(counts[2] - counts[1]) / float64(sizes[2]-sizes[1]),
		}
		if lo, hi := slices.Min(added), slices.Max(added); hi > spread*lo {
			t.Errorf("%s: %.2f allocations per added group from 1k to 2k, %.2f from 2k to 4k, want within %.0f%%", row.path, added[0], added[1], 100*(spread-1))
		}
	}
}
