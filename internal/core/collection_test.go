package core

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// TestEvaluationErrorsFailLikeBaseline checks that a predicate that
// fails to evaluate fails the query wherever TAG-join evaluates it — a
// residual the collection applies at the vertex where it becomes
// complete, a filter probed against an attribute dictionary, a filter a
// scan applies — as it fails in the baseline, and that the same
// queries without the failing call answer what the baseline answers.
func TestEvaluationErrorsFailLikeBaseline(t *testing.T) {
	cat := tpch.Generate(0.01, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		sql  string
	}{
		{"collection residual, scalar", "SELECT COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey AND FOO(n_name) = r_name"},
		{"collection residual, rows", "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND FOO(n_name) = r_name"},
		{"collection residual, grouped", "SELECT r_name, COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey AND FOO(n_name) = r_name GROUP BY r_name"},
		{"dictionary probe", "SELECT COUNT(*) FROM lineitem WHERE FOO(l_shipmode) = 'AIR'"},
		{"dictionary probe, joined", "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND FOO(l_shipmode) = 'AIR'"},
		{"scan filter", "SELECT COUNT(*) FROM nation WHERE FOO(n_name) = 'PERU'"},
		{"collection residual holds", "SELECT COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey AND n_name > r_name"},
		{"collection residual holds, rows", "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_name < r_name"},
		{"dictionary probe holds", "SELECT COUNT(*) FROM lineitem WHERE l_shipmode > 'RAIL'"},
	}
	for _, tc := range tests {
		want, wantErr := baseline.New(cat).Query(tc.sql)
		for _, ec := range engineConfigs {
			t.Run(tc.name+"/"+ec.name, func(t *testing.T) {
				got, err := NewSession(g, ec.opts).Query(tc.sql)
				switch {
				case (err == nil) != (wantErr == nil):
					t.Fatalf("error %v, baseline's %v", err, wantErr)
				case err == nil && !relation.EqualMultiset(got, want):
					t.Errorf("rows %v, baseline's %v", got.Tuples, want.Tuples)
				}
			})
		}
	}
}

// TestCollectStepAdoptsDecodedHeader checks that a collection table
// decoded off the wire, which carries rows but no header, is taken
// under the step's shared header when its rows have the header's width
// and refused when they are a column short or long.
func TestCollectStepAdoptsDecodedHeader(t *testing.T) {
	header := []string{"a.x", "#a", "b.y", "#b"}
	cs := &collectStep{header: header, index: buildIndex(header)}
	roundTrip := func(width int) *table {
		t.Helper()
		src := &table{}
		for i := range 2 {
			row := make([]relation.Value, width)
			for j := range row {
				row[j] = relation.Int(int64(10*i + j))
			}
			src.rows = append(src.rows, row)
		}
		enc, err := sessionCodec{}.Append(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		pay, err := sessionCodec{}.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		return pay.(*table)
	}

	got, err := cs.adopt(roundTrip(len(header)))
	if err != nil {
		t.Fatal(err)
	}
	if &got.header[0] != &header[0] || got.index["b.y"] != 2 || len(got.rows) != 2 || got.rows[1][2] != relation.Int(12) {
		t.Errorf("adopted table %v %v, want the step's header over the decoded rows", got.header, got.rows)
	}
	if again, err := cs.adopt(got); err != nil || again != got {
		t.Errorf("a table under the step's header was not taken as is: %v", err)
	}

	// Decoded rows one column short or long.
	for _, w := range []int{len(header) - 1, len(header) + 1} {
		if _, err := cs.adopt(roundTrip(w)); err == nil {
			t.Errorf("rows of width %d adopted under %q", w, header)
		}
	}
}

// TestRootKeepsOnlyUnappliedResiduals checks that the collection
// root's step lists only the residuals no collection step applied, so
// the survivor fold does not evaluate the others on every root row
// again: a residual over two aliases is applied where both meet, a
// constant one is not.
func TestRootKeepsOnlyUnappliedResiduals(t *testing.T) {
	cat := tpch.Generate(0.01, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey AND n_name > r_name AND 2 > 1"
	want, err := baseline.New(cat).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			ex := NewSession(g, ec.opts)
			got, err := ex.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.EqualMultiset(got, want) {
				t.Errorf("rows %v, baseline's %v", got.Tuples, want.Tuples)
			}
			an, err := sql.AnalyzeString(cat, q)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ex.compileBlock(an, an.Root)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.runComponent(c, c.qp.Components[0], nil, ex.subqueryFn(an))
			if err != nil {
				t.Fatal(err)
			}
			if len(c.residual) != 2 || res.root == nil {
				t.Fatalf("%d residuals, root step %v", len(c.residual), res.root)
			}
			if len(res.root.rest) != 1 || len(res.root.rest[0].cols) != 0 {
				t.Errorf("the root keeps %d residuals, want only the constant one", len(res.root.rest))
			}
		})
	}
}

// TestResidualEvaluatedOnce checks that a non-aggregate block evaluates
// each residual once. A two-alias join's vertex-safe residual becomes
// complete at the collection root, which evaluates it on every joined
// row, an op each; the projection then charges only the rows it kept.
// Against the join without the residual, the query so costs exactly
// its own row count more ComputeOps, and a second evaluation on the
// assembled rows would double that. Residuals that span components
// stay central and still filter.
func TestResidualEvaluatedOnce(t *testing.T) {
	cat := tpch.Generate(0.01, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	const join = "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey"
	queries := []string{
		join + " AND n_name > r_name",
		// Two components, the residual within one and across both.
		"SELECT n_name, r_name, s_name FROM nation, region, supplier WHERE n_regionkey = r_regionkey AND n_name > r_name AND s_suppkey < 3",
		"SELECT n_name, r_name, s_name FROM nation, region, supplier WHERE n_regionkey = r_regionkey AND s_name > n_name AND s_suppkey < 5",
	}
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			ops := func(q string) (*relation.Relation, int64) {
				t.Helper()
				want, err := baseline.New(cat).Query(q)
				if err != nil {
					t.Fatal(err)
				}
				ex := NewSession(g, ec.opts)
				got, err := ex.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !relation.EqualMultiset(got, want) {
					onlyG, onlyW := relation.DiffMultiset(got, want, 4)
					t.Errorf("%s: %d rows, baseline's %d\nonly TAG: %v\nonly baseline: %v", q, got.Len(), want.Len(), onlyG, onlyW)
				}
				return got, ex.Stats().ComputeOps
			}
			for _, q := range queries[1:] {
				ops(q)
			}
			filtered, withResidual := ops(queries[0])
			all, without := ops(join)
			if len(filtered.Tuples) == 0 || len(filtered.Tuples) == len(all.Tuples) {
				t.Fatalf("the residual keeps %d of %d rows; the check needs it to filter", len(filtered.Tuples), len(all.Tuples))
			}
			if d := withResidual - without; d != int64(len(filtered.Tuples)) {
				t.Errorf("the residual costs %d ops over %d rows, want one per row", d, len(filtered.Tuples))
			}
		})
	}
}
