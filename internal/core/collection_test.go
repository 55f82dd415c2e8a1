package core

import (
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/relation"
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
// decoded off the wire, which carries its own copy of the header, is
// taken under the step's shared header when the two are equal and
// refused when they are not.
func TestCollectStepAdoptsDecodedHeader(t *testing.T) {
	header := []string{"a.x", "#a", "b.y", "#b"}
	cs := &collectStep{header: header, index: buildIndex(header)}
	roundTrip := func(h []string) *table {
		t.Helper()
		src := newTable(h)
		src.rows = [][]relation.Value{
			{relation.Int(1), relation.Int(10), relation.Str("p"), relation.Int(20)},
			{relation.Int(2), relation.Int(11), relation.Str("q"), relation.Int(21)},
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

	dec := roundTrip(slices.Clone(header))
	got, err := cs.adopt(dec)
	if err != nil {
		t.Fatal(err)
	}
	if &got.header[0] != &header[0] || got.index["b.y"] != 2 || len(got.rows) != 2 || got.rows[1][2] != relation.Str("q") {
		t.Errorf("adopted table %v %v, want the step's header over the decoded rows", got.header, got.rows)
	}
	if again, err := cs.adopt(got); err != nil || again != got {
		t.Errorf("a table under the step's header was not taken as is: %v", err)
	}

	// A decoded table whose header orders the columns differently, and
	// tables one column short or long.
	for _, src := range []*table{
		roundTrip([]string{"a.x", "#a", "#b", "b.y"}),
		newTable([]string{"a.x", "#a", "b.y"}),
		newTable([]string{"a.x", "#a", "b.y", "#b", "c.z"}),
	} {
		if _, err := cs.adopt(src); err == nil {
			t.Errorf("header %q adopted under %q", src.header, header)
		}
	}
}
