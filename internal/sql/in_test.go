package sql

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relation"
)

// scanIn is the reference semantics of v IN rows: a scan with Equal.
func scanIn(rows *relation.Relation, v relation.Value, not bool) relation.Value {
	if v.IsNull() {
		return relation.Null
	}
	sawNull := false
	for _, t := range rows.Tuples {
		if t[0].IsNull() {
			sawNull = true
			continue
		}
		if v.Equal(t[0]) {
			return relation.Bool(!not)
		}
	}
	if sawNull {
		return relation.Null
	}
	return relation.Bool(not)
}

// TestInSubquerySetMatchesScan probes generated subquery results
// repeatedly and checks every answer, from the hash set or the scan
// fallback, against the scan. The results mix
// kinds that compare equal across kinds (2, 2.0, DATE 2, TRUE as 1), a
// NaN that compares equal to every number, NULLs and strings, or hold
// one hashable kind with NULLs.
func TestInSubquerySetMatchesScan(t *testing.T) {
	pool := []relation.Value{
		relation.Int(1), relation.Int(2), relation.Int(3), relation.Int(-7),
		relation.Float(2), relation.Float(2.5), relation.Float(math.NaN()),
		relation.Float(math.Inf(1)), relation.Date(2), relation.Date(3),
		relation.Str("a"), relation.Str("b"), relation.Str(""), relation.Str("2"),
		relation.Bool(true), relation.Bool(false), relation.Null,
	}
	byKind := map[relation.Kind][]relation.Value{}
	for _, v := range pool {
		byKind[v.Kind] = append(byKind[v.Kind], v)
	}
	rng := rand.New(rand.NewSource(7))
	sub := &Select{}
	hashed := 0
	for trial := 0; trial < 400; trial++ {
		// Half the results draw from one kind (plus NULLs), half from all.
		from := pool
		if trial%2 == 0 {
			kinds := []relation.Kind{relation.KindInt, relation.KindDate, relation.KindString, relation.KindFloat}
			from = append(append([]relation.Value(nil), byKind[kinds[rng.Intn(len(kinds))]]...), relation.Null)
		}
		rows := relation.New("sub", relation.MustSchema(relation.Col("x", relation.KindInt)))
		for n := rng.Intn(12); n > 0; n-- {
			v := from[rng.Intn(len(from))]
			if v.IsNull() && rng.Intn(3) != 0 {
				continue // keep NULL-free results common
			}
			rows.Tuples = append(rows.Tuples, relation.Tuple{v})
		}
		subq := func(*Select, *Env) (*relation.Relation, error) { return rows, nil }
		for round := 0; round < 3; round++ {
			for _, probe := range pool {
				for _, not := range []bool{false, true} {
					e := &InSubquery{X: &Literal{Val: probe}, Sub: sub, Not: not}
					got, err := Eval(e, &Env{}, subq)
					if err != nil {
						t.Fatal(err)
					}
					if want := scanIn(rows, probe, not); got != want {
						t.Fatalf("%v IN %v (not=%v, probe round %d) = %v, want %v", probe, rows.Tuples, not, round, got, want)
					}
				}
			}
		}
		if s, _ := rows.Memo().(*inSet); s != nil && s.hashable {
			hashed++
		}
	}
	if hashed < 100 {
		t.Errorf("only %d of 400 results were hashed", hashed)
	}
}

// TestInSubqueryConcurrentProbes: vertex programs probe one shared
// result (a decorrelated lookup bucket) from several workers at once, so
// the first probes race to build its set. Run under -race.
func TestInSubqueryConcurrentProbes(t *testing.T) {
	rows := relation.New("sub", relation.MustSchema(relation.Col("x", relation.KindInt)))
	for i := 0; i < 64; i += 2 {
		rows.Tuples = append(rows.Tuples, relation.Tuple{relation.Int(int64(i))})
	}
	subq := func(*Select, *Env) (*relation.Relation, error) { return rows, nil }
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				probe := relation.Int(int64(i))
				got, err := Eval(&InSubquery{X: &Literal{Val: probe}, Sub: &Select{}}, &Env{}, subq)
				if want := scanIn(rows, probe, false); err != nil || got != want {
					t.Errorf("%v IN evens = %v (%v), want %v", probe, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s, _ := rows.Memo().(*inSet); s == nil || !s.hashable {
		t.Errorf("memo %+v, want a built set", rows.Memo())
	}
}

// TestInListHashMatchesTreeWalker holds IN lists of constants long
// enough to probe a set to the tree walker, for IN and NOT IN, on a
// pool of probes of every kind. A probe of the set's kind answers from
// the set; any other probe, and any list that is not of one kind among
// INT, DATE and STRING, is scanned.
func TestInListHashMatchesTreeWalker(t *testing.T) {
	ints := func(lo, hi int64) []relation.Value {
		var out []relation.Value
		for i := lo; i <= hi; i++ {
			out = append(out, relation.Int(i))
		}
		return out
	}
	var dates, strs, floats []relation.Value
	for i := int64(0); i < 10; i++ {
		dates = append(dates, relation.Date(9400+i))
		strs = append(strs, relation.Str(string(rune('a'+i))))
		floats = append(floats, relation.Float(float64(i)))
	}
	probes := []relation.Value{
		relation.Int(3), relation.Int(42), relation.Int(9403), relation.Float(2), relation.Float(2.5),
		relation.Float(math.NaN()), relation.Date(9403), relation.Date(1), relation.Str("c"),
		relation.Str("zz"), relation.Str("3"), relation.Bool(true), relation.Null,
	}
	for _, tc := range []struct {
		name  string
		items []relation.Value
	}{
		{"int", ints(1, 10)},
		{"int with NULL", append(ints(1, 10), relation.Null)},
		{"NULL first", append([]relation.Value{relation.Null}, ints(1, 10)...)},
		{"date", dates},
		{"date with NULL", append(append([]relation.Value(nil), dates...), relation.Null)},
		{"string", strs},
		{"float", floats},
		{"mixed kinds", append(ints(1, 9), relation.Str("c"), relation.Date(9403), relation.Null)},
		{"only NULL", []relation.Value{relation.Null, relation.Null, relation.Null, relation.Null,
			relation.Null, relation.Null, relation.Null, relation.Null, relation.Null}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.items) <= hashedList {
				t.Fatalf("%d items do not reach the hashed form", len(tc.items))
			}
			list := make([]Expr, len(tc.items))
			for i, v := range tc.items {
				list[i] = &Literal{Val: v}
			}
			x := &ColRef{Alias: "t", Column: "x", Key: "t.x"}
			b := Binding{"t.x": 0}
			for _, not := range []bool{false, true} {
				e := &InList{X: x, List: list, Not: not}
				compiled := Compile(e, b)
				for _, probe := range probes {
					row := relation.Tuple{probe}
					got, err := compiled(row, nil, nil)
					want, wantErr := evalRef(e, &Env{Binding: b, Row: row}, nil)
					if err != nil || wantErr != nil {
						t.Fatalf("%v IN %v (not=%v): errors %v, %v", probe, tc.items, not, err, wantErr)
					}
					if got.Kind != want.Kind || got.I != want.I {
						t.Errorf("%v IN %v (not=%v) = %v, want %v", probe, tc.items, not, got, want)
					}
				}
			}
		})
	}
}
