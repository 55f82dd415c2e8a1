package sql

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/tpch"
)

// likeDP is the dynamic-programming reference for LIKE: m[j] reports
// whether the pattern prefix of length j matches the string prefix read
// so far.
func likeDP(s, p string) bool {
	m := make([]bool, len(p)+1)
	m[0] = true
	for j := 1; j <= len(p) && p[j-1] == '%'; j++ {
		m[j] = true
	}
	for i := 0; i < len(s); i++ {
		prev := m[0] // the cell diagonal to m[j]
		m[0] = false
		for j := 1; j <= len(p); j++ {
			cur := m[j]
			switch p[j-1] {
			case '%':
				m[j] = m[j-1] || m[j]
			case '_':
				m[j] = prev
			default:
				m[j] = prev && s[i] == p[j-1]
			}
			prev = cur
		}
	}
	return m[len(p)]
}

func TestMatchLikeMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, rng.Intn(9))
		for i := range b {
			b[i] = "ab%_"[rng.Intn(4)]
		}
		return string(b)
	}
	for n := 0; n < 50000; n++ {
		s, p := word(), word()
		if got, want := MatchLike(s, p), likeDP(s, p); got != want {
			t.Fatalf("MatchLike(%q, %q) = %v, want %v", s, p, got, want)
		}
	}
}

// TestMatchLikeLinear: a pattern of several %s that fails only at its
// last byte made the recursive matcher exponential in the number of %s.
// The run is bounded by a deadline, so a slow matcher fails rather than
// hangs.
func TestMatchLikeLinear(t *testing.T) {
	s := strings.Repeat("a", 100000)
	done := make(chan bool, 1)
	go func() { done <- MatchLike(s, "%a%a%a%a%a%a%b") }()
	select {
	case got := <-done:
		if got {
			t.Error("matched a pattern ending in b against a string of a's")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MatchLike did not finish within 5s")
	}
}

// fuzzSeeds are WHERE clauses for FuzzCompile: each TPC-H query's, and
// shapes the TPC-H ones lack. A column qualified o. lives one scope out,
// p. in the outer row but referenced at depth 0, and u. nowhere.
func fuzzSeeds() []string {
	seeds := []string{
		"a < 1 + 2 AND b BETWEEN 2 - 1 AND 2 * 2 OR c IN (1 + 1, NULL)",
		"a < NULL + 1 OR NOT (b IS NULL) AND -c <> d / 0",
		"CASE WHEN a > o.a THEN b WHEN p.c IS NULL THEN 1.5 ELSE NULL END >= u.z",
		"s LIKE '%a_%' AND s || 'x' NOT LIKE 'b%' AND YEAR(d) = 1995 AND MONTH(d) IN (1, 2) AND DAY(d) < 9",
		"d < DATE '1995-09-01' + INTERVAL '30' DAY AND d NOT BETWEEN o.d AND p.d",
		"a IN (SELECT x FROM q) AND EXISTS (SELECT 1 FROM q WHERE x = o.a) AND b > (SELECT x FROM q)",
		"SUM(a) > 1 AND COUNT(*) < 3 AND UPPER(s) = 'A' AND YEAR(d, d) = 1",
		"a * 1.5e3 > 2E-2 AND b - -1 < > 1e6 AND c = 2.0 AND d = 1 . 5",
		"a\xca = 1 OR \xc3\x89 = 2",
		// Twelve items: past the length at which a constant list hashes.
		"a IN (1, 2, 3, NULL, 5, 6, 7, 8, 9, 10, 11, 12) OR b NOT IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, NULL)",
		"a IN (1, 2.0, 'a', DATE '1995-09-01', NULL, 6, 7, 8, 9, 10, 11, 12) AND s NOT IN ('a', 'ab', 'b%', '', 'MED BOX', 'x', 'y', 'z', 'w', 'v', 'u', NULL)",
		"d IN (DATE '1995-09-01', DATE '1995-09-02', DATE '1995-09-03', DATE '1995-09-04', DATE '1995-09-05', DATE '1995-09-06', NULL, DATE '1995-09-08', DATE '1995-09-09', DATE '1995-09-10', DATE '1995-09-11', DATE '1995-09-12')",
		// The direct binary kernels: constant OP column, column OP
		// column, column OP subtree and its mirror, over NULL, INT×FLOAT,
		// DATE ± INT, division by zero and ||.
		"1 - c",
		"c * d",
		"c * (1 - d)",
		"(a + b) * c",
		"c * (a + b)",
		"a * (1 - b) * (1 + c) > d / 0",
		"d + 1 < d - c AND 1 + d >= d - (a + b)",
		"s || t = 'x' || s AND (s || 'y') || t <> s || (t || NULL)",
		"a / (b - b) IS NULL OR 2.5 / a > b / c",
		"o.a - a < (a + p.b) * o.c",
	}
	for _, q := range tpch.Queries() {
		if i := strings.Index(q.SQL, "WHERE"); i >= 0 {
			seeds = append(seeds, q.SQL[i+len("WHERE"):])
		}
	}
	return seeds
}

func sameKinds(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
	}
	return true
}

// fuzzValue returns a random cell: NULL, INT, FLOAT, DATE, STRING or
// BOOL, from small domains so that comparisons tie often.
func fuzzValue(rng *rand.Rand) relation.Value {
	switch rng.Intn(7) {
	case 0:
		return relation.Null
	case 1, 2:
		return relation.Int(int64(rng.Intn(7) - 3))
	case 3:
		return relation.Float([]float64{-1.5, 0, 0.5, 2, math.NaN()}[rng.Intn(5)])
	case 4:
		return relation.Date(9370 + int64(rng.Intn(60)))
	case 5:
		return relation.Str([]string{"", "a", "ab", "b%", "MED BOX"}[rng.Intn(5)])
	}
	return relation.Bool(rng.Intn(2) == 0)
}

// FuzzCompile parses a WHERE clause and holds the compiled form of it
// to the tree walker it replaced: on random rows and outer rows, both
// give the same value, bit for bit, or both fail with the same error.
// Parsing any input must not panic.
func FuzzCompile(f *testing.F) {
	for i, s := range fuzzSeeds() {
		f.Add(s, int64(i))
	}
	f.Fuzz(func(t *testing.T, where string, seed int64) {
		q := "SELECT * FROM t WHERE " + where
		// A fingerprint is a cache key: for any input that lexes it is a
		// fixpoint, and it lexes to tokens of the input's kinds.
		if toks, err := Lex(q); err == nil {
			fp, _ := Fingerprint(q)
			again, err := Fingerprint(fp)
			if err != nil || again != fp {
				t.Fatalf("%q: Fingerprint %q, then %q (%v)", q, fp, again, err)
			}
			fpToks, _ := Lex(fp)
			if !sameKinds(toks, fpToks) {
				t.Fatalf("%q: fingerprint %q changes token kinds", q, fp)
			}
		}
		sel, err := Parse(q)
		if err != nil || sel.Where == nil {
			return
		}
		aggs := 0
		e := RewriteAggregates(sel.Where, func(*FuncCall) int { aggs++; return aggs - 1 })

		// Resolve the column references as the analyzer would, placing
		// each by its qualifier; aggregates bind like columns.
		inner, outer := Binding{}, Binding{}
		for i := 0; i < aggs; i++ {
			inner[AggKey(i)] = len(inner)
		}
		for _, c := range ColRefs(e) {
			c.Alias = strings.ToLower(c.Qualifier)
			c.Key = BindKey(c.Alias, c.Column)
			switch c.Alias {
			case "o", "p":
				if c.Alias == "o" {
					c.Depth = 1
				}
				if _, ok := outer[c.Key]; !ok {
					outer[c.Key] = len(outer)
				}
			case "u":
			default:
				if _, ok := inner[c.Key]; !ok {
					inner[c.Key] = len(inner)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		results := map[*Select]*relation.Relation{}
		subq := func(sub *Select, _ *Env) (*relation.Relation, error) {
			if r, ok := results[sub]; ok {
				return r, nil
			}
			r := relation.New("sub", relation.MustSchema(relation.Col("x", relation.KindInt)))
			for n := rng.Intn(3); n > 0; n-- {
				r.Tuples = append(r.Tuples, relation.Tuple{fuzzValue(rng)})
			}
			results[sub] = r
			return r, nil
		}
		compiled := Compile(e, inner)
		for trial := 0; trial < 8; trial++ {
			row, outerRow := make(relation.Tuple, len(inner)), make(relation.Tuple, len(outer))
			for i := range row {
				row[i] = fuzzValue(rng)
			}
			for i := range outerRow {
				outerRow[i] = fuzzValue(rng)
			}
			env := &Env{Binding: outer, Row: outerRow}
			got, gotErr := compiled(row, env, subq)
			want, wantErr := evalRef(e, &Env{Binding: inner, Row: row, Parent: env}, subq)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s: error %v, want %v", where, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s: error %q, want %q", where, gotErr, wantErr)
			case gotErr == nil && (got.Kind != want.Kind || got.I != want.I || got.S != want.S ||
				math.Float64bits(got.F) != math.Float64bits(want.F)):
				t.Fatalf("%s on %v under %v: %#v, want %#v", where, row, outerRow, got, want)
			}
		}
	})
}

// TestKernelsMatchTreeWalker holds every direct binary kernel shape
// (column OP constant, constant OP column, column OP column, column OP
// subtree and its mirror, and the constant and subtree pairings the
// general kernel takes) under every non-logical operator to the
// tree-walking evaluator, bit for bit, on every pair of values from a
// grid of NULL, INT, FLOAT (-0 and NaN among them), DATE, STRING and
// BOOL: the cases the kernels answer inline and the ones they pass on.
func TestKernelsMatchTreeWalker(t *testing.T) {
	grid := []relation.Value{
		relation.Null, relation.Int(-2), relation.Int(0), relation.Int(3),
		relation.Float(-1.5), relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(3),
		relation.Float(math.NaN()), relation.Date(9370), relation.Date(9373), relation.Str(""),
		relation.Str("ab"), relation.Bool(true),
	}
	bind := Binding{"t.a": 0, "t.b": 1}
	a := &ColRef{Alias: "t", Column: "a", Key: "t.a"}
	b := &ColRef{Alias: "t", Column: "b", Key: "t.b"}
	// sub wraps x in a subtree of the same value that a kernel calls.
	sub := func(x Expr) Expr { return &Case{Whens: []When{{Cond: &Literal{Val: relation.Bool(true)}, Then: x}}} }
	for op := range binaryOps {
		for _, k := range grid {
			lit := &Literal{Val: k}
			for _, e := range []*Binary{
				{L: a, R: lit}, {L: lit, R: a}, {L: a, R: b}, {L: a, R: sub(b)}, {L: sub(a), R: b},
				{L: sub(a), R: sub(b)}, {L: lit, R: sub(a)}, {L: sub(a), R: lit},
			} {
				e.Op = op
				f := Compile(e, bind)
				for _, x := range grid {
					for _, y := range grid {
						row := relation.Tuple{x, y}
						got, gotErr := f(row, nil, nil)
						want, wantErr := evalRef(e, &Env{Binding: bind, Row: row}, nil)
						if (gotErr == nil) != (wantErr == nil) || !sameBits(got, want) || got.S != want.S {
							t.Fatalf("%#v %s %#v on %v: %#v (%v), want %#v (%v)", e.L, op, e.R, row, got, gotErr, want, wantErr)
						}
					}
				}
			}
		}
	}
}
