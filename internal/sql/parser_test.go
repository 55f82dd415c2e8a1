package sql

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, 'it''s', 1.5 <> 2 -- trailing\nFROM t;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", ",", "1.5", "<>", "2", "FROM", "t", ";"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string should error")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("bad character should error")
	}
}

// TestLexNumbersAndIdentifiers: a fraction or an exponent makes a
// float literal, an exponent needs digits after its optional sign, and
// identifiers are ASCII only.
func TestLexNumbersAndIdentifiers(t *testing.T) {
	cases := []struct {
		in   string
		want string // kind:text per token, or "error"
	}{
		{"1.5e3", "float:1.5e3"},
		{"1e3", "float:1e3"},
		{"15e-1", "float:15e-1"},
		{"2E+10", "float:2E+10"},
		{"1.5", "float:1.5"},
		{"12", "int:12"},
		{"1e", "int:1 ident:e"},
		{"1e+", "int:1 ident:e op:+"},
		{"1.e3", "int:1 op:. ident:e3"},
		{"1e3x", "float:1e3 ident:x"},
		{"t.c1_2", "ident:t op:. ident:c1_2"},
		{"_a", "ident:_a"},
		{"a\xca", "error"},
		{"\xc3\x89", "error"}, // valid UTF-8 É
	}
	kinds := map[TokKind]string{TokInt: "int", TokFloat: "float", TokIdent: "ident", TokOp: "op", TokKeyword: "kw", TokString: "str"}
	for _, c := range cases {
		toks, err := Lex(c.in)
		var got []string
		if err != nil {
			got = []string{"error"}
		}
		for _, tk := range toks {
			if tk.Kind != TokEOF {
				got = append(got, kinds[tk.Kind]+":"+tk.Text)
			}
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("Lex(%q) = %s, want %s", c.in, g, c.want)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := MustParse("SELECT a, b AS bee FROM t WHERE a = 1 GROUP BY a HAVING COUNT(*) > 2")
	if len(s.Items) != 2 || s.Items[1].Alias != "bee" {
		t.Errorf("items = %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Ref.Table != "t" {
		t.Errorf("from = %+v", s.From)
	}
	if s.Where == nil || len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("missing clauses")
	}
}

func TestParseJoins(t *testing.T) {
	s := MustParse(`SELECT * FROM a, b JOIN c ON a.x = c.x LEFT JOIN d ON c.y = d.y
		RIGHT OUTER JOIN e ON d.z = e.z FULL OUTER JOIN f ON e.w = f.w`)
	types := []JoinType{JoinComma, JoinComma, JoinInner, JoinLeft, JoinRight, JoinFull}
	if len(s.From) != len(types) {
		t.Fatalf("from count = %d", len(s.From))
	}
	for i, want := range types {
		if s.From[i].Join != want {
			t.Errorf("from[%d].Join = %v, want %v", i, s.From[i].Join, want)
		}
		if i >= 2 && s.From[i].On == nil {
			t.Errorf("from[%d] missing ON", i)
		}
	}
}

func TestParseSubqueries(t *testing.T) {
	s := MustParse(`SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)
		AND b IN (SELECT b FROM v) AND c NOT IN (1, 2, 3)
		AND d > (SELECT MAX(d) FROM w)`)
	conjs := SplitConjuncts(s.Where)
	if len(conjs) != 4 {
		t.Fatalf("conjuncts = %d, want 4", len(conjs))
	}
	if _, ok := conjs[0].(*Exists); !ok {
		t.Errorf("conj 0 = %T", conjs[0])
	}
	if in, ok := conjs[1].(*InSubquery); !ok || in.Not {
		t.Errorf("conj 1 = %T", conjs[1])
	}
	if in, ok := conjs[2].(*InList); !ok || !in.Not {
		t.Errorf("conj 2 = %T", conjs[2])
	}
	if b, ok := conjs[3].(*Binary); !ok || b.Op != ">" {
		t.Errorf("conj 3 = %T", conjs[3])
	} else if _, ok := b.R.(*ScalarSubquery); !ok {
		t.Errorf("conj 3 rhs = %T", b.R)
	}
}

func TestParseNotFolding(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
	ex, ok := s.Where.(*Exists)
	if !ok || !ex.Not {
		t.Errorf("NOT EXISTS should fold into Exists.Not, got %T", s.Where)
	}
}

func TestParseDateAndInterval(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE d >= DATE '1995-01-01' AND d < DATE '1995-01-01' + INTERVAL '90' DAY")
	conjs := SplitConjuncts(s.Where)
	b := conjs[0].(*Binary)
	lit := b.R.(*Literal)
	if lit.Val.Kind != relation.KindDate {
		t.Errorf("date literal kind = %v", lit.Val.Kind)
	}
	add := conjs[1].(*Binary).R.(*Binary)
	if add.Op != "+" {
		t.Errorf("interval arithmetic = %v", add.Op)
	}
	if iv := add.R.(*Literal); iv.Val != relation.Int(90) {
		t.Errorf("interval = %v", iv.Val)
	}
}

func TestParseCase(t *testing.T) {
	s := MustParse("SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END FROM t")
	c, ok := s.Items[0].Expr.(*Case)
	if !ok || len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case = %+v", s.Items[0].Expr)
	}
}

func TestParseAggregates(t *testing.T) {
	s := MustParse("SELECT COUNT(*), COUNT(DISTINCT a), SUM(b * c) FROM t")
	f0 := s.Items[0].Expr.(*FuncCall)
	if !f0.Star || f0.Name != "COUNT" {
		t.Errorf("f0 = %+v", f0)
	}
	f1 := s.Items[1].Expr.(*FuncCall)
	if !f1.Distinct {
		t.Errorf("f1 = %+v", f1)
	}
	f2 := s.Items[2].Expr.(*FuncCall)
	if f2.Name != "SUM" || len(f2.Args) != 1 {
		t.Errorf("f2 = %+v", f2)
	}
	aggs := CollectAggregates(s.Items[2].Expr)
	if len(aggs) != 1 {
		t.Errorf("CollectAggregates = %d", len(aggs))
	}
}

func TestParseUnionAll(t *testing.T) {
	s := MustParse("SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v")
	n := 0
	for cur := s; cur != nil; cur = cur.Union {
		n++
	}
	if n != 3 {
		t.Errorf("union arms = %d, want 3", n)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %T %v", s.Where, s.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != "AND" {
		t.Errorf("AND should bind tighter, got %T", or.R)
	}

	s2 := MustParse("SELECT 1 + 2 * 3 FROM t")
	add := s2.Items[0].Expr.(*Binary)
	if add.Op != "+" {
		t.Errorf("top arith = %v", add.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t trailing garbage (",
		"SELECT a FROM t WHERE a LIKE b",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT CASE END FROM t",
		"SELECT a FROM t JOIN u",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseNegativeLiteral(t *testing.T) {
	s := MustParse("SELECT -5, -2.5 FROM t")
	if s.Items[0].Expr.(*Literal).Val != relation.Int(-5) {
		t.Error("negative int literal not folded")
	}
	if s.Items[1].Expr.(*Literal).Val != relation.Float(-2.5) {
		t.Error("negative float literal not folded")
	}
}
