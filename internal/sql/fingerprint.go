package sql

import (
	"strconv"
	"strings"
)

// Fingerprint returns a normalized form of a SQL string suitable as a
// prepared-statement cache key: two queries that differ only in
// whitespace, keyword/identifier case, or numeric literal spelling map
// to the same fingerprint. Literal *values* are preserved — the analyzed
// plan depends on them (e.g. decorrelation lookup tables), so only
// lexical noise is folded, never semantics.
//
// Fingerprint is token-exact: it fails (returning the error from the
// lexer) on input the dialect cannot tokenize, so cache keys are only
// ever built from lexable queries.
func Fingerprint(query string) (string, error) {
	toks, err := Lex(query)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(len(query))
	for i, t := range toks {
		if t.Kind == TokEOF {
			break
		}
		if i > 0 && needsSpace(toks[i-1], t) {
			b.WriteByte(' ')
		}
		switch t.Kind {
		case TokKeyword:
			b.WriteString(t.Text) // already upper-cased by the lexer
		case TokIdent:
			b.WriteString(strings.ToLower(t.Text))
		case TokInt:
			b.WriteString(t.Text)
		case TokFloat:
			// Fold "1.50" / "1.5" / "15e-1" to one spelling, one that
			// still lexes as a float: "2.0" folds to "2.0", not "2".
			if f, ferr := strconv.ParseFloat(t.Text, 64); ferr == nil {
				g := strconv.FormatFloat(f, 'g', -1, 64)
				b.WriteString(g)
				if !strings.ContainsAny(g, ".e") {
					b.WriteString(".0")
				}
			} else {
				b.WriteString(t.Text)
			}
		case TokString:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.Text, "'", "''"))
			b.WriteByte('\'')
		default:
			b.WriteString(t.Text)
		}
	}
	return b.String(), nil
}

// needsSpace reports whether a separator is required between two adjacent
// normalized tokens so that re-lexing the fingerprint yields the same
// token stream (words must not fuse; operators never fuse with words in
// this dialect).
func needsSpace(prev, cur Token) bool {
	wordy := func(t Token) bool {
		switch t.Kind {
		case TokKeyword, TokIdent, TokInt, TokFloat, TokString:
			return true
		}
		return false
	}
	if wordy(prev) && wordy(cur) {
		return true
	}
	// Adjacent operators that would fuse into a longer one, or into a
	// line comment.
	if prev.Kind == TokOp && cur.Kind == TokOp {
		switch prev.Text + cur.Text {
		case "<>", "<=", ">=", "--":
			return true
		}
	}
	// Keep "a . b" unfused but compact: dots and commas bind tightly.
	switch cur.Text {
	case ".", ",", ")", ";":
		return false
	}
	if prev.Text == "." {
		// "1 . 5" must not fuse into the float 1.5.
		return cur.Kind == TokInt || cur.Kind == TokFloat
	}
	if prev.Text == "(" {
		return false
	}
	return wordy(prev) || wordy(cur)
}
