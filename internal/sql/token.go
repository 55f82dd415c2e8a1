// Package sql implements the SQL frontend of the reproduction: a lexer,
// a recursive-descent parser producing an AST, a name-resolution analyzer,
// and an expression compiler, which turns each expression into a closure
// over one row shape, shared by the TAG-join executor and the baseline
// relational engines.
//
// The dialect covers the query shapes of the paper's TPC-H/TPC-DS
// workloads (§8.1.1): SELECT [DISTINCT] with expressions and aggregates,
// FROM with comma joins and INNER/LEFT/RIGHT/FULL OUTER JOIN ... ON,
// WHERE with AND/OR/NOT, comparisons, BETWEEN, IN (list or subquery),
// LIKE, EXISTS/NOT EXISTS, scalar subqueries (including correlated ones),
// GROUP BY and HAVING. ORDER BY and LIMIT are intentionally absent — the
// paper runs all queries without them.
package sql

import "fmt"

// TokKind classifies lexer tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokOp // = <> != < <= > >= + - * / ( ) , . ;
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string // keywords are upper-cased, identifiers preserved
	Pos  int    // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords recognized by the lexer (value is struct{} set).
var keywords = map[string]struct{}{
	"SELECT": {}, "DISTINCT": {}, "FROM": {}, "WHERE": {}, "GROUP": {},
	"BY": {}, "HAVING": {}, "AS": {}, "AND": {}, "OR": {}, "NOT": {},
	"IN": {}, "EXISTS": {}, "BETWEEN": {}, "LIKE": {}, "IS": {},
	"NULL": {}, "TRUE": {}, "FALSE": {}, "JOIN": {}, "INNER": {},
	"LEFT": {}, "RIGHT": {}, "FULL": {}, "OUTER": {}, "ON": {},
	"CASE": {}, "WHEN": {}, "THEN": {}, "ELSE": {}, "END": {},
	"DATE": {}, "INTERVAL": {}, "DAY": {}, "MONTH": {}, "YEAR": {},
	"UNION": {}, "ALL": {},
}
