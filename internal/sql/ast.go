package sql

import (
	"strings"

	"repro/internal/relation"
)

// Expr is a SQL expression AST node.
type Expr interface{ exprNode() }

// Literal is a constant value.
type Literal struct{ Val relation.Value }

// ColRef is a (possibly qualified) column reference. The analyzer fills
// the resolution fields: Alias is the binding table alias, Table the real
// relation name, Depth how many query scopes outward the binding lives
// (0 = current query, 1 = immediately enclosing query, ...), and Key the
// reference's Binding key, BindKey(Alias, Column).
type ColRef struct {
	Qualifier string // as written; "" if unqualified
	Column    string

	// Set by Analyze:
	Alias string
	Table string
	Depth int
	Key   string
}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

// Binary is a binary operation: AND OR = <> < <= > >= + - * / ||.
type Binary struct {
	Op   string
	L, R Expr
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

// InSubquery is x [NOT] IN (SELECT ...).
type InSubquery struct {
	X   Expr
	Sub *Select
	Not bool
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Sub *Select
	Not bool
}

// ScalarSubquery is a subquery used as a value.
type ScalarSubquery struct{ Sub *Select }

// Like is x [NOT] LIKE 'pattern' with % and _ wildcards.
type Like struct {
	X       Expr
	Pattern string
	Not     bool
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// When is one CASE arm.
type When struct{ Cond, Then Expr }

// Case is CASE WHEN ... THEN ... [ELSE ...] END (searched form).
type Case struct {
	Whens []When
	Else  Expr
}

// FuncCall is an aggregate (SUM/COUNT/AVG/MIN/MAX) or scalar function
// (YEAR/MONTH) application. Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Distinct bool
	Star     bool
	Args     []Expr
}

func (*Literal) exprNode()        {}
func (*ColRef) exprNode()         {}
func (*Unary) exprNode()          {}
func (*Binary) exprNode()         {}
func (*Between) exprNode()        {}
func (*InList) exprNode()         {}
func (*InSubquery) exprNode()     {}
func (*Exists) exprNode()         {}
func (*ScalarSubquery) exprNode() {}
func (*Like) exprNode()           {}
func (*IsNull) exprNode()         {}
func (*Case) exprNode()           {}
func (*FuncCall) exprNode()       {}

// IsAggregate reports whether the function name is an aggregate.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "SUM", "COUNT", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// JoinType distinguishes the FROM-clause join forms.
type JoinType int

// Join types; JoinComma covers both the leading table and comma joins,
// whose join predicates live in WHERE.
const (
	JoinComma JoinType = iota
	JoinInner
	JoinLeft
	JoinRight
	JoinFull
)

func (j JoinType) String() string {
	switch j {
	case JoinComma:
		return ","
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	}
	return "?"
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// Key returns the lower-cased binding alias.
func (t TableRef) Key() string {
	if t.Alias != "" {
		return strings.ToLower(t.Alias)
	}
	return strings.ToLower(t.Table)
}

// FromItem is one entry of the FROM clause: the first item and comma items
// have JoinComma and nil On.
type FromItem struct {
	Ref  TableRef
	Join JoinType
	On   Expr
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// Select is a (sub)query block. UNION ALL chains are held in Union.
type Select struct {
	Distinct bool
	Star     bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	Union    *Select // next arm of a UNION ALL chain, if any
}

// walkExpr applies fn to e and all children (pre-order); fn returning
// false prunes the subtree.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		walkExpr(x.X, fn)
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *Between:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *InList:
		walkExpr(x.X, fn)
		for _, it := range x.List {
			walkExpr(it, fn)
		}
	case *InSubquery:
		walkExpr(x.X, fn)
	case *Like:
		walkExpr(x.X, fn)
	case *IsNull:
		walkExpr(x.X, fn)
	case *Case:
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Then, fn)
		}
		walkExpr(x.Else, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	}
}

// CollectAggregates returns the aggregate FuncCall nodes in e, in
// pre-order. walkExpr never descends into subquery bodies, so aggregates
// inside nested SELECTs are not reported (they belong to their own block).
func CollectAggregates(e Expr) []*FuncCall {
	var out []*FuncCall
	walkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			out = append(out, f)
			return false // aggregate args are evaluated per input row
		}
		return true
	})
	return out
}

// ColRefs returns the column references in e (current scope and outer).
// Subquery bodies are not descended into, but the comparison side of
// IN (SELECT ...) is.
func ColRefs(e Expr) []*ColRef {
	var out []*ColRef
	walkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// SplitConjuncts flattens a chain of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// SplitDisjuncts flattens a chain of ORs into its disjuncts.
func SplitDisjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "OR" {
		return append(SplitDisjuncts(b.L), SplitDisjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll rebuilds a conjunction from parts (nil for empty).
func AndAll(parts []Expr) Expr {
	var out Expr
	for _, p := range parts {
		if out == nil {
			out = p
		} else {
			out = &Binary{Op: "AND", L: out, R: p}
		}
	}
	return out
}
