package sql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/relation"
)

// Binding maps lower-cased "alias.column" keys to slot indexes in the row
// an executor supplies at evaluation time.
type Binding map[string]int

// BindKey builds the canonical binding key.
func BindKey(alias, column string) string {
	return strings.ToLower(alias) + "." + strings.ToLower(column)
}

// Env is the evaluation environment of one row, chained outward for
// correlated subqueries. Aggs holds precomputed aggregate values for
// AggRef nodes installed by RewriteAggregates.
type Env struct {
	Binding Binding
	Row     relation.Tuple
	Aggs    []relation.Value
	Parent  *Env
}

// SubqueryFn evaluates a subquery under env and returns its rows.
// Engines plug in their own implementation (the baseline engine runs the
// block recursively; the TAG engine runs a vertex program).
type SubqueryFn func(sub *Select, env *Env) (*relation.Relation, error)

// AggRef refers to the i-th precomputed aggregate in Env.Aggs. It is
// installed by RewriteAggregates and never produced by the parser.
type AggRef struct{ Slot int }

func (*AggRef) exprNode() {}

// RewriteAggregates returns a copy of e in which every aggregate FuncCall
// is replaced by an AggRef with the slot assigned by slotOf. The input
// tree is not mutated (query ASTs are shared between engines).
func RewriteAggregates(e Expr, slotOf func(*FuncCall) int) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Literal, *ColRef, *AggRef, *Exists, *InSubquery, *ScalarSubquery:
		return e
	case *Unary:
		return &Unary{Op: x.Op, X: RewriteAggregates(x.X, slotOf)}
	case *Binary:
		return &Binary{Op: x.Op, L: RewriteAggregates(x.L, slotOf), R: RewriteAggregates(x.R, slotOf)}
	case *Between:
		return &Between{X: RewriteAggregates(x.X, slotOf), Lo: RewriteAggregates(x.Lo, slotOf), Hi: RewriteAggregates(x.Hi, slotOf), Not: x.Not}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			list[i] = RewriteAggregates(it, slotOf)
		}
		return &InList{X: RewriteAggregates(x.X, slotOf), List: list, Not: x.Not}
	case *Like:
		return &Like{X: RewriteAggregates(x.X, slotOf), Pattern: x.Pattern, Not: x.Not}
	case *IsNull:
		return &IsNull{X: RewriteAggregates(x.X, slotOf), Not: x.Not}
	case *Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: RewriteAggregates(w.Cond, slotOf), Then: RewriteAggregates(w.Then, slotOf)}
		}
		return &Case{Whens: whens, Else: RewriteAggregates(x.Else, slotOf)}
	case *FuncCall:
		if x.IsAggregate() {
			return &AggRef{Slot: slotOf(x)}
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteAggregates(a, slotOf)
		}
		return &FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: args}
	}
	return e
}

// Eval evaluates e under env with SQL three-valued logic. Comparisons
// involving NULL yield NULL; filters must treat anything but TRUE as
// non-qualifying. subq may be nil if e contains no subqueries.
func Eval(e Expr, env *Env, subq SubqueryFn) (relation.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *AggRef:
		for sc := env; sc != nil; sc = sc.Parent {
			if x.Slot < len(sc.Aggs) {
				return sc.Aggs[x.Slot], nil
			}
		}
		return relation.Null, fmt.Errorf("sql: unbound aggregate slot %d", x.Slot)
	case *ColRef:
		key := x.Key
		if key == "" {
			key = BindKey(x.Alias, x.Column) // built by hand, not analyzed
		}
		scope := env
		for d := 0; d < x.Depth; d++ {
			if scope == nil {
				break
			}
			scope = scope.Parent
		}
		for ; scope != nil; scope = scope.Parent {
			if i, ok := scope.Binding[key]; ok {
				return scope.Row[i], nil
			}
		}
		return relation.Null, fmt.Errorf("sql: unbound column %s.%s", x.Alias, x.Column)
	case *Unary:
		v, err := Eval(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return relation.Null, nil
			}
			return relation.Bool(!v.AsBool()), nil
		case "-":
			return relation.Sub(relation.Int(0), v), nil
		}
		return relation.Null, fmt.Errorf("sql: unknown unary op %q", x.Op)
	case *Binary:
		return evalBinary(x, env, subq)
	case *Between:
		v, err := Eval(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		lo, err := Eval(x.Lo, env, subq)
		if err != nil {
			return relation.Null, err
		}
		hi, err := Eval(x.Hi, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return relation.Null, nil
		}
		in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		return relation.Bool(in != x.Not), nil
	case *InList:
		v, err := Eval(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() {
			return relation.Null, nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := Eval(item, env, subq)
			if err != nil {
				return relation.Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if v.Equal(iv) {
				return relation.Bool(!x.Not), nil
			}
		}
		if sawNull {
			return relation.Null, nil
		}
		return relation.Bool(x.Not), nil
	case *InSubquery:
		if subq == nil {
			return relation.Null, fmt.Errorf("sql: subquery evaluation not available")
		}
		v, err := Eval(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() {
			return relation.Null, nil
		}
		rows, err := subq(x.Sub, env)
		if err != nil {
			return relation.Null, err
		}
		sawNull := false
		for _, t := range rows.Tuples {
			if t[0].IsNull() {
				sawNull = true
				continue
			}
			if v.Equal(t[0]) {
				return relation.Bool(!x.Not), nil
			}
		}
		if sawNull {
			return relation.Null, nil
		}
		return relation.Bool(x.Not), nil
	case *Exists:
		if subq == nil {
			return relation.Null, fmt.Errorf("sql: subquery evaluation not available")
		}
		rows, err := subq(x.Sub, env)
		if err != nil {
			return relation.Null, err
		}
		return relation.Bool((rows.Len() > 0) != x.Not), nil
	case *ScalarSubquery:
		if subq == nil {
			return relation.Null, fmt.Errorf("sql: subquery evaluation not available")
		}
		rows, err := subq(x.Sub, env)
		if err != nil {
			return relation.Null, err
		}
		if rows.Len() == 0 {
			return relation.Null, nil
		}
		if rows.Len() > 1 {
			return relation.Null, fmt.Errorf("sql: scalar subquery returned %d rows", rows.Len())
		}
		return rows.Tuples[0][0], nil
	case *Like:
		v, err := Eval(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() {
			return relation.Null, nil
		}
		return relation.Bool(MatchLike(v.String(), x.Pattern) != x.Not), nil
	case *IsNull:
		v, err := Eval(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		return relation.Bool(v.IsNull() != x.Not), nil
	case *Case:
		for _, w := range x.Whens {
			c, err := Eval(w.Cond, env, subq)
			if err != nil {
				return relation.Null, err
			}
			if c.AsBool() {
				return Eval(w.Then, env, subq)
			}
		}
		if x.Else != nil {
			return Eval(x.Else, env, subq)
		}
		return relation.Null, nil
	case *FuncCall:
		if x.IsAggregate() {
			return relation.Null, fmt.Errorf("sql: aggregate %s outside aggregation context", x.Name)
		}
		return evalScalarFunc(x, env, subq)
	}
	return relation.Null, fmt.Errorf("sql: cannot evaluate %T", e)
}

func evalBinary(x *Binary, env *Env, subq SubqueryFn) (relation.Value, error) {
	// Three-valued AND/OR with short-circuiting.
	switch x.Op {
	case "AND", "OR":
		l, err := Eval(x.L, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if x.Op == "AND" && !l.IsNull() && !l.AsBool() {
			return relation.Bool(false), nil
		}
		if x.Op == "OR" && l.AsBool() {
			return relation.Bool(true), nil
		}
		r, err := Eval(x.R, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if x.Op == "AND" {
			if !r.IsNull() && !r.AsBool() {
				return relation.Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return relation.Null, nil
			}
			return relation.Bool(true), nil
		}
		if r.AsBool() {
			return relation.Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		return relation.Bool(false), nil
	}

	l, err := Eval(x.L, env, subq)
	if err != nil {
		return relation.Null, err
	}
	r, err := Eval(x.R, env, subq)
	if err != nil {
		return relation.Null, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		c := l.Compare(r)
		var ok bool
		switch x.Op {
		case "=":
			ok = c == 0
		case "<>":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		}
		return relation.Bool(ok), nil
	case "+":
		return relation.Add(l, r), nil
	case "-":
		return relation.Sub(l, r), nil
	case "*":
		return relation.Mul(l, r), nil
	case "/":
		return relation.Div(l, r), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		return relation.Str(l.String() + r.String()), nil
	}
	return relation.Null, fmt.Errorf("sql: unknown operator %q", x.Op)
}

func evalScalarFunc(x *FuncCall, env *Env, subq SubqueryFn) (relation.Value, error) {
	switch x.Name {
	case "YEAR", "MONTH", "DAY":
		if len(x.Args) != 1 {
			return relation.Null, fmt.Errorf("sql: %s takes one argument", x.Name)
		}
		v, err := Eval(x.Args[0], env, subq)
		if err != nil || v.IsNull() {
			return relation.Null, err
		}
		t := time.Unix(v.AsInt()*86400, 0).UTC()
		switch x.Name {
		case "YEAR":
			return relation.Int(int64(t.Year())), nil
		case "MONTH":
			return relation.Int(int64(t.Month())), nil
		default:
			return relation.Int(int64(t.Day())), nil
		}
	}
	return relation.Null, fmt.Errorf("sql: unknown function %s", x.Name)
}

// MatchLike implements SQL LIKE with % (any run) and _ (any one byte)
// wildcards, matching greedily with backtracking.
func MatchLike(s, pattern string) bool {
	var match func(si, pi int) bool
	match = func(si, pi int) bool {
		for pi < len(pattern) {
			switch pattern[pi] {
			case '%':
				// Collapse consecutive %.
				for pi < len(pattern) && pattern[pi] == '%' {
					pi++
				}
				if pi == len(pattern) {
					return true
				}
				for k := si; k <= len(s); k++ {
					if match(k, pi) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(s) {
					return false
				}
				si++
				pi++
			default:
				if si >= len(s) || s[si] != pattern[pi] {
					return false
				}
				si++
				pi++
			}
		}
		return si == len(s)
	}
	return match(0, 0)
}

// Aggregator accumulates one aggregate function incrementally; used by
// both engines and by the TAG eager-aggregation path.
type Aggregator struct {
	fn       *FuncCall
	count    int64
	sum      exactSum
	min, max relation.Value
	distinct map[relation.Value]struct{}
}

// NewAggregator prepares an accumulator for fn.
func NewAggregator(fn *FuncCall) *Aggregator {
	a := &Aggregator{fn: fn, min: relation.Null, max: relation.Null}
	if fn.Distinct {
		a.distinct = make(map[relation.Value]struct{})
	}
	return a
}

// Observe folds one input value (the evaluated argument; ignored for
// COUNT(*), where any value counts the row). DISTINCT aggregates defer
// folding to Result so that partial accumulators remain mergeable.
func (a *Aggregator) Observe(v relation.Value) {
	if !a.fn.Star && v.IsNull() {
		return // SQL aggregates skip NULLs
	}
	if a.distinct != nil {
		a.distinct[v.Key()] = struct{}{}
		return
	}
	a.observeRaw(v)
}

func (a *Aggregator) observeRaw(v relation.Value) {
	a.count++
	switch {
	case a.fn.Name == "SUM" || a.fn.Name == "AVG":
		a.sum.add(v)
	case a.fn.Name == "MIN" && (a.min.IsNull() || v.Compare(a.min) < 0):
		a.min = v
	case a.fn.Name == "MAX" && (a.max.IsNull() || v.Compare(a.max) > 0):
		a.max = v
	}
}

// Merge folds another partial accumulator of the same function into a,
// enabling the eager/partial aggregation of §7 (DISTINCT sets are
// unioned). Every merge is exact, so any order or grouping of merges
// over the same observations gives the same Result bits.
func (a *Aggregator) Merge(b *Aggregator) {
	if a.distinct != nil {
		for v := range b.distinct {
			a.distinct[v] = struct{}{}
		}
		return
	}
	a.count += b.count
	a.sum.merge(&b.sum)
	if !b.min.IsNull() && (a.min.IsNull() || b.min.Compare(a.min) < 0) {
		a.min = b.min
	}
	if !b.max.IsNull() && (a.max.IsNull() || b.max.Compare(a.max) > 0) {
		a.max = b.max
	}
}

// Result returns the aggregate's final value. A SUM is INT while only
// INTs were observed; a float SUM is the exact sum rounded once, and
// AVG is that sum over the count.
func (a *Aggregator) Result() relation.Value {
	if a.distinct != nil {
		fold := NewAggregator(&FuncCall{Name: a.fn.Name, Star: a.fn.Star})
		for v := range a.distinct {
			fold.observeRaw(v)
		}
		return fold.Result()
	}
	switch a.fn.Name {
	case "COUNT":
		return relation.Int(a.count)
	case "SUM":
		switch {
		case a.count == 0:
			return relation.Null
		case a.sum.flags&sawFloat == 0:
			return relation.Int(a.sum.i)
		}
		return relation.Float(a.sum.float())
	case "AVG":
		if a.count == 0 {
			return relation.Null
		}
		return relation.Float(a.sum.float() / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return relation.Null
}
