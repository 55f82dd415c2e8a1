package sql

import (
	"maps"
	"strings"

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
// correlated subqueries.
type Env struct {
	Binding Binding
	Row     relation.Tuple
	Parent  *Env
}

// SubqueryFn evaluates a subquery under env and returns its rows.
// Engines plug in their own implementation (the baseline engine runs the
// block recursively; the TAG engine runs a vertex program).
type SubqueryFn func(sub *Select, env *Env) (*relation.Relation, error)

// AggRef refers to the i-th precomputed aggregate of a group, which the
// group's row binds under AggKey(i). It is installed by
// RewriteAggregates and never produced by the parser.
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

// Aggregator accumulates one aggregate function incrementally; used by
// both engines and by the TAG eager-aggregation path. Its function is
// resolved to an op code once, so observing a row compares no names,
// and it is a plain value: callers may hold accumulators in slices and
// copy a fresh one from a template (a DISTINCT one makes its set on
// first use).
type Aggregator struct {
	fn       *FuncCall
	op       aggOp
	flags    byte // aggStar, aggDistinct: the wire's flags byte
	count    int64
	sum      exactSum
	min, max relation.Value
	distinct map[relation.Ident]struct{} // DISTINCT: the observed keys
}

// aggOp is an Aggregator's function; aggOther is a name no aggregate
// has, which counts rows and answers NULL.
type aggOp uint8

const (
	aggOther aggOp = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

const (
	aggStar     = 1 << iota // COUNT(*): NULLs count too
	aggDistinct             // fold the distinct values in Result
)

// aggOps maps the aggregate names to their op codes.
var aggOps = map[string]aggOp{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// NewAggregator prepares an accumulator for fn.
func NewAggregator(fn *FuncCall) *Aggregator {
	a := &Aggregator{fn: fn, op: aggOps[fn.Name]}
	if fn.Star {
		a.flags |= aggStar
	}
	if fn.Distinct {
		a.flags |= aggDistinct
	}
	return a
}

// Observe folds one input value (the evaluated argument; ignored for
// COUNT(*), where any value counts the row). DISTINCT aggregates defer
// folding to Result so that partial accumulators remain mergeable.
func (a *Aggregator) Observe(v relation.Value) {
	if v.Kind == relation.KindNull && a.flags&aggStar == 0 {
		return // SQL aggregates skip NULLs
	}
	if a.flags&aggDistinct != 0 {
		if a.distinct == nil {
			a.distinct = make(map[relation.Ident]struct{})
		}
		a.distinct[v.Ident()] = struct{}{}
		return
	}
	a.observeRaw(&v)
}

// observeRaw folds *v. It takes a pointer: a relation.Value is too
// large to travel in registers, and a whole copy of one just stored
// field by field stalls.
func (a *Aggregator) observeRaw(v *relation.Value) {
	a.count++
	switch a.op {
	case aggSum, aggAvg:
		a.sum.add(v)
	case aggMin:
		if a.min.IsNull() || v.Compare(a.min) < 0 {
			a.min = *v
		}
	case aggMax:
		if a.max.IsNull() || v.Compare(a.max) > 0 {
			a.max = *v
		}
	}
}

// Merge folds another partial accumulator of the same function into a,
// enabling the eager/partial aggregation of §7 (DISTINCT sets are
// unioned). Every merge is exact, so any order or grouping of merges
// over the same observations gives the same Result bits.
func (a *Aggregator) Merge(b *Aggregator) {
	if a.flags&aggDistinct != 0 {
		if len(b.distinct) > 0 && a.distinct == nil {
			a.distinct = make(map[relation.Ident]struct{}, len(b.distinct))
		}
		maps.Copy(a.distinct, b.distinct)
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
	if a.flags&aggDistinct != 0 {
		fold := Aggregator{fn: a.fn, op: a.op, flags: a.flags &^ aggDistinct}
		for id := range a.distinct {
			v := id.Value()
			fold.observeRaw(&v)
		}
		return fold.Result()
	}
	switch a.op {
	case aggCount:
		return relation.Int(a.count)
	case aggSum:
		switch {
		case a.count == 0:
			return relation.Null
		case a.sum.flags&sawFloat == 0:
			return relation.Int(a.sum.i)
		}
		return relation.Float(a.sum.float())
	case aggAvg:
		if a.count == 0 {
			return relation.Null
		}
		return relation.Float(a.sum.float() / float64(a.count))
	case aggMin:
		return a.min
	case aggMax:
		return a.max
	}
	return relation.Null
}
