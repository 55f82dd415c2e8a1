package sql

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/relation"
)

// Compiled is an expression resolved against one row shape. It evaluates
// the expression for row, whose slots follow the Binding it was compiled
// with, under the outer scope chain, with SQL three-valued logic: a
// comparison involving NULL yields NULL, and a filter must treat anything
// but TRUE as non-qualifying. subq may be nil if the expression holds no
// subquery. A Compiled holds no mutable state, so any number of
// goroutines may call it at once.
type Compiled func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error)

// AggKey is the Binding key of the i-th aggregate value: a row that
// carries a group's aggregates after its columns binds AggRef{Slot: i}
// through it.
func AggKey(i int) string {
	if i < len(aggKeys) {
		return aggKeys[i] // no allocation for the common counts
	}
	return "#agg." + strconv.Itoa(i)
}

var aggKeys = [...]string{"#agg.0", "#agg.1", "#agg.2", "#agg.3", "#agg.4", "#agg.5", "#agg.6", "#agg.7"}

// Compile resolves e against b once, so that evaluating it per row does
// no name lookup. A depth-0 ColRef or an AggRef bound in b becomes a row
// slot; any other column reference walks the outer Env chain when it runs,
// exactly as an Env built for the row would. Constant subtrees are
// folded to their values. Errors are raised when the failing node runs,
// not here, so a compiled expression fails on the same rows as its tree.
// e is not mutated.
func Compile(e Expr, b Binding) Compiled {
	n := compile(e, b)
	if n.eval == nil {
		return func(relation.Tuple, *Env, SubqueryFn) (relation.Value, error) { return n.val, nil }
	}
	return n.eval
}

// CompileAll compiles each of exprs against b.
func CompileAll(exprs []Expr, b Binding) []Compiled {
	out := make([]Compiled, len(exprs))
	for i, e := range exprs {
		out[i] = Compile(e, b)
	}
	return out
}

// Holds reports whether every predicate is TRUE for row, evaluating them
// in order up to the first that is not.
func Holds(preds []Compiled, row relation.Tuple, outer *Env, subq SubqueryFn) (bool, error) {
	for _, p := range preds {
		if v, err := p(row, outer, subq); err != nil || !v.AsBool() {
			return false, err
		}
	}
	return true, nil
}

// EvalAll evaluates each of fns for row, into a new tuple.
func EvalAll(fns []Compiled, row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Tuple, error) {
	out := make(relation.Tuple, len(fns))
	for i, f := range fns {
		var err error
		if out[i], err = f(row, outer, subq); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Eval evaluates e under env (see Compiled): a one-shot compile and run
// for callers outside the per-row loops.
func Eval(e Expr, env *Env, subq SubqueryFn) (relation.Value, error) {
	return Compile(e, env.Binding)(env.Row, env.Parent, subq)
}

// node is one compiled subtree: its closure, or no closure and the value
// it folded to. konst marks a subtree that reads no row, scope,
// aggregate or subquery.
type node struct {
	eval  Compiled
	val   relation.Value
	konst bool
	col   int // 1 + the row slot a bound column reads; 0 otherwise
}

// get evaluates the node; a folded one costs no call.
func (n node) get(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
	if n.eval == nil {
		return n.val, nil
	}
	return n.eval(row, outer, subq)
}

// fold evaluates a constant node once. One that fails keeps its closure,
// so the error is raised per row as before.
func fold(eval Compiled, konst bool) node {
	if konst {
		if v, err := eval(nil, nil, nil); err == nil {
			return node{val: v, konst: true}
		}
	}
	return node{eval: eval, konst: konst}
}

func failing(err error) node {
	return node{eval: func(relation.Tuple, *Env, SubqueryFn) (relation.Value, error) { return relation.Null, err }}
}

// slotFns[i] reads row slot i. They are built once, so resolving a
// column allocates nothing.
var slotFns = func() (fns [256]Compiled) {
	for i := range fns {
		fns[i] = func(row relation.Tuple, _ *Env, _ SubqueryFn) (relation.Value, error) { return row[i], nil }
	}
	return fns
}()

func slot(i int) node {
	if i >= 0 && i < len(slotFns) {
		return node{eval: slotFns[i], col: i + 1}
	}
	return node{eval: func(row relation.Tuple, _ *Env, _ SubqueryFn) (relation.Value, error) { return row[i], nil }, col: i + 1}
}

// Lookup finds key in the innermost scope of the chain that binds it.
func (env *Env) Lookup(key string) (relation.Value, bool) {
	for ; env != nil; env = env.Parent {
		if i, ok := env.Binding[key]; ok {
			return env.Row[i], true
		}
	}
	return relation.Null, false
}

// unary compiles a node that applies f to the value of its operand x.
func unary(x node, f func(relation.Value) (relation.Value, error)) node {
	return fold(func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
		v, err := x.get(row, outer, subq)
		if err != nil {
			return relation.Null, err
		}
		return f(v)
	}, x.konst)
}

// subquery compiles a subquery node, which runs sub under an Env it
// builds for the row only then, and answers from sub's rows, the value
// of its operand x (a NULL x answers NULL) and its NOT.
func subquery(sub *Select, b Binding, x node, not bool, answer func(xv relation.Value, rows *relation.Relation, not bool) (relation.Value, error)) node {
	return node{eval: func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
		if subq == nil {
			return relation.Null, fmt.Errorf("sql: subquery evaluation not available")
		}
		v, err := x.get(row, outer, subq)
		if err != nil || v.IsNull() {
			return relation.Null, err
		}
		rows, err := subq(sub, &Env{Binding: b, Row: row, Parent: outer})
		if err != nil {
			return relation.Null, err
		}
		return answer(v, rows, not)
	}}
}

// noOperand stands in for the operand of a subquery node that has none.
var noOperand = node{val: relation.Bool(true), konst: true}

func compile(e Expr, b Binding) node {
	switch x := e.(type) {
	case *Literal:
		return node{val: x.Val, konst: true}
	case *ColRef:
		key := x.Key
		if key == "" {
			key = BindKey(x.Alias, x.Column) // built by hand, not analyzed
		}
		if i, ok := b[key]; ok && x.Depth <= 0 {
			return slot(i)
		}
		return node{eval: func(_ relation.Tuple, outer *Env, _ SubqueryFn) (relation.Value, error) {
			scope := outer
			for d := 1; d < x.Depth && scope != nil; d++ {
				scope = scope.Parent
			}
			if v, ok := scope.Lookup(key); ok {
				return v, nil
			}
			return relation.Null, fmt.Errorf("sql: unbound column %s.%s", x.Alias, x.Column)
		}}
	case *AggRef:
		if i, ok := b[AggKey(x.Slot)]; ok {
			return slot(i)
		}
		return failing(fmt.Errorf("sql: unbound aggregate slot %d", x.Slot))
	case *Unary:
		switch x.Op {
		case "NOT":
			return unary(compile(x.X, b), func(v relation.Value) (relation.Value, error) {
				if v.IsNull() {
					return relation.Null, nil
				}
				return relation.Bool(!v.AsBool()), nil
			})
		case "-":
			return unary(compile(x.X, b), func(v relation.Value) (relation.Value, error) {
				return relation.Sub(relation.Int(0), v), nil
			})
		}
		err := fmt.Errorf("sql: unknown unary op %q", x.Op)
		return unary(compile(x.X, b), func(relation.Value) (relation.Value, error) { return relation.Null, err })
	case *Binary:
		return compileBinary(x, b)
	case *Between:
		ns, not := [3]node{compile(x.X, b), compile(x.Lo, b), compile(x.Hi, b)}, x.Not
		return fold(func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
			var vals [3]relation.Value // x, lo, hi
			for i := range ns {
				var err error
				if vals[i], err = ns[i].get(row, outer, subq); err != nil {
					return relation.Null, err
				}
			}
			if vals[0].IsNull() || vals[1].IsNull() || vals[2].IsNull() {
				return relation.Null, nil
			}
			in := vals[0].Compare(vals[1]) >= 0 && vals[0].Compare(vals[2]) <= 0
			return relation.Bool(in != not), nil
		}, ns[0].konst && ns[1].konst && ns[2].konst)
	case *InList:
		return compileInList(x, b)
	case *InSubquery:
		return subquery(x.Sub, b, compile(x.X, b), x.Not, func(v relation.Value, rows *relation.Relation, not bool) (relation.Value, error) {
			return inRows(rows, v, not), nil
		})
	case *Exists:
		return subquery(x.Sub, b, noOperand, x.Not, func(_ relation.Value, rows *relation.Relation, not bool) (relation.Value, error) {
			return relation.Bool((rows.Len() > 0) != not), nil
		})
	case *ScalarSubquery:
		return subquery(x.Sub, b, noOperand, false, func(_ relation.Value, rows *relation.Relation, _ bool) (relation.Value, error) {
			switch rows.Len() {
			case 0:
				return relation.Null, nil
			case 1:
				return rows.Tuples[0][0], nil
			}
			return relation.Null, fmt.Errorf("sql: scalar subquery returned %d rows", rows.Len())
		})
	case *Like:
		pattern, not := x.Pattern, x.Not
		return unary(compile(x.X, b), func(v relation.Value) (relation.Value, error) {
			if v.IsNull() {
				return relation.Null, nil
			}
			return relation.Bool(MatchLike(v.String(), pattern) != not), nil
		})
	case *IsNull:
		not := x.Not
		return unary(compile(x.X, b), func(v relation.Value) (relation.Value, error) {
			return relation.Bool(v.IsNull() != not), nil
		})
	case *Case:
		return compileCase(x, b)
	case *FuncCall:
		return compileFunc(x, b)
	}
	return failing(fmt.Errorf("sql: cannot evaluate %T", e))
}

func compileBinary(x *Binary, b Binding) node {
	l, r := compile(x.L, b), compile(x.R, b)
	konst := l.konst && r.konst
	if x.Op == "AND" || x.Op == "OR" {
		// Three-valued logic, short-circuiting on a decisive left side:
		// FALSE for AND, TRUE for OR.
		and := x.Op == "AND"
		return fold(func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
			lv, err := l.get(row, outer, subq)
			if err != nil {
				return relation.Null, err
			}
			rv := lv
			if !decisive(and, lv) {
				if rv, err = r.get(row, outer, subq); err != nil {
					return relation.Null, err
				}
			}
			switch {
			case decisive(and, rv):
				return relation.Bool(!and), nil
			case lv.IsNull() || rv.IsNull():
				return relation.Null, nil
			}
			return relation.Bool(and), nil
		}, konst)
	}
	op, ok := binaryOps[x.Op]
	if !ok {
		err := fmt.Errorf("sql: unknown operator %q", x.Op)
		op = &binop{fn: func(relation.Value, relation.Value) (relation.Value, error) { return relation.Null, err }}
	}
	// Direct kernels: an operand that is a column reads its row slot in
	// place, one that is a constant is its value, and a subtree is
	// called directly, without node.get's hops; the common operand kinds
	// are answered inline (binop.inline). A kernel that reads a column
	// never folds.
	i, j, lv, rv, le, re := l.col-1, r.col-1, l.val, r.val, l.eval, r.eval
	switch {
	case l.col > 0 && re == nil: // column OP constant: the common filter shape
		return node{eval: func(row relation.Tuple, _ *Env, _ SubqueryFn) (relation.Value, error) {
			c := rv // a copy: rv's address would move it to the heap
			if k, n, f, ok := op.inline(&row[i], &c); ok {
				return relation.Value{Kind: k, I: n, F: f}, nil
			}
			return op.fn(row[i], rv)
		}}
	case le == nil && r.col > 0: // constant OP column: 1 - l_discount
		return node{eval: func(row relation.Tuple, _ *Env, _ SubqueryFn) (relation.Value, error) {
			c := lv
			if k, n, f, ok := op.inline(&c, &row[j]); ok {
				return relation.Value{Kind: k, I: n, F: f}, nil
			}
			return op.fn(lv, row[j])
		}}
	case l.col > 0 && r.col > 0: // column OP column
		return node{eval: func(row relation.Tuple, _ *Env, _ SubqueryFn) (relation.Value, error) {
			if k, n, f, ok := op.inline(&row[i], &row[j]); ok {
				return relation.Value{Kind: k, I: n, F: f}, nil
			}
			return op.fn(row[i], row[j])
		}}
	case l.col > 0: // column OP subtree: l_extendedprice * (1 - l_discount)
		return node{eval: func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
			x, err := re(row, outer, subq)
			if err != nil {
				return relation.Null, err
			}
			if k, n, f, ok := op.inline(&row[i], &x); ok {
				return relation.Value{Kind: k, I: n, F: f}, nil
			}
			return op.fn(row[i], x)
		}}
	case r.col > 0: // subtree OP column
		return node{eval: func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
			x, err := le(row, outer, subq)
			if err != nil {
				return relation.Null, err
			}
			if k, n, f, ok := op.inline(&x, &row[j]); ok {
				return relation.Value{Kind: k, I: n, F: f}, nil
			}
			return op.fn(x, row[j])
		}}
	}
	// Constants and subtrees: a subtree's value is assigned in place
	// rather than passed on through node.get, whose forwarding copy of
	// it stalls.
	return fold(func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
		x, y := lv, rv
		var err error
		if le != nil {
			if x, err = le(row, outer, subq); err != nil {
				return relation.Null, err
			}
		}
		if re != nil {
			if y, err = re(row, outer, subq); err != nil {
				return relation.Null, err
			}
		}
		if k, n, f, ok := op.inline(&x, &y); ok {
			return relation.Value{Kind: k, I: n, F: f}, nil
		}
		return op.fn(x, y)
	}, konst)
}

// decisive reports whether v decides an AND (it is FALSE, not NULL) or
// an OR (it is TRUE) on its own.
func decisive(and bool, v relation.Value) bool {
	return v.AsBool() != and && !(and && v.IsNull())
}

// binop is a non-logical binary operator: its value function, and what
// the kernels answer inline, without a call, for the common operand
// kinds: for + - *, arith is the operator; for a comparison, truth is
// its outcome per Compare result, offset by one.
type binop struct {
	fn    func(l, r relation.Value) (relation.Value, error)
	arith byte
	cmp   bool
	truth [3]bool
}

// inline answers o for *l and *r as o.fn would, when both are INT or
// FLOAT (arithmetic) or both INT or both DATE (comparison), as the
// answer's kind and payload; ok is false otherwise. No relation.Value
// crosses the call whole: one is too large for the compiler to keep in
// registers, and copying one whole right after it was stored field by
// field stalls the load.
func (o *binop) inline(l, r *relation.Value) (k relation.Kind, n int64, f float64, ok bool) {
	lk, rk := l.Kind, r.Kind
	if o.cmp {
		if lk != rk || lk != relation.KindInt && lk != relation.KindDate {
			return 0, 0, 0, false
		}
		c := 1
		if l.I < r.I {
			c = 0
		} else if l.I > r.I {
			c = 2
		}
		if o.truth[c] {
			n = 1
		}
		return relation.KindBool, n, 0, true
	}
	a, b := l.F, r.F
	switch {
	case o.arith == 0:
		return 0, 0, 0, false
	case lk == relation.KindInt && rk == relation.KindInt:
		switch o.arith {
		case '+':
			return relation.KindInt, l.I + r.I, 0, true
		case '-':
			return relation.KindInt, l.I - r.I, 0, true
		}
		return relation.KindInt, l.I * r.I, 0, true
	case lk == relation.KindInt && rk == relation.KindFloat:
		a = float64(l.I)
	case lk == relation.KindFloat && rk == relation.KindInt:
		b = float64(r.I)
	case lk != relation.KindFloat || rk != relation.KindFloat:
		return 0, 0, 0, false
	}
	switch o.arith {
	case '+':
		a += b
	case '-':
		a -= b
	default:
		a *= b
	}
	return relation.KindFloat, 0, a, true
}

// compareOp is a comparison operator given its outcome for each Compare
// result (-1, 0, 1), offset by one.
func compareOp(truth [3]bool) *binop {
	return &binop{cmp: true, truth: truth, fn: func(l, r relation.Value) (relation.Value, error) {
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		return relation.Bool(truth[l.Compare(r)+1]), nil
	}}
}

// arithOp is the arithmetic operator sym, whose value function is f.
func arithOp(sym byte, f func(l, r relation.Value) relation.Value) *binop {
	return &binop{arith: sym, fn: func(l, r relation.Value) (relation.Value, error) { return f(l, r), nil }}
}

// binaryOps are the non-logical binary operators.
var binaryOps = map[string]*binop{
	"=":  compareOp([3]bool{false, true, false}),
	"<>": compareOp([3]bool{true, false, true}),
	"<":  compareOp([3]bool{true, false, false}),
	"<=": compareOp([3]bool{true, true, false}),
	">":  compareOp([3]bool{false, false, true}),
	">=": compareOp([3]bool{false, true, true}),
	"+":  arithOp('+', relation.Add),
	"-":  arithOp('-', relation.Sub),
	"*":  arithOp('*', relation.Mul),
	"/":  {fn: func(l, r relation.Value) (relation.Value, error) { return relation.Div(l, r), nil }},
	"||": {fn: func(l, r relation.Value) (relation.Value, error) {
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		return relation.Str(l.String() + r.String()), nil
	}},
}

// hashedList is the length past which an IN list of constants probes a
// set instead of scanning its items.
const hashedList = 8

func compileInList(x *InList, b Binding) node {
	v, not := compile(x.X, b), x.Not
	items := make([]node, len(x.List))
	konst, folded := v.konst, true
	for i, it := range x.List {
		items[i] = compile(it, b)
		konst = konst && items[i].konst
		folded = folded && items[i].eval == nil
	}
	var set *inSet // the folded items' set, for a long list of constants
	if folded && len(items) > hashedList {
		set = newInSet(len(items), func(i int) relation.Value { return items[i].val })
	}
	return fold(func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
		xv, err := v.get(row, outer, subq)
		if err != nil || xv.IsNull() {
			return relation.Null, err
		}
		if set != nil {
			if found, sawNull, ok := set.probe(xv); ok {
				return inAnswer(found, sawNull, not), nil
			}
		}
		// Items run in order up to the first match, as the list reads.
		sawNull := false
		for _, it := range items {
			iv, err := it.get(row, outer, subq)
			if err != nil {
				return relation.Null, err
			}
			if iv.IsNull() {
				sawNull = true
			} else if xv.Equal(iv) {
				return relation.Bool(!not), nil
			}
		}
		return inAnswer(false, sawNull, not), nil
	}, konst)
}

func compileCase(x *Case, b Binding) node {
	type arm struct{ cond, then node }
	arms := make([]arm, len(x.Whens))
	konst := true
	for i, w := range x.Whens {
		arms[i] = arm{compile(w.Cond, b), compile(w.Then, b)}
		konst = konst && arms[i].cond.konst && arms[i].then.konst
	}
	els := node{val: relation.Null, konst: true}
	if x.Else != nil {
		els = compile(x.Else, b)
	}
	return fold(func(row relation.Tuple, outer *Env, subq SubqueryFn) (relation.Value, error) {
		for _, a := range arms {
			c, err := a.cond.get(row, outer, subq)
			if err != nil {
				return relation.Null, err
			}
			if c.AsBool() {
				return a.then.get(row, outer, subq)
			}
		}
		return els.get(row, outer, subq)
	}, konst && els.konst)
}

func compileFunc(x *FuncCall, b Binding) node {
	if x.IsAggregate() {
		return failing(fmt.Errorf("sql: aggregate %s outside aggregation context", x.Name))
	}
	part, ok := dateParts[x.Name]
	switch {
	case !ok:
		return failing(fmt.Errorf("sql: unknown function %s", x.Name))
	case len(x.Args) != 1:
		return failing(fmt.Errorf("sql: %s takes one argument", x.Name))
	}
	return unary(compile(x.Args[0], b), func(v relation.Value) (relation.Value, error) {
		if v.IsNull() {
			return relation.Null, nil
		}
		return relation.Int(int64(part(time.Unix(v.AsInt()*86400, 0).UTC()))), nil
	})
}

// dateParts are the scalar functions, which read a part of a DATE.
var dateParts = map[string]func(time.Time) int{
	"YEAR":  time.Time.Year,
	"MONTH": func(t time.Time) int { return int(t.Month()) },
	"DAY":   time.Time.Day,
}

// MatchLike implements SQL LIKE with % (any run) and _ (any one byte)
// wildcards. On a mismatch it backtracks only to the last %, letting
// that % absorb one more byte: O(len(s)·len(pattern)) at worst.
func MatchLike(s, pattern string) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // the pattern index after the last %, and where its run ends in s
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star, mark = pi+1, si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
