package sql

import (
	"fmt"
	"time"

	"repro/internal/relation"
)

// evalRef is the tree-walking evaluator Compile replaced, kept as the
// reference FuzzCompile holds the compiled form to. It evaluates e under
// env with SQL three-valued logic: comparisons involving NULL yield
// NULL, and filters must treat anything but TRUE as non-qualifying. subq
// may be nil if e contains no subqueries.
func evalRef(e Expr, env *Env, subq SubqueryFn) (relation.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *AggRef:
		if i, ok := env.Binding[AggKey(x.Slot)]; ok {
			return env.Row[i], nil
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
		v, err := evalRef(x.X, env, subq)
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
		return evalBinaryRef(x, env, subq)
	case *Between:
		v, err := evalRef(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		lo, err := evalRef(x.Lo, env, subq)
		if err != nil {
			return relation.Null, err
		}
		hi, err := evalRef(x.Hi, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return relation.Null, nil
		}
		in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		return relation.Bool(in != x.Not), nil
	case *InList:
		v, err := evalRef(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() {
			return relation.Null, nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := evalRef(item, env, subq)
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
		v, err := evalRef(x.X, env, subq)
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
		return inRows(rows, v, x.Not), nil
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
		v, err := evalRef(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() {
			return relation.Null, nil
		}
		return relation.Bool(MatchLike(v.String(), x.Pattern) != x.Not), nil
	case *IsNull:
		v, err := evalRef(x.X, env, subq)
		if err != nil {
			return relation.Null, err
		}
		return relation.Bool(v.IsNull() != x.Not), nil
	case *Case:
		for _, w := range x.Whens {
			c, err := evalRef(w.Cond, env, subq)
			if err != nil {
				return relation.Null, err
			}
			if c.AsBool() {
				return evalRef(w.Then, env, subq)
			}
		}
		if x.Else != nil {
			return evalRef(x.Else, env, subq)
		}
		return relation.Null, nil
	case *FuncCall:
		if x.IsAggregate() {
			return relation.Null, fmt.Errorf("sql: aggregate %s outside aggregation context", x.Name)
		}
		return evalScalarFuncRef(x, env, subq)
	}
	return relation.Null, fmt.Errorf("sql: cannot evaluate %T", e)
}

func evalBinaryRef(x *Binary, env *Env, subq SubqueryFn) (relation.Value, error) {
	// Three-valued AND/OR with short-circuiting.
	switch x.Op {
	case "AND", "OR":
		l, err := evalRef(x.L, env, subq)
		if err != nil {
			return relation.Null, err
		}
		if x.Op == "AND" && !l.IsNull() && !l.AsBool() {
			return relation.Bool(false), nil
		}
		if x.Op == "OR" && l.AsBool() {
			return relation.Bool(true), nil
		}
		r, err := evalRef(x.R, env, subq)
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

	l, err := evalRef(x.L, env, subq)
	if err != nil {
		return relation.Null, err
	}
	r, err := evalRef(x.R, env, subq)
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

func evalScalarFuncRef(x *FuncCall, env *Env, subq SubqueryFn) (relation.Value, error) {
	switch x.Name {
	case "YEAR", "MONTH", "DAY":
		if len(x.Args) != 1 {
			return relation.Null, fmt.Errorf("sql: %s takes one argument", x.Name)
		}
		v, err := evalRef(x.Args[0], env, subq)
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
