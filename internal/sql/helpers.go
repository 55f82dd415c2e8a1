package sql

// SubSelects returns the subquery Selects directly nested in an
// expression (not descending into the subqueries themselves).
func SubSelects(e Expr) []*Select {
	var out []*Select
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case nil:
		case *Unary:
			walk(n.X)
		case *Binary:
			walk(n.L)
			walk(n.R)
		case *Between:
			walk(n.X)
			walk(n.Lo)
			walk(n.Hi)
		case *InList:
			walk(n.X)
			for _, it := range n.List {
				walk(it)
			}
		case *Like:
			walk(n.X)
		case *IsNull:
			walk(n.X)
		case *Case:
			for _, w := range n.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(n.Else)
		case *FuncCall:
			for _, a := range n.Args {
				walk(a)
			}
		case *Exists:
			out = append(out, n.Sub)
		case *InSubquery:
			walk(n.X)
			out = append(out, n.Sub)
		case *ScalarSubquery:
			out = append(out, n.Sub)
		}
	}
	walk(e)
	return out
}

// ExistsSelects returns the subqueries e reads only through [NOT]
// EXISTS, which asks whether they have rows and never reads a column.
func ExistsSelects(e Expr) []*Select {
	var out []*Select
	walkExpr(e, func(x Expr) bool {
		if n, ok := x.(*Exists); ok {
			out = append(out, n.Sub)
		}
		return true
	})
	return out
}

// VisitBlockExprs applies visit to every expression of a block (and its
// UNION ALL arms) with the given depth offset.
func VisitBlockExprs(b *Analyzed, off int, visit func(Expr, int)) {
	for _, it := range b.Sel.Items {
		visit(it.Expr, off)
	}
	for _, fi := range b.Sel.From {
		visit(fi.On, off)
	}
	visit(b.Sel.Where, off)
	for _, g := range b.Sel.GroupBy {
		visit(g, off)
	}
	visit(b.Sel.Having, off)
	if b.UnionNext != nil {
		VisitBlockExprs(b.UnionNext, off, visit)
	}
}

// AliasesOf returns the aliases of the block at the given depth offset
// that e references, descending into nested subqueries (whose references
// to that block appear at a correspondingly higher Depth).
func AliasesOf(an *Analysis, e Expr, offset int) map[string]bool {
	out := map[string]bool{}
	var visit func(x Expr, off int)
	visit = func(x Expr, off int) {
		if x == nil {
			return
		}
		for _, c := range ColRefs(x) {
			if c.Depth == off {
				out[c.Alias] = true
			}
		}
		for _, subSel := range SubSelects(x) {
			if blk := an.Blocks[subSel]; blk != nil {
				VisitBlockExprs(blk, off+1, visit)
			}
		}
	}
	visit(e, offset)
	return out
}

// BlockIsCorrelated reports whether blk (or any nested block) references
// columns from a scope enclosing blk itself. It stops at the first one.
func BlockIsCorrelated(an *Analysis, blk *Analyzed) bool {
	found := false
	visitOuterRefs(an, blk, func(*ColRef) bool {
		found = true
		return false
	})
	return found
}

// OuterRefs returns the ColRefs inside blk (including nested blocks) that
// resolve to a scope outside blk, however far out: every value blk's
// answer can depend on besides its own tables.
func OuterRefs(an *Analysis, blk *Analyzed) []*ColRef {
	var out []*ColRef
	visitOuterRefs(an, blk, func(c *ColRef) bool {
		out = append(out, c)
		return true
	})
	return out
}

// visitOuterRefs calls fn on each outer reference of blk, in the order
// OuterRefs lists them, until fn returns false.
func visitOuterRefs(an *Analysis, blk *Analyzed, fn func(*ColRef) bool) {
	more := true
	var visit func(x Expr, depth int)
	visit = func(x Expr, depth int) {
		if x == nil || !more {
			return
		}
		walkExpr(x, func(y Expr) bool {
			if c, ok := y.(*ColRef); ok && c.Depth > depth {
				more = fn(c)
			}
			return more
		})
		for _, subSel := range SubSelects(x) {
			if b := an.Blocks[subSel]; b != nil && more {
				VisitBlockExprs(b, depth+1, visit)
			}
		}
	}
	VisitBlockExprs(blk, 0, visit)
}
