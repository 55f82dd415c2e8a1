package core

import (
	"slices"

	"repro/internal/relation"
	"repro/internal/sql"
)

// runOuterBlock joins a block containing LEFT/RIGHT/FULL joins on the
// table path: it scans each table vertex-parallel as a single-alias
// component and performs the left-deep joins at the executor, returning
// the joined table for runBlock's central tail. §7 sketches a two-way
// outer join decided at the attribute vertices; this path answers that
// shape too, with the same rows and no messages.
func (e *Session) runOuterBlock(c *compiled, outer *sql.Env, subq sql.SubqueryFn) (*table, error) {
	var cur *table
	r := &componentRun{ex: e, c: c, outer: outer, subq: subq}
	for i, fi := range c.blk.Sel.From {
		res, err := r.runSingle(c.blk.Tables[i].Alias)
		if err != nil {
			return nil, err
		}
		right := res.assemble(c)
		if cur == nil {
			cur = right
			continue
		}
		switch fi.Join {
		case sql.JoinComma:
			cur = joinTables(cur, right, c.classCols)
		case sql.JoinInner:
			cur, err = e.tableJoinOn(c, cur, right, fi.On, outer, subq, false, false)
		case sql.JoinLeft:
			cur, err = e.tableJoinOn(c, cur, right, fi.On, outer, subq, true, false)
		case sql.JoinRight:
			cur, err = e.tableJoinOn(c, cur, right, fi.On, outer, subq, false, true)
		case sql.JoinFull:
			cur, err = e.tableJoinOn(c, cur, right, fi.On, outer, subq, true, true)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// tableJoinOn hash-joins two tables on the equi conjuncts of ON and
// evaluates the remaining conjuncts row-wise; leftOuter/rightOuter select
// NULL-extension sides. It charges one op per row of each input.
func (e *Session) tableJoinOn(c *compiled, l, r *table, on sql.Expr, outer *sql.Env, subq sql.SubqueryFn, leftOuter, rightOuter bool) (*table, error) {
	// lslots[i] and rslots[i] are the slots of the i-th hashed equality.
	var lslots, rslots []int
	var rest []sql.Expr
	for _, cj := range sql.SplitConjuncts(on) {
		if ep, ok := asEqui(cj); ok {
			lk, rk := sql.BindKey(ep.A.Alias, ep.A.Column), sql.BindKey(ep.B.Alias, ep.B.Column)
			if ls, ok1 := l.index[lk]; ok1 {
				if rs, ok2 := r.index[rk]; ok2 {
					lslots, rslots = append(lslots, ls), append(rslots, rs)
					continue
				}
			}
			if ls, ok1 := l.index[rk]; ok1 {
				if rs, ok2 := r.index[lk]; ok2 {
					lslots, rslots = append(lslots, ls), append(rslots, rs)
					continue
				}
			}
		}
		rest = append(rest, cj)
	}

	e.eng.AddExternal(0, 0, int64(len(l.rows)+len(r.rows)))
	header := append(append([]string{}, l.header...), r.header...)
	out := newTable(header)
	tests := sql.CompileAll(rest, sql.Binding(out.index))
	rows := rowArena{width: len(header)}
	rows.reserve(len(l.rows))
	// fill lays lrow and rrow side by side in the arena's next row, which
	// only rows.keep takes: a candidate the ON conjuncts reject is reused.
	fill := func(lrow, rrow []relation.Value) []relation.Value {
		row := rows.next()
		copy(row[copy(row, lrow):], rrow)
		return row
	}

	// SQL equality: a NULL key joins nothing, on either side.
	b := bucketRows(r.rows, rslots, true)

	matchedRight := make([]bool, len(r.rows))
	nullRight := make([]relation.Value, len(r.header))
	nullLeft := make([]relation.Value, len(l.header))

	var all, matches []int
	if len(lslots) == 0 {
		all = allIdx(len(r.rows))
	}
	for _, lrow := range l.rows {
		var candidates []int
		switch {
		case len(lslots) == 0:
			candidates = all
		case !slices.ContainsFunc(lslots, func(sl int) bool { return lrow[sl].IsNull() }):
			matches = matches[:0]
			for i := b.first(lrow, lslots); i >= 0; i = b.next[i] {
				if slotsEqual(lrow, lslots, r.rows[i], rslots) {
					matches = append(matches, int(i))
				}
			}
			candidates = matches
		}
		matched := false
		for _, ri := range candidates {
			ok, err := sql.Holds(tests, fill(lrow, r.rows[ri]), outer, subq)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				matchedRight[ri] = true
				out.rows = append(out.rows, rows.keep())
			}
		}
		if !matched && leftOuter {
			fill(lrow, nullRight)
			out.rows = append(out.rows, rows.keep())
		}
	}
	if rightOuter {
		for ri, m := range matchedRight {
			if !m {
				fill(nullLeft, r.rows[ri])
				out.rows = append(out.rows, rows.keep())
			}
		}
	}
	return out, nil
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
