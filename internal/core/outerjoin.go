package core

import (
	"slices"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
)

// runOuterBlock executes blocks containing LEFT/RIGHT/FULL joins. The
// two-table case runs the §7 vertex program (attribute vertices decide
// which side to NULL-extend); larger outer queries scan each table
// vertex-parallel and perform the left-deep outer joins at the executor,
// which §7 describes only for the two-way case.
func (e *Session) runOuterBlock(c *compiled, outer *sql.Env) (*relation.Relation, error) {
	an := c.an
	subq := e.subqueryFn(an)

	if t, ok, err := e.tryVertexOuter(c, outer, subq); ok || err != nil {
		if err != nil {
			return nil, err
		}
		t, err = e.applyResidualCentral(c, t, outer, subq)
		if err != nil {
			return nil, err
		}
		return e.projectCentral(c, t, outer, subq)
	}

	var cur *table
	j := newJoiner(c.classCols)
	for i, fi := range c.blk.Sel.From {
		alias := c.blk.Tables[i].Alias
		right, err := e.scanAlias(c, alias)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = right
			continue
		}
		switch fi.Join {
		case sql.JoinComma:
			cur = j.join(cur, right)
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
	cur, err := e.applyResidualCentral(c, cur, outer, subq)
	if err != nil {
		return nil, err
	}
	return e.projectCentral(c, cur, outer, subq)
}

// scanAlias materializes an alias's needed columns vertex-parallel.
func (e *Session) scanAlias(c *compiled, alias string) (*table, error) {
	header := append(append([]string{}, c.bindKeys[alias]...), idCol(alias))
	out := newTable(header)
	idx := c.neededIdx[alias]
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		d := e.TAG.TupleData(v)
		if d == nil || d.Dead {
			return
		}
		ctx.AddOps(1)
		row := make([]relation.Value, 0, len(header))
		for _, si := range idx {
			row = append(row, d.Row[si])
		}
		row = append(row, relation.Int(int64(v)))
		ctx.Emit(row)
	})
	if err := e.runProg(prog, e.TAG.TupleVertices(c.aliasTable[alias])); err != nil {
		return nil, err
	}
	for _, em := range e.eng.Emitted() {
		out.rows = append(out.rows, em.([]relation.Value))
	}
	return out, nil
}

// ojReply is the tuple-vertex reply of the §7 two-way outer join: which
// side the replying tuple belongs to, and its projected row.
type ojReply struct {
	left bool
	row  []relation.Value
}

// tableJoinOn hash-joins two tables on the equi conjuncts of ON and
// evaluates the remaining conjuncts row-wise; leftOuter/rightOuter select
// NULL-extension sides.
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

	header := append(append([]string{}, l.header...), r.header...)
	out := newTable(header)
	tests := sql.CompileAll(rest, sql.Binding(out.index))

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
			joined := append(append([]relation.Value{}, lrow...), r.rows[ri]...)
			ok, err := sql.Holds(tests, joined, outer, subq)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				matchedRight[ri] = true
				out.rows = append(out.rows, joined)
			}
		}
		if !matched && leftOuter {
			out.rows = append(out.rows, append(append([]relation.Value{}, lrow...), nullRight...))
		}
	}
	if rightOuter {
		for ri, m := range matchedRight {
			if !m {
				out.rows = append(out.rows, append(append([]relation.Value{}, nullLeft...), r.rows[ri]...))
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

// tryVertexOuter runs the faithful §7 two-way outer join vertex program
// when the block is exactly two tables joined by one outer join whose ON
// clause is a single equality on materialized columns. It returns
// (table, handled, error).
func (e *Session) tryVertexOuter(c *compiled, outer *sql.Env, subq sql.SubqueryFn) (*table, bool, error) {
	sel := c.blk.Sel
	if len(sel.From) != 2 {
		return nil, false, nil
	}
	fi := sel.From[1]
	conjs := sql.SplitConjuncts(fi.On)
	if len(conjs) != 1 {
		return nil, false, nil
	}
	ep, ok := asEqui(conjs[0])
	if !ok {
		return nil, false, nil
	}
	la, ra := c.blk.Tables[0].Alias, c.blk.Tables[1].Alias
	if c.aliasTable[la] == c.aliasTable[ra] {
		// Self outer join: the vertex program tells the two sides apart
		// by table label, so it cannot run here; the table-level path
		// below handles it.
		return nil, false, nil
	}
	// Normalize so A is the left alias.
	if ep.A.Alias != la {
		ep.A, ep.B = ep.B, ep.A
	}
	if ep.A.Alias != la || ep.B.Alias != ra {
		return nil, false, nil
	}
	lLbl, ok1 := e.TAG.EdgeLabel(c.aliasTable[la], ep.A.Column)
	rLbl, ok2 := e.TAG.EdgeLabel(c.aliasTable[ra], ep.B.Column)
	if !ok1 || !ok2 || !e.TAG.Materialized(c.aliasTable[la], ep.A.Column) || !e.TAG.Materialized(c.aliasTable[ra], ep.B.Column) {
		return nil, false, nil
	}
	leftPreserve := fi.Join == sql.JoinLeft || fi.Join == sql.JoinFull
	rightPreserve := fi.Join == sql.JoinRight || fi.Join == sql.JoinFull

	header := append(append([]string{}, c.bindKeys[la]...), idCol(la))
	header = append(header, c.bindKeys[ra]...)
	header = append(header, idCol(ra))
	widthL := len(c.bindKeys[la]) + 1
	out := newTable(header)

	// Superstep 0: both sides report to the join attribute vertices.
	// Superstep 1: each attribute vertex asks the qualifying sides for
	// their values (per §7: a LEFT join needs at least one left edge).
	// Superstep 2: tuple vertices reply with their rows.
	// Superstep 3: attribute vertices build the (possibly NULL-extended)
	// output; preserved-side tuples without a join value at all are
	// handled by the final sweep below.

	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		ctx.AddOps(1 + len(inbox))
		switch ctx.Step() {
		case 0:
			d := e.TAG.TupleData(v)
			if d == nil || d.Dead {
				return
			}
			if d.Table == c.aliasTable[la] {
				ctx.SendAlong(v, lLbl, true)
			} else {
				ctx.SendAlong(v, rLbl, false)
			}
		case 1:
			hasL, hasR := false, false
			for _, m := range inbox {
				if m.Payload.(bool) {
					hasL = true
				} else {
					hasR = true
				}
			}
			qualifies := (hasL && hasR) || (hasL && leftPreserve) || (hasR && rightPreserve)
			if !qualifies {
				return
			}
			for _, m := range inbox {
				ctx.Send(v, m.From, nil)
			}
		case 2:
			d := e.TAG.TupleData(v)
			isLeft := d.Table == c.aliasTable[la]
			alias := la
			if !isLeft {
				alias = ra
			}
			row := make([]relation.Value, 0, len(c.bindKeys[alias])+1)
			for _, si := range c.neededIdx[alias] {
				row = append(row, d.Row[si])
			}
			row = append(row, relation.Int(int64(v)))
			for _, m := range inbox {
				ctx.Send(v, m.From, ojReply{left: isLeft, row: row})
			}
		case 3:
			var lefts, rights [][]relation.Value
			for _, m := range inbox {
				rp := m.Payload.(ojReply)
				if rp.left {
					lefts = append(lefts, rp.row)
				} else {
					rights = append(rights, rp.row)
				}
			}
			switch {
			case len(lefts) > 0 && len(rights) > 0:
				for _, lr := range lefts {
					for _, rr := range rights {
						ctx.Emit(append(append([]relation.Value{}, lr...), rr...))
					}
				}
			case len(lefts) > 0 && leftPreserve:
				for _, lr := range lefts {
					ctx.Emit(append(append([]relation.Value{}, lr...), make([]relation.Value, len(header)-widthL)...))
				}
			case len(rights) > 0 && rightPreserve:
				for _, rr := range rights {
					ctx.Emit(append(make([]relation.Value, widthL), rr...))
				}
			}
		}
	})
	initial := append(append([]bsp.VertexID{}, e.TAG.TupleVertices(c.aliasTable[la])...),
		e.TAG.TupleVertices(c.aliasTable[ra])...)
	if err := e.runProg(prog, initial); err != nil {
		return nil, false, err
	}
	for _, em := range e.eng.Emitted() {
		out.rows = append(out.rows, em.([]relation.Value))
	}

	// Preserved tuples whose join column is NULL (no attribute edge at
	// all) never reached an attribute vertex: NULL-extend them here.
	// Every other tuple was decided at its attribute vertex, so the
	// sweep keeps no per-vertex record of what matched.
	sweep := func(alias string, lbl bsp.LabelID, left bool) {
		for _, v := range e.TAG.TupleVertices(c.aliasTable[alias]) {
			d := e.TAG.TupleData(v)
			if d == nil || d.Dead || e.TAG.G.HasEdgeWithLabel(v, lbl) {
				continue
			}
			row := make([]relation.Value, 0, len(header))
			if left {
				for _, si := range c.neededIdx[alias] {
					row = append(row, d.Row[si])
				}
				row = append(row, relation.Int(int64(v)))
				row = append(row, make([]relation.Value, len(header)-widthL)...)
			} else {
				row = append(row, make([]relation.Value, widthL)...)
				for _, si := range c.neededIdx[alias] {
					row = append(row, d.Row[si])
				}
				row = append(row, relation.Int(int64(v)))
			}
			out.rows = append(out.rows, row)
		}
	}
	if leftPreserve {
		sweep(la, lLbl, true)
	}
	if rightPreserve {
		sweep(ra, rLbl, false)
	}
	return out, true, nil
}
