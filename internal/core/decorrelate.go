package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/sql"
)

// decorrTable is the lookup structure of a decorrelated subquery: the
// subquery was executed once with its correlation predicates removed and
// the correlated inner columns prepended to its SELECT list; rows are
// grouped by the correlation key. Looking it up per outer row realizes
// the semi-join/anti-join evaluation of §7 (EXISTS/IN) and the grouped
// rewrite of correlated scalar aggregates.
type decorrTable struct {
	outerCols []*sql.ColRef // evaluated in the outer row's scope, in key order
	// keys[i] is the correlation key of the rows buckets[i]; index finds
	// it. The index is complete once built, so lookups only read it.
	keys    [][]relation.Value
	buckets []*relation.Relation
	index   keyIndex
	empty   *relation.Relation
}

func (dt *decorrTable) keyAt(i int) []relation.Value { return dt.keys[i] }

// appendKey appends the correlation key's columns resolved against the
// outer row shape b (a nil b finds them on the scope chain).
func (dt *decorrTable) appendKey(key []sql.Compiled, b sql.Binding) []sql.Compiled {
	for _, c := range dt.outerCols {
		key = append(key, sql.Compile(c, b))
	}
	return key
}

// lookup serves the subquery's result for the outer row, whose key
// columns keyOf reads. Vertex workers call it concurrently.
func (dt *decorrTable) lookup(keyOf []sql.Compiled, row relation.Tuple, outer *sql.Env) (*relation.Relation, error) {
	var buf [4]relation.Value // a narrow key needs no allocation per lookup
	key := buf[:0]
	for _, c := range keyOf {
		v, err := c(row, outer, nil)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			return dt.empty, nil // NULL correlations match nothing
		}
		key = append(key, v)
	}
	if i := dt.index.find(len(dt.keys), dt.keyAt, key); i >= 0 {
		return dt.buckets[i], nil
	}
	return dt.empty, nil
}

// tryDecorrelate attempts to turn a conjunct containing subqueries into a
// vertex-safe predicate that answers them from decorrTable lookups. It
// returns nil when any nested subquery does not fit the supported shape
// (single block, correlation only through top-level equality predicates
// with the current block, aggregates only in scalar form). A subquery
// with no correlation has one answer, which settle puts into the
// predicate as a literal where it can.
func (e *Session) tryDecorrelate(an *sql.Analysis, blk *sql.Analyzed, conj sql.Expr) *predicate {
	subs := sql.SubSelects(conj)
	if len(subs) == 0 {
		return nil
	}
	for _, sub := range subs {
		if e.decorr[sub] == nil {
			dt, ok := e.decorrelateSub(an, sub)
			if !ok {
				return nil
			}
			e.decorr[sub] = dt
		}
	}
	expr := e.settle(conj)
	// A decorrelated subquery's outer references are its correlations.
	p := &predicate{expr: expr, aliases: sql.AliasesOf(an, expr, 0)}
	if subs = sql.SubSelects(expr); len(subs) == 0 {
		return p
	}
	for _, c := range sql.ColRefs(expr) {
		if c.Depth == 0 {
			p.cols = append(p.cols, sql.BindKey(c.Alias, c.Column))
		}
	}
	for _, sub := range subs {
		dt := e.decorr[sub]
		p.decorr = append(p.decorr, decorrSub{sub, dt})
		for _, oc := range dt.outerCols {
			p.cols = append(p.cols, sql.BindKey(oc.Alias, oc.Column))
		}
	}
	return p
}

// settle returns x with each uncorrelated scalar subquery of at most one
// row replaced by its value (NULL for none), and each uncorrelated
// EXISTS by TRUE or FALSE, under operators and BETWEEN; other subqueries
// keep their lookup (several rows still fail per row). It builds new
// nodes over the analysed tree, which sessions share.
func (e *Session) settle(x sql.Expr) sql.Expr {
	switch n := x.(type) {
	case *sql.ScalarSubquery:
		if rows := e.decorr[n.Sub].constant(); rows != nil && rows.Len() <= 1 {
			v := relation.Null
			if rows.Len() == 1 {
				v = rows.Tuples[0][0]
			}
			return &sql.Literal{Val: v}
		}
	case *sql.Exists:
		if rows := e.decorr[n.Sub].constant(); rows != nil {
			return &sql.Literal{Val: relation.Bool((rows.Len() > 0) != n.Not)}
		}
	case *sql.Unary:
		return &sql.Unary{Op: n.Op, X: e.settle(n.X)}
	case *sql.Binary:
		return &sql.Binary{Op: n.Op, L: e.settle(n.L), R: e.settle(n.R)}
	case *sql.Between:
		return &sql.Between{X: e.settle(n.X), Lo: e.settle(n.Lo), Hi: e.settle(n.Hi), Not: n.Not}
	}
	return x
}

// constant returns the rows of a subquery with no correlation, which
// every row that asks gets, and nil for a correlated one.
func (dt *decorrTable) constant() *relation.Relation {
	if len(dt.outerCols) > 0 {
		return nil
	}
	rows, _ := dt.lookup(nil, nil, nil)
	return rows
}

var errNoDecorr = &decorrError{}

type decorrError struct{}

func (*decorrError) Error() string { return "core: subquery not decorrelated" }

// decorrelateSub checks the shape of one subquery and, if supported,
// executes its decorrelated variant and builds the lookup table.
func (e *Session) decorrelateSub(an *sql.Analysis, sub *sql.Select) (*decorrTable, bool) {
	subBlk := an.Blocks[sub]
	if subBlk == nil || sub.Union != nil {
		return nil, false
	}
	// No subqueries nested inside the subquery (keep the shape simple),
	// and aggregates only in the scalar form.
	if sub.Having != nil {
		return nil, false
	}
	if subBlk.HasAgg && len(sub.GroupBy) > 0 {
		return nil, false
	}
	nested := false
	sql.VisitBlockExprs(subBlk, 0, func(x sql.Expr, _ int) {
		if len(sql.SubSelects(x)) > 0 {
			nested = true
		}
	})
	if nested {
		return nil, false
	}

	// Correlation shape: every outer reference occurs in a top-level
	// WHERE conjunct of the form innerCol = outerCol (either order) and
	// points exactly one scope out.
	type corr struct {
		inner, outer *sql.ColRef
	}
	var corrs []corr
	var keep []sql.Expr
	for _, cj := range sql.SplitConjuncts(sub.Where) {
		b, ok := cj.(*sql.Binary)
		if ok && b.Op == "=" {
			l, lok := b.L.(*sql.ColRef)
			r, rok := b.R.(*sql.ColRef)
			if lok && rok {
				switch {
				case l.Depth == 0 && r.Depth == 1:
					corrs = append(corrs, corr{inner: l, outer: r})
					continue
				case l.Depth == 1 && r.Depth == 0:
					corrs = append(corrs, corr{inner: r, outer: l})
					continue
				}
			}
		}
		// Any other conjunct must be entirely local to the subquery.
		for _, c := range sql.ColRefs(cj) {
			if c.Depth != 0 {
				return nil, false
			}
		}
		keep = append(keep, cj)
	}
	// No outer references anywhere else (SELECT list, GROUP BY).
	outerCount := 0
	sql.VisitBlockExprs(subBlk, 0, func(x sql.Expr, off int) {
		for _, c := range sql.ColRefs(x) {
			if c.Depth > off {
				outerCount++
			}
		}
	})
	if outerCount != len(corrs) {
		return nil, false
	}

	// Build the decorrelated variant: SELECT innerCols..., <items> with
	// correlation conjuncts removed; aggregates become GROUP BY innerCols.
	mod := sql.CloneSelect(sub)
	mod.Where = sql.AndAll(cloneAll(keep))
	var items []sql.SelectItem
	for _, cr := range corrs {
		items = append(items, sql.SelectItem{Expr: &sql.ColRef{Qualifier: cr.inner.Alias, Column: cr.inner.Column}})
	}
	items = append(items, mod.Items...)
	mod.Items = items
	if subBlk.HasAgg {
		mod.GroupBy = nil
		for _, cr := range corrs {
			mod.GroupBy = append(mod.GroupBy, &sql.ColRef{Qualifier: cr.inner.Alias, Column: cr.inner.Column})
		}
	} else if len(corrs) > 0 {
		mod.Distinct = true
	}

	modAn, err := sql.Analyze(e.TAG.Catalog, mod)
	if err != nil {
		return nil, false
	}
	res, err := e.runChain(modAn, modAn.Root, nil)
	if err != nil {
		return nil, false
	}

	// Split rows into the key (first len(corrs) columns) and the payload.
	k := len(corrs)
	payloadSchema := payloadSchemaOf(res, k)
	dt := &decorrTable{empty: relation.New("sub", payloadSchema)}
	for _, cr := range corrs {
		dt.outerCols = append(dt.outerCols, &sql.ColRef{
			Alias: cr.outer.Alias, Column: cr.outer.Column, Table: cr.outer.Table, Key: cr.outer.Key,
		})
	}
rows:
	for _, row := range res.Tuples {
		key := row[:k]
		for _, v := range key {
			if v.IsNull() {
				continue rows // NULL inner keys never join
			}
		}
		i := dt.index.find(len(dt.keys), dt.keyAt, key)
		if i < 0 {
			i = len(dt.keys)
			dt.keys = append(dt.keys, key)
			dt.buckets = append(dt.buckets, relation.New("sub", payloadSchema))
		}
		dt.buckets[i].Tuples = append(dt.buckets[i].Tuples, row[k:])
	}
	if len(dt.keys) > linearKeys {
		dt.index.index(len(dt.keys), dt.keyAt)
	}
	return dt, true
}

func payloadSchemaOf(res *relation.Relation, skip int) *relation.Schema {
	cols := make([]relation.Column, 0, res.Schema.Len()-skip)
	for i, c := range res.Schema.Columns[skip:] {
		cols = append(cols, relation.Column{Name: fmt.Sprintf("c%d_%s", i+1, c.Name), Kind: c.Kind})
	}
	if len(cols) == 0 {
		cols = append(cols, relation.Col("c1", relation.KindInt))
	}
	return relation.MustSchema(cols...)
}

func cloneAll(exprs []sql.Expr) []sql.Expr {
	out := make([]sql.Expr, len(exprs))
	for i, e := range exprs {
		out[i] = sql.CloneExpr(e)
	}
	return out
}
