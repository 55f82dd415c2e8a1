package core

import (
	"fmt"
	"slices"

	"repro/internal/relation"
	"repro/internal/sql"
)

// decorrTable is the lookup structure of a decorrelated subquery: the
// subquery was executed once with its correlation predicates removed and
// the correlated inner columns prepended to its SELECT list (an EXISTS
// keeps only them), for the outer keys alone where its block has them
// (outerKeys); rows are grouped by the correlation key. Looking it up
// per outer row realizes the semi-join/anti-join evaluation of §7
// (EXISTS/IN) and the grouped rewrite of correlated scalar aggregates.
// A key outside the outer keys finds no rows, which only a row its
// block drops anyway asks for. An uncorrelated subquery's table has no
// key: one bucket, or none when the answer is empty.
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
// returns nil when any nested subquery is a UNION, fails to run, or is
// correlated and does not fit the supported shape (single block,
// correlation only through top-level equality predicates with the
// current block, aggregates only in scalar form). A subquery with no
// correlation has one answer, which settle puts into the predicate as
// literals where it can.
func (e *Session) tryDecorrelate(an *sql.Analysis, conj sql.Expr, keys *outerKeys) *predicate {
	subs := sql.SubSelects(conj)
	if len(subs) == 0 {
		return nil
	}
	exists := sql.ExistsSelects(conj)
	for _, sub := range subs {
		if e.decorr[sub] == nil {
			dt, ok := e.decorrelateSub(an, sub, slices.Contains(exists, sub), keys)
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
// row replaced by its value (NULL for none), each uncorrelated EXISTS by
// TRUE or FALSE, and each IN over one by an IN list of its answer's
// first column, which answers alike (compileInList) and, holding no
// subquery, can seed its alias (attrSeeds) and give outer keys; all
// under operators and BETWEEN. A scalar subquery of several rows keeps
// its lookup, which fails only for a row that asks. It builds new nodes
// over the analysed tree, which sessions share.
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
	case *sql.InSubquery:
		if rows := e.decorr[n.Sub].constant(); rows != nil {
			list := make([]sql.Expr, rows.Len())
			for i, t := range rows.Tuples {
				list[i] = &sql.Literal{Val: t[0]}
			}
			return &sql.InList{X: e.settle(n.X), List: list, Not: n.Not}
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

// decorrelateSub builds the lookup table of one subquery. exists marks
// a subquery read only through [NOT] EXISTS, whose rows matter but not
// their columns. An uncorrelated one runs once, whatever its shape, as
// its block on the caller's analysis (an EXISTS that does not aggregate
// selects 1); a run that fails leaves it to the per-row path, which
// reports the error only if some row asks. A correlated one must fit
// the supported shape; its decorrelated variant runs for the block's
// outer keys where it has them (keys).
func (e *Session) decorrelateSub(an *sql.Analysis, sub *sql.Select, exists bool, keys *outerKeys) (*decorrTable, bool) {
	subBlk := an.Blocks[sub]
	if subBlk == nil || sub.Union != nil {
		return nil, false
	}
	rowsOnly := exists && !subBlk.HasAgg && len(sub.GroupBy) == 0
	if !sql.BlockIsCorrelated(an, subBlk) {
		if rowsOnly {
			one, sel := *subBlk, *sub
			sel.Items = []sql.SelectItem{{Expr: &sql.Literal{Val: relation.Int(1)}}}
			one.Sel, one.OutNames, one.OutKinds = &sel, []string{"col1"}, []relation.Kind{relation.KindInt}
			subBlk = &one
		}
		res, err := e.runChain(an, subBlk, nil)
		if err != nil {
			return nil, false
		}
		dt := &decorrTable{empty: relation.New("sub", res.Schema)}
		if res.Len() > 0 {
			dt.keys, dt.buckets = [][]relation.Value{{}}, []*relation.Relation{res}
		}
		return dt, true
	}
	// No subqueries nested inside the subquery (keep the shape simple),
	// and aggregates only in the scalar form.
	if sub.Having != nil || (subBlk.HasAgg && len(sub.GroupBy) > 0) {
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

	// A correlation whose outer column has outer keys reads only them:
	// inner IN (K) joins the variant's WHERE. An empty K leaves no row
	// to ask, so the variant does not run.
	keep = cloneAll(keep)
	runs := true
	for _, cr := range corrs {
		vals, ok := keys.of(cr.inner, cr.outer)
		if !ok {
			continue
		}
		if len(vals) == 0 {
			runs = false
			break
		}
		list := make([]sql.Expr, len(vals))
		for i, v := range vals {
			list[i] = &sql.Literal{Val: v}
		}
		keep = append(keep, &sql.InList{X: &sql.ColRef{Qualifier: cr.inner.Alias, Column: cr.inner.Column}, List: list})
	}

	// Build the decorrelated variant: SELECT innerCols..., <items> with
	// correlation conjuncts removed; aggregates become GROUP BY
	// innerCols, anything else DISTINCT. A row-only EXISTS selects its
	// keys alone.
	mod := sql.CloneSelect(sub)
	mod.Where = sql.AndAll(keep)
	var items []sql.SelectItem
	for _, cr := range corrs {
		items = append(items, sql.SelectItem{Expr: &sql.ColRef{Qualifier: cr.inner.Alias, Column: cr.inner.Column}})
	}
	if !rowsOnly {
		items = append(items, mod.Items...)
	}
	mod.Items = items
	if subBlk.HasAgg {
		mod.GroupBy = nil
		for _, cr := range corrs {
			mod.GroupBy = append(mod.GroupBy, &sql.ColRef{Qualifier: cr.inner.Alias, Column: cr.inner.Column})
		}
	} else {
		mod.Distinct = true
	}

	modAn, err := sql.Analyze(e.TAG.Catalog, mod)
	if err != nil {
		return nil, false
	}
	var res *relation.Relation
	if !runs {
		res = relation.New("sub", modAn.Root.OutputSchema())
	} else if res, err = e.runChain(modAn, modAn.Root, nil); err != nil {
		return nil, false
	}

	// Split rows into the key (first len(corrs) columns) and the payload.
	k := len(corrs)
	payloadSchema := payloadSchemaOf(res, k)
	dt := &decorrTable{empty: relation.New("sub", payloadSchema)}
	if subBlk.HasAgg {
		// A scalar aggregate answers one row even for a key with no rows:
		// its SELECT list over no input.
		none, err := projectGroups(&compiled{blk: subBlk}, newAggSetup(subBlk), nil, []string{}, nil, nil)
		if err != nil {
			return nil, false
		}
		dt.empty.Tuples = none.Tuples
	}
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

// correlatedSubs reports whether conj holds a subquery that reads an
// enclosing scope.
func correlatedSubs(an *sql.Analysis, conj sql.Expr) bool {
	for _, sub := range sql.SubSelects(conj) {
		if blk := an.Blocks[sub]; blk != nil && sql.BlockIsCorrelated(an, blk) {
			return true
		}
	}
	return false
}

// outerKeys finds the outer keys of a block's correlations: for an
// outer column of alias A, the distinct non-NULL values it takes over
// A's seeds that pass A's filters that hold no subquery and read no
// outer scope. A row of the block's answer passes every filter of A,
// so its key is among them, and a correlated subquery need only run for
// them (Magic decorrelation: Seshadri, Pirahesh and Leung, ICDE 1996).
// A filter that reads an outer scope is left out because the table is
// kept for the whole run, while a block run once per outer value
// compiles again under other values. Each column's keys are computed
// once, centrally, over the seeds: every node of a distributed run
// holds the whole graph and derives the same keys.
type outerKeys struct {
	e     *Session
	c     *compiled
	preds []*predicate       // the block's conjuncts, nil where not yet compiled
	cols  map[string]keyList // by the outer column's bind key
}

// keyList is one outer column's keys; ok is false if none apply.
type keyList struct {
	vals []relation.Value
	ok   bool
}

// of returns the outer keys of the correlation inner = outer, or false
// if the subquery must run for every key: the block has an outer join,
// A has no qualifying filter, a filter fails on a seed or the keys are
// more than a quarter of A's tuples, or the two columns are not of one
// kind among INT, DATE and STRING, where SQL equality is key identity.
func (k *outerKeys) of(inner, outer *sql.ColRef) ([]relation.Value, bool) {
	cat := k.e.TAG.Catalog
	kind, ok1 := columnKind(cat, inner)
	outerKind, ok2 := columnKind(cat, outer)
	if !ok1 || !ok2 || kind != outerKind || (kind != relation.KindInt && kind != relation.KindDate && kind != relation.KindString) || k.c.hasOuter {
		return nil, false
	}
	key := sql.BindKey(outer.Alias, outer.Column)
	l, known := k.cols[key]
	if !known {
		if k.cols == nil {
			k.cols = map[string]keyList{}
		}
		l.vals, l.ok = k.compute(outer)
		k.cols[key] = l
	}
	return l.vals, l.ok
}

// compute scans the outer column's alias's seeds for its keys. Keys
// for more than a quarter of A's tuples, the share past which a
// selection no longer enters at attribute vertices (seedVertices), are
// not worth it: inner IN (K) then keeps about as large a share of the
// inner table, which the subquery scans whole, and every row it reads
// probes the list. The subquery runs for every key instead.
func (k *outerKeys) compute(outer *sql.ColRef) ([]relation.Value, bool) {
	var preds []*predicate
	for _, p := range k.preds {
		if p != nil && len(p.aliases) == 1 && p.aliases[outer.Alias] && !readsOuterOrSub(p.expr) {
			preds = append(preds, p)
		}
	}
	i := slices.IndexFunc(k.c.blk.Tables, func(bt sql.BoundTable) bool { return bt.Alias == outer.Alias })
	if len(preds) == 0 || i < 0 {
		return nil, false
	}
	bt := k.c.blk.Tables[i]
	ci := bt.Schema.Index(outer.Column)
	var f aliasFilters
	f.compile(bt, preds)
	seeds := k.e.seedVertices(bt.Alias, &f)
	k.e.eng.AddExternal(0, 0, int64(len(seeds)))
	limit := len(k.e.TAG.TupleVertices(bt.Table)) / 4
	seen := map[relation.Ident]bool{}
	var vals []relation.Value
	for _, v := range seeds {
		d := k.e.TAG.TupleData(v)
		if d == nil || d.Dead {
			continue
		}
		ok, err := sql.Holds(f.tests, d.Row, nil, nil)
		if err != nil {
			return nil, false // the run's own evaluation reports it
		}
		if x := d.Row[ci]; ok && !x.IsNull() && !seen[x.Ident()] {
			if len(vals) == limit {
				return nil, false
			}
			seen[x.Ident()] = true
			vals = append(vals, x)
		}
	}
	return vals, true
}

// readsOuterOrSub reports whether x holds a subquery or reads an outer
// scope.
func readsOuterOrSub(x sql.Expr) bool {
	return len(sql.SubSelects(x)) > 0 || slices.ContainsFunc(sql.ColRefs(x), func(c *sql.ColRef) bool { return c.Depth != 0 })
}

// columnKind returns the schema kind of a resolved column.
func columnKind(cat *relation.Catalog, c *sql.ColRef) (relation.Kind, bool) {
	r := cat.Get(c.Table)
	if r == nil {
		return 0, false
	}
	i := r.Schema.Index(c.Column)
	if i < 0 {
		return 0, false
	}
	return r.Schema.Columns[i].Kind, true
}
