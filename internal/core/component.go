package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bsp"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
)

// componentRun is the per-component execution state shared by the
// reduction and collection vertex programs (Algorithm 2).
type componentRun struct {
	ex    *Session
	c     *compiled
	comp  *plan.Component
	outer *sql.Env
	subq  sql.SubqueryFn

	// steps is the full reduction schedule: the connected bottom-up UP
	// list followed by its reversal (DOWN).
	steps []stepInfo
	nUp   int

	// marks.marks[v][edgeID] records the senders v received from on that
	// plan edge (most recent pass wins); DOWN and collection sends follow
	// it. Taken from the Session for the reduction and collection phases.
	marks *markScratch

	// prefilter restricts aliases whose filters could not run at vertices
	// (vertex-unsafe subqueries) or that were reduced by a cycle pre-pass.
	prefilter map[string]map[bsp.VertexID]bool
}

// stepInfo is one traversal step resolved against the TAG graph.
type stepInfo struct {
	step   plan.Step
	label  bsp.LabelID // TAG edge label (table.column)
	edgeID int         // plan tree edge: the child node's id
	// toRel is the alias if the receiving side is a relation node
	// (filters apply there); "" for attribute nodes.
	toRel string
	// viaMarks marks a reduction step that sends only along the marks
	// the opposite crossing of its plan edge left: every DOWN step, and
	// an UP step crossing an edge an earlier UP step crossed.
	viaMarks bool
}

// componentResult is the distributed output of one component run.
type componentResult struct {
	run       *componentRun
	rootAlias string
	survivors []bsp.VertexID
	// values[v] is the final table at root vertex v, under root's header;
	// a nil map means a single-alias component (rows come from the
	// vertices). root is nil if the collection had no survivors.
	values map[bsp.VertexID]*table
	root   *collectStep
}

// runComponent executes TAG-join for one plan component: the optional
// cycle pre-pass (§6), the reduction phase (UP+DOWN semijoin marking),
// then the collection phase.
func (e *Session) runComponent(c *compiled, comp *plan.Component, outer *sql.Env, subq sql.SubqueryFn) (*componentResult, error) {
	r := &componentRun{ex: e, c: c, comp: comp, outer: outer, subq: subq,
		prefilter: map[string]map[bsp.VertexID]bool{},
	}
	defer r.release()
	if err := r.hoistUnsafeFilters(); err != nil {
		return nil, err
	}

	p := comp.TAGPlan
	if len(p.Steps) == 0 && c.finalizesAtVertices() {
		// No reduction: finalizeGroups admits the seeds itself.
		return &componentResult{run: r, rootAlias: p.StartAlias, survivors: c.pushed[p.StartAlias].seeds}, nil
	}
	if len(p.Steps) == 0 {
		// Single-alias component: one filtering superstep.
		return r.runSingle(p.StartAlias)
	}

	// Cycle pre-pass: reduce cycle members before the tree reduction.
	// Cycles whose predicates are all PK-FK joins skip the heavy/light
	// propagation (§6.1.1): the join sizes are bounded by the largest
	// relation, so the tree reduction plus the collection-phase class
	// agreement on the broken predicate already stay within budget.
	for _, cyc := range comp.Cycles {
		if r.cycleIsPKFK(cyc) {
			continue
		}
		if err := r.runCyclePass(cyc); err != nil {
			return nil, err
		}
	}

	if err := r.resolveSteps(); err != nil {
		return nil, err
	}
	r.marks = e.takeMarks()

	survivors, err := r.runReduction(p.StartAlias)
	if err != nil {
		return nil, err
	}
	return r.runCollection(survivors)
}

// release hands the run's marks and filter memos back to the Session.
// Nothing reads them once runComponent returns: the componentResult
// keeps the run only for its compiled shapes.
func (r *componentRun) release() {
	if r.marks != nil {
		r.ex.releaseMarks(r.marks)
		r.marks = nil
	}
	for _, f := range r.c.pushed {
		if f.memo != nil {
			r.ex.freeMemos = append(r.ex.freeMemos, f.memo)
			f.memo = nil
		}
	}
}

// cycleIsPKFK reports whether the cycle is PK-FK dominated: at most one
// predicate is not a declared primary-foreign key join. Per §6.1.1 the
// replication rate of PK-FK joins is bounded by the foreign-key relation,
// so walking the cycle as a (broken) tree cannot blow up beyond the fact
// table, and the one remaining equality is enforced by the collection
// phase's class agreement. Genuinely many-to-many cycles (triangles over
// non-key attributes) still take the heavy/light pre-pass of §6.1.2.
func (r *componentRun) cycleIsPKFK(cyc plan.Cycle) bool {
	cat := r.ex.TAG.Catalog
	nonKey := 0
	for _, p := range cyc.Preds {
		if !cat.IsPKFKJoin(r.c.aliasTable[p.A.Alias], p.A.Column, r.c.aliasTable[p.B.Alias], p.B.Column) {
			nonKey++
		}
	}
	return nonKey <= 1
}

// resolveSteps maps plan steps to TAG labels and plan edges.
func (r *componentRun) resolveSteps() error {
	p := r.comp.TAGPlan
	up := p.Steps
	all := append(append([]plan.Step{}, up...), plan.Reversed(up)...)
	r.nUp = len(up)
	for i, s := range all {
		info, err := r.resolveStep(s)
		if err != nil {
			return err
		}
		info.viaMarks = i >= r.nUp || slices.ContainsFunc(r.steps, func(prev stepInfo) bool { return prev.edgeID == info.edgeID })
		r.steps = append(r.steps, info)
	}
	return nil
}

func (r *componentRun) resolveStep(s plan.Step) (stepInfo, error) {
	table := r.c.aliasTable[s.Label.Alias]
	lbl, ok := r.ex.TAG.EdgeLabel(table, s.Label.Column)
	if !ok || !r.ex.TAG.Materialized(table, s.Label.Column) {
		return stepInfo{}, fmt.Errorf("core: join column %s.%s is not materialized in the TAG graph", table, s.Label.Column)
	}
	p := r.comp.TAGPlan
	edge := s.From
	if p.Nodes[s.From].Parent == s.To {
		edge = s.From
	} else {
		edge = s.To
	}
	info := stepInfo{step: s, label: lbl, edgeID: edge}
	if p.Nodes[s.To].Kind == plan.RelNode {
		info.toRel = p.Nodes[s.To].Alias
	}
	return info, nil
}

// hoistUnsafeFilters pre-evaluates pushed filters that contain
// un-decorrelated subqueries (they would re-enter the engine if run
// inside a vertex program) into per-alias allowed sets. It visits the
// alias's seeds, a superset of its passing tuples, and charges one op
// per seed: the pass runs centrally, outside any vertex program.
func (r *componentRun) hoistUnsafeFilters() error {
	for _, alias := range r.comp.Aliases {
		preds := r.c.filters[alias]
		var unsafe []sql.Compiled
		for i, p := range preds {
			if p.hoisted {
				unsafe = append(unsafe, r.c.pushed[alias].tests[i])
			}
		}
		if len(unsafe) == 0 {
			continue
		}
		allowed := map[bsp.VertexID]bool{}
		seeds := r.c.pushed[alias].seeds
		r.ex.eng.AddExternal(0, 0, int64(len(seeds)))
		for _, v := range seeds {
			d := r.ex.TAG.TupleData(v)
			if d == nil || d.Dead {
				continue
			}
			ok, err := sql.Holds(unsafe, d.Row, r.outer, r.subq)
			if err != nil {
				return err
			}
			if ok {
				allowed[v] = true
			}
		}
		r.intersectPrefilter(alias, allowed)
	}
	return nil
}

// intersectPrefilter narrows the allowed set of an alias.
func (r *componentRun) intersectPrefilter(alias string, allowed map[bsp.VertexID]bool) {
	if prev, ok := r.prefilter[alias]; ok {
		for v := range prev {
			if !allowed[v] {
				delete(prev, v)
			}
		}
		return
	}
	r.prefilter[alias] = allowed
}

// aliasFilters is one alias's pushed filters: its relation, its tuple
// rows' binding (bind), the filters compiled against it in c.filters
// order, the vertex-safe ones, the alias's seeds (seedVertices) and,
// while a reduction or single-alias run evaluates the filters, a memo.
type aliasFilters struct {
	table   string
	binding sql.Binding
	tests   []sql.Compiled
	safe    []sql.Compiled
	seeds   []bsp.VertexID
	memo    *filterMemo
}

// bind returns the binding of the alias's tuple rows, built on first use.
func (f *aliasFilters) bind(bt sql.BoundTable) sql.Binding {
	if f.binding == nil {
		f.binding = make(sql.Binding, len(bt.Schema.Columns))
		for i, col := range bt.Schema.Columns {
			f.binding[sql.BindKey(bt.Alias, col.Name)] = i
		}
	}
	return f.binding
}

// compile resolves an alias's pushed filters against its tuple rows.
func (f *aliasFilters) compile(bt sql.BoundTable, preds []*predicate) {
	f.table = bt.Table
	if len(preds) == 0 {
		return
	}
	f.tests = compileTests(preds, f.bind(bt))
	f.safe = f.tests
	if slices.ContainsFunc(preds, func(p *predicate) bool { return p.hoisted }) {
		f.safe = nil
		for i, p := range preds {
			if !p.hoisted {
				f.safe = append(f.safe, f.tests[i])
			}
		}
	}
}

// passes evaluates (and memoizes) the vertex-safe pushed filters of an
// alias for vertex v; unsafe filters were hoisted into prefilter. A
// filter that fails fails the run. Safe for concurrent use: the memo
// slice is per-alias, per-vertex slot.
func (r *componentRun) passes(ctx *bsp.Context, alias string, v bsp.VertexID) bool {
	if w, ok := r.ex.restrict[alias]; ok && !w.contains(v) {
		return false
	}
	if pre, ok := r.prefilter[alias]; ok && !pre[v] {
		return false
	}
	d := r.ex.TAG.TupleData(v)
	f := r.c.pushed[alias]
	if d == nil || d.Dead || d.Table != f.table {
		return false
	}
	if f.memo != nil {
		if ok, known := f.memo.lookup(v); known {
			return ok
		}
	}
	ok, err := sql.Holds(f.safe, d.Row, r.outer, nil)
	if err != nil {
		ctx.Fail(err)
	}
	if f.memo != nil {
		f.memo.record(v, ok)
	}
	return ok
}

// prepareFilterMemo takes a memo for each alias with vertex-safe filters.
func (r *componentRun) prepareFilterMemo() {
	for _, f := range r.c.pushed {
		if len(f.safe) > 0 {
			f.memo = r.ex.takeMemo()
		}
	}
}

// seedVertices returns, in ascending ID order, the candidate tuple
// vertices of an alias: a superset of the ones that pass its filters,
// which callers still check with passes. They are the n tuple vertices
// a scan would visit (the relation's, narrowed to the alias's
// restriction window if it has one) unless attrSeeds finds a pushed
// selection that enters at attribute vertices, which double as indexes
// (§3), and reaches at most n/4 tuples; then they are that selection's
// tuple ends, narrowed to the window. The per-relation lists are in
// ascending ID order (vertices are appended as they are created), so a
// window is a contiguous sub-slice found by binary search, which keeps
// a delta-restricted seed O(log n + |delta|).
func (e *Session) seedVertices(c *compiled, alias string) []bsp.VertexID {
	verts := e.TAG.TupleVertices(c.aliasTable[alias])
	w, windowed := e.restrict[alias]
	if windowed {
		verts = w.slice(verts)
	}
	seeds, ok := e.attrSeeds(c, alias, len(verts)/4)
	if !ok {
		return verts
	}
	if windowed {
		return w.slice(seeds)
	}
	return seeds
}

// attrSeeds returns the sorted, deduplicated tuple vertices reached by
// the pushed selection of alias that reaches the fewest tuples, if that
// is at most limit. A selection's count is exact: the sum of
// DegreeWithLabel along table.col over the values it keeps. Two kinds
// of selection enter at attribute vertices:
//
//   - An equality col = literal or col IN (literal, ...) finds each
//     literal's vertex in O(1). A NULL literal, or one whose canonical Key
//     kind differs from the column's kind, cannot enter (SQL comparison
//     coerces across kinds, attribute identity does not), and neither can
//     a float literal of magnitude 2^53 or more against an integer column,
//     where one float equals several integers.
//   - A column's dictionary: every vertex-safe conjunct that reads only
//     that column is evaluated together, once per value vertex in
//     AttrVertices(table.col), with the value in an otherwise-NULL row.
//     Running the SQL itself keeps its comparison and coercion rules. A
//     column cannot enter this way if it has more than limit distinct
//     values, if the conjuncts hold on NULL (NULL cells have no edge),
//     if they fail to evaluate on some value (the scan's passes then
//     reports the error), or if it is FLOAT or BOOL: their vertices hold
//     the value's Key, not the cell (FLOAT 2.0 is INT 2, and INT 1 is
//     not TRUE).
func (e *Session) attrSeeds(c *compiled, alias string, limit int) ([]bsp.VertexID, bool) {
	g := e.TAG
	table := c.aliasTable[alias]
	schema := g.Catalog.Get(table).Schema
	preds := c.filters[alias]
	var (
		winVals []bsp.VertexID // the winner's attribute vertices
		winLbl  bsp.LabelID
		best    = limit + 1 // the winner reaches fewer tuples than this
	)
	for _, p := range preds {
		vals, lbl, ok := e.equalityValues(c, alias, schema, p)
		if !ok {
			continue
		}
		n := 0
		for _, av := range vals {
			n += g.G.DegreeWithLabel(av, lbl)
		}
		if n < best {
			winVals, winLbl, best = vals, lbl, n
		}
	}

	cols := make([]int, len(preds))
	for i, p := range preds {
		cols[i] = singleColumn(p, alias, schema)
	}
	tests := c.pushed[alias].tests
	var row relation.Tuple // the dictionary value, otherwise NULL
	holds := func(ci int) (bool, error) {
		for i, t := range tests {
			if cols[i] != ci {
				continue
			}
			// A one-column conjunct reads no outer scope.
			if v, err := t(row, nil, nil); err != nil || !v.AsBool() {
				return false, err
			}
		}
		return true, nil
	}
	for i, ci := range cols {
		if best == 0 || ci < 0 || slices.Index(cols, ci) < i {
			continue // nothing left to beat, not one column, or seen
		}
		col := schema.Columns[ci]
		lbl, ok := g.EdgeLabel(table, col.Name)
		if !ok || !g.Materialized(table, col.Name) || col.Kind == relation.KindFloat || col.Kind == relation.KindBool {
			continue
		}
		dict := g.AttrVertices(lbl)
		if len(dict) > limit {
			continue
		}
		if row == nil {
			row = make(relation.Tuple, schema.Len())
		}
		if ok, err := holds(ci); ok || err != nil {
			// NULL cells have no edge to seed from; a conjunct that
			// fails to evaluate is left to the scan, where passes
			// reports it.
			continue
		}
		var vals []bsp.VertexID
		n := 0
		var err error
		for _, av := range dict {
			row[ci], _ = g.AttrValue(av)
			if ok, err = holds(ci); !ok {
				if err != nil {
					break
				}
				continue
			}
			if n += g.G.DegreeWithLabel(av, lbl); n >= best {
				break
			}
			vals = append(vals, av)
		}
		row[ci] = relation.Null
		if n < best && err == nil {
			winVals, winLbl, best = vals, lbl, n
		}
	}
	if best > limit {
		return nil, false
	}
	seeds := make([]bsp.VertexID, 0, best)
	for _, av := range winVals {
		for _, e := range g.G.EdgesWithLabel(av, winLbl) {
			seeds = append(seeds, e.To)
		}
	}
	slices.Sort(seeds)
	return slices.Compact(seeds), true
}

// equalityValues returns the attribute vertices of the literals of a
// pushed col = literal or col IN (literal, ...) filter and the
// table.col label, if the filter can enter there (see attrSeeds); a
// literal with no vertex matches no tuple and is left out.
func (e *Session) equalityValues(c *compiled, alias string, schema *relation.Schema, p *predicate) ([]bsp.VertexID, bsp.LabelID, bool) {
	col, lits := equalityLiterals(p.expr)
	if col == nil || col.Depth != 0 || col.Alias != alias {
		return nil, 0, false
	}
	g := e.TAG
	table := c.aliasTable[alias]
	ci := schema.Index(col.Column)
	lbl, ok := g.EdgeLabel(table, col.Column)
	if ci < 0 || !ok || !g.Materialized(table, col.Column) {
		return nil, 0, false
	}
	kind := schema.Columns[ci].Kind
	for _, lit := range lits {
		if lit.IsNull() || lit.Key().Kind != kind ||
			(lit.Kind == relation.KindFloat && kind != relation.KindFloat && math.Abs(lit.F) >= 1<<53) {
			return nil, 0, false
		}
	}
	var vals []bsp.VertexID
	for _, lit := range lits {
		if av, ok := g.AttrVertexOf(lit); ok {
			vals = append(vals, av)
		}
	}
	return vals, lbl, true
}

// singleColumn returns the schema slot of the one column of alias that
// a pushed filter reads, or -1 if it reads none or several, reads an
// outer scope or holds a subquery.
func singleColumn(p *predicate, alias string, schema *relation.Schema) int {
	if len(p.decorr) > 0 || p.hoisted {
		return -1
	}
	ci := -1
	for _, c := range sql.ColRefs(p.expr) {
		i := schema.Index(c.Column)
		if c.Depth != 0 || c.Alias != alias || i < 0 || (ci >= 0 && i != ci) {
			return -1
		}
		ci = i
	}
	return ci
}

// equalityLiterals matches col = literal, literal = col and
// col IN (literal, ...), returning the column and the literals.
func equalityLiterals(x sql.Expr) (*sql.ColRef, []relation.Value) {
	switch x := x.(type) {
	case *sql.Binary:
		if x.Op != "=" {
			return nil, nil
		}
		col, ok := x.L.(*sql.ColRef)
		lit, ok2 := x.R.(*sql.Literal)
		if !ok || !ok2 {
			col, ok = x.R.(*sql.ColRef)
			lit, ok2 = x.L.(*sql.Literal)
		}
		if !ok || !ok2 {
			return nil, nil
		}
		return col, []relation.Value{lit.Val}
	case *sql.InList:
		col, ok := x.X.(*sql.ColRef)
		if !ok || x.Not {
			return nil, nil
		}
		vals := make([]relation.Value, len(x.List))
		for i, item := range x.List {
			lit, ok := item.(*sql.Literal)
			if !ok {
				return nil, nil
			}
			vals[i] = lit.Val
		}
		return col, vals
	}
	return nil, nil
}

// runSingle handles a single-alias component: the zero-step reduction,
// one superstep in which the alias's seeds filter themselves and the
// survivors report.
func (r *componentRun) runSingle(alias string) (*componentResult, error) {
	survivors, err := r.runReduction(alias)
	if err != nil {
		return nil, err
	}
	return &componentResult{run: r, rootAlias: alias, survivors: survivors}, nil
}

// ownRow builds the needed-columns row table of a tuple vertex; the
// header and index are the alias's shared shapes.
func (r *componentRun) ownRow(alias string, v bsp.VertexID) *table {
	// The table and its one-row list share an allocation.
	o := &struct {
		t   table
		one [1][]relation.Value
	}{}
	o.t.rows = o.one[:]
	o.one[0] = make([]relation.Value, 0, len(r.c.ownHeader[alias]))
	return r.writeOwnRow(&o.t, alias, v)
}

// writeOwnRow makes the one-row table t v's own-row table, reusing t's
// row storage.
func (r *componentRun) writeOwnRow(t *table, alias string, v bsp.VertexID) *table {
	t.header, t.index = r.c.ownHeader[alias], r.c.ownIndex[alias]
	t.rows[0] = r.appendOwnRow(t.rows[0][:0], alias, v)
	return t
}

// appendOwnRow appends v's own row (its needed columns, then its id) to
// row.
func (r *componentRun) appendOwnRow(row []relation.Value, alias string, v bsp.VertexID) []relation.Value {
	d := r.ex.TAG.TupleData(v)
	for _, si := range r.c.neededIdx[alias] {
		row = append(row, d.Row[si])
	}
	return append(row, relation.Int(int64(v)))
}

// canonicalHeader lists every alias's bind keys plus id columns; used for
// empty results so downstream bindings resolve.
func (c *compiled) canonicalHeader() []string {
	var out []string
	for _, alias := range c.sortAliases() {
		out = append(out, c.ownHeader[alias]...)
	}
	return out
}

// assemble unions the distributed values into one table (the "collect
// output at a central location" convention; the communication cost of
// doing so is OUT, §4.1.2).
func (res *componentResult) assemble(c *compiled) *table {
	if res.values == nil {
		// Single-alias component: the survivors' own rows.
		alias := res.rootAlias
		out := newTableShared(c.ownHeader[alias], c.ownIndex[alias])
		out.rows = make([][]relation.Value, 0, len(res.survivors))
		rows := rowArena{width: len(out.header)}
		rows.reserve(len(res.survivors))
		for _, v := range res.survivors {
			res.run.appendOwnRow(rows.next()[:0], alias, v)
			out.rows = append(out.rows, rows.keep())
		}
		return out
	}
	var out *table
	for _, v := range res.survivors {
		t := res.values[v]
		if t == nil {
			continue
		}
		if out == nil {
			out = t.clone()
			out.rows = append([][]relation.Value{}, t.rows...)
		} else {
			out.rows = append(out.rows, t.rows...)
		}
	}
	if out == nil {
		out = newTable(c.componentHeader(res.run.comp))
	}
	return out
}

// componentHeader is the canonical header of a component's aliases.
func (c *compiled) componentHeader(comp *plan.Component) []string {
	var out []string
	for _, alias := range comp.Aliases {
		out = append(out, c.ownHeader[alias]...)
	}
	return out
}
