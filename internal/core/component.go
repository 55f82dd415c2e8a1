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

	// filterOK memoizes pushed-filter evaluation per alias and vertex;
	// the memos come from the Session and go back when the run ends.
	filterOK map[string]*filterMemo
	// bindings caches per-alias tuple bindings (read-only once built).
	bindings map[string]sql.Binding
	// prefilter restricts aliases whose filters could not run at vertices
	// (vertex-unsafe subqueries) or that were reduced by a cycle pre-pass.
	prefilter map[string]map[bsp.VertexID]bool

	// joiner carries the shared join-shape cache of the collection phase.
	joiner *joiner

	// collectPreds are the vertex-safe residual predicates eligible for
	// early application during collection (§7 pushed selections).
	collectPreds []*predicate
}

// stepInfo is one traversal step resolved against the TAG graph.
type stepInfo struct {
	step   plan.Step
	label  bsp.LabelID // TAG edge label (table.column)
	edgeID int         // plan tree edge: the child node's id
	// toRel is the alias if the receiving side is a relation node
	// (filters apply there); "" for attribute nodes.
	toRel string
	// fromRel mirrors it for the sending side.
	fromRel string
}

// componentResult is the distributed output of one component run.
type componentResult struct {
	run       *componentRun
	rootAlias string
	survivors []bsp.VertexID
	// values[v] is the final table at root vertex v; a nil map means a
	// single-alias component (rows come from the vertices).
	values map[bsp.VertexID]*table
}

// runComponent executes TAG-join for one plan component: the optional
// cycle pre-pass (§6), the reduction phase (UP+DOWN semijoin marking),
// then the collection phase.
func (e *Session) runComponent(c *compiled, comp *plan.Component, outer *sql.Env, subq sql.SubqueryFn) (*componentResult, error) {
	r := &componentRun{ex: e, c: c, comp: comp, outer: outer, subq: subq,
		filterOK:  map[string]*filterMemo{},
		prefilter: map[string]map[bsp.VertexID]bool{},
		bindings:  map[string]sql.Binding{},
		joiner:    newJoiner(c.classCols),
	}
	defer r.release()
	for _, bt := range c.blk.Tables {
		binding := sql.Binding{}
		for i, col := range bt.Schema.Columns {
			binding[sql.BindKey(bt.Alias, col.Name)] = i
		}
		r.bindings[bt.Alias] = binding
	}
	for _, pr := range c.residual {
		if len(pr.cols) > 0 && !pr.hoisted {
			r.collectPreds = append(r.collectPreds, pr)
		}
	}
	if err := r.hoistUnsafeFilters(); err != nil {
		return nil, err
	}

	p := comp.TAGPlan
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
		if r.cycleIsPKFK(cyc) && !e.ForceCyclePrePass {
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

	survivors, err := r.runReduction()
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
	for _, m := range r.filterOK {
		r.ex.freeMemos = append(r.ex.freeMemos, m)
	}
	clear(r.filterOK)
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
	for _, s := range all {
		info, err := r.resolveStep(s)
		if err != nil {
			return err
		}
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
	if p.Nodes[s.From].Kind == plan.RelNode {
		info.fromRel = p.Nodes[s.From].Alias
	}
	return info, nil
}

// hoistUnsafeFilters pre-evaluates pushed filters that contain
// un-decorrelated subqueries (they would re-enter the engine if run
// inside a vertex program) into per-alias allowed sets.
func (r *componentRun) hoistUnsafeFilters() error {
	for alias, preds := range r.c.filters {
		var unsafe []*predicate
		for _, p := range preds {
			if p.hoisted {
				unsafe = append(unsafe, p)
			}
		}
		if len(unsafe) == 0 {
			continue
		}
		allowed := map[bsp.VertexID]bool{}
		table := r.c.aliasTable[alias]
		binding := r.aliasBinding(alias)
		env := &sql.Env{Binding: binding, Parent: r.outer}
		for _, v := range r.ex.TAG.TupleVertices(table) {
			d := r.ex.TAG.TupleData(v)
			if d == nil || d.Dead {
				continue
			}
			env.Row = d.Row
			ok := true
			for _, p := range unsafe {
				pass, err := p.eval(env, r.subq)
				if err != nil {
					return err
				}
				if !pass {
					ok = false
					break
				}
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

// aliasBinding returns the cached tuple binding of an alias.
func (r *componentRun) aliasBinding(alias string) sql.Binding {
	return r.bindings[alias]
}

// passes evaluates (and memoizes) the vertex-safe pushed filters of an
// alias for vertex v; unsafe filters were hoisted into prefilter.
// Safe for concurrent use: the memo slice is per-alias, per-vertex slot.
func (r *componentRun) passes(alias string, v bsp.VertexID) bool {
	if w, ok := r.ex.restrict[alias]; ok && !w.contains(v) {
		return false
	}
	if pre, ok := r.prefilter[alias]; ok && !pre[v] {
		return false
	}
	d := r.ex.TAG.TupleData(v)
	if d == nil || d.Dead || d.Table != r.c.aliasTable[alias] {
		return false
	}
	memo := r.filterOK[alias]
	if memo == nil {
		return r.evalFilters(alias, v, d.Row)
	}
	if ok, known := memo.lookup(v); known {
		return ok
	}
	ok := r.evalFilters(alias, v, d.Row)
	memo.record(v, ok)
	return ok
}

// prepareFilterMemo takes a memo for each alias with vertex-safe filters.
func (r *componentRun) prepareFilterMemo() {
	for alias, preds := range r.c.filters {
		hasSafe := false
		for _, p := range preds {
			if !p.hoisted {
				hasSafe = true
			}
		}
		if hasSafe {
			r.filterOK[alias] = r.ex.takeMemo()
		}
	}
}

func (r *componentRun) evalFilters(alias string, v bsp.VertexID, row relation.Tuple) bool {
	preds := r.c.filters[alias]
	if len(preds) == 0 {
		return true
	}
	env := &sql.Env{Binding: r.aliasBinding(alias), Row: row, Parent: r.outer}
	for _, p := range preds {
		if p.hoisted {
			continue // pre-evaluated by hoistUnsafeFilters
		}
		ok, err := p.eval(env, nil)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// initialActives returns the tuple vertices of an alias a reduction
// starts from: its seeds that pass the alias's filters.
func (r *componentRun) initialActives(alias string) []bsp.VertexID {
	var out []bsp.VertexID
	for _, v := range r.seedVertices(alias) {
		if r.passes(alias, v) {
			out = append(out, v)
		}
	}
	return out
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
func (r *componentRun) seedVertices(alias string) []bsp.VertexID {
	verts := r.ex.TAG.TupleVertices(r.c.aliasTable[alias])
	w, windowed := r.ex.restrict[alias]
	if windowed {
		verts = w.slice(verts)
	}
	seeds, ok := r.attrSeeds(alias, len(verts)/4)
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
//     values, if the conjuncts hold on NULL (NULL cells have no edge), or
//     if it is FLOAT or BOOL: their vertices hold the value's Key, not the
//     cell (FLOAT 2.0 is INT 2, and INT 1 is not TRUE).
func (r *componentRun) attrSeeds(alias string, limit int) ([]bsp.VertexID, bool) {
	g := r.ex.TAG
	table := r.c.aliasTable[alias]
	schema := g.Catalog.Get(table).Schema
	preds := r.c.filters[alias]
	var (
		winVals []bsp.VertexID // the winner's attribute vertices
		winLbl  bsp.LabelID
		best    = limit + 1 // the winner reaches fewer tuples than this
	)
	for _, p := range preds {
		vals, lbl, ok := r.equalityValues(alias, schema, p)
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
	holds := func(env *sql.Env, ci int) bool {
		for i, p := range preds {
			if cols[i] != ci {
				continue
			}
			if ok, err := p.eval(env, nil); err != nil || !ok {
				return false
			}
		}
		return true
	}
	var env *sql.Env
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
		if env == nil {
			env = &sql.Env{Binding: r.aliasBinding(alias), Row: make(relation.Tuple, schema.Len()), Parent: r.outer}
		}
		if holds(env, ci) {
			continue // NULL cells have no edge to seed from
		}
		var vals []bsp.VertexID
		n := 0
		for _, av := range dict {
			env.Row[ci], _ = g.AttrValue(av)
			if !holds(env, ci) {
				continue
			}
			if n += g.G.DegreeWithLabel(av, lbl); n >= best {
				break
			}
			vals = append(vals, av)
		}
		env.Row[ci] = relation.Null
		if n < best {
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
func (r *componentRun) equalityValues(alias string, schema *relation.Schema, p *predicate) ([]bsp.VertexID, bsp.LabelID, bool) {
	if p.fn != nil {
		return nil, 0, false
	}
	col, lits := equalityLiterals(p.expr)
	if col == nil || col.Depth != 0 || col.Alias != alias {
		return nil, 0, false
	}
	g := r.ex.TAG
	table := r.c.aliasTable[alias]
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
// outer scope, holds a subquery or is a compiled closure.
func singleColumn(p *predicate, alias string, schema *relation.Schema) int {
	if p.fn != nil || p.hoisted {
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

// applyCollectPreds filters a partial table by every residual predicate
// whose columns just became available (present now, absent before this
// vertex's join with its own tuple).
func (r *componentRun) applyCollectPreds(ctx *bsp.Context, t *table, pre map[string]int) *table {
	var apply []*predicate
	for _, p := range r.collectPreds {
		complete := true
		wasComplete := pre != nil
		for _, col := range p.cols {
			if _, ok := t.index[col]; !ok {
				complete = false
				break
			}
			if wasComplete {
				if _, ok := pre[col]; !ok {
					wasComplete = false
				}
			}
		}
		if complete && !wasComplete {
			apply = append(apply, p)
		}
	}
	if len(apply) == 0 {
		return t
	}
	out := newTableShared(t.header, t.index)
	env := &sql.Env{Binding: sql.Binding(t.index), Parent: r.outer}
	for _, row := range t.rows {
		env.Row = row
		keep := true
		for _, p := range apply {
			ok, err := p.eval(env, nil)
			if err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			out.rows = append(out.rows, row)
		}
	}
	ctx.AddOps(len(t.rows))
	return out
}

// runSingle handles a single-alias component: one superstep in which the
// alias's vertices filter themselves and report survival.
func (r *componentRun) runSingle(alias string) (*componentResult, error) {
	r.prepareFilterMemo()
	res := &componentResult{run: r, rootAlias: alias}
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		ctx.AddOps(1)
		if r.passes(alias, v) {
			ctx.Emit(v)
		}
	})
	if err := r.ex.runProg(prog, r.seedVertices(alias)); err != nil {
		return nil, err
	}
	for _, e := range r.ex.eng.Emitted() {
		res.survivors = append(res.survivors, e.(bsp.VertexID))
	}
	return res, nil
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
	d := r.ex.TAG.TupleData(v)
	t.header, t.index = r.c.ownHeader[alias], r.c.ownIndex[alias]
	row := t.rows[0][:0]
	for _, si := range r.c.neededIdx[alias] {
		row = append(row, d.Row[si])
	}
	t.rows[0] = append(row, relation.Int(int64(v)))
	return t
}

// canonicalHeader lists every alias's bind keys plus id columns; used for
// empty results so downstream bindings resolve.
func (c *compiled) canonicalHeader() []string {
	var out []string
	for _, alias := range c.sortAliases() {
		out = append(out, c.bindKeys[alias]...)
		out = append(out, idCol(alias))
	}
	return out
}

// assemble unions the distributed values into one table (the "collect
// output at a central location" convention; the communication cost of
// doing so is OUT, §4.1.2).
func (res *componentResult) assemble(c *compiled) *table {
	if res.values == nil {
		// Single-alias component.
		alias := res.rootAlias
		header := append(append([]string{}, c.bindKeys[alias]...), idCol(alias))
		out := newTable(header)
		for _, v := range res.survivors {
			out.rows = append(out.rows, res.run.ownRow(alias, v).rows[0])
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
		out = append(out, c.bindKeys[alias]...)
		out = append(out, idCol(alias))
	}
	return out
}
