package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

// AggClass classifies a query block's aggregation per §7, which drives
// both the execution strategy and the experiment groupings of Figure 15.
type AggClass int

// Aggregation classes.
const (
	AggNone   AggClass = iota // no aggregation
	AggLocal                  // GROUP BY keyed by one attribute (vertex-local)
	AggGlobal                 // multi-attribute GROUP BY (global aggregator)
	AggScalar                 // aggregates without GROUP BY (single value)
)

func (a AggClass) String() string {
	switch a {
	case AggNone:
		return "none"
	case AggLocal:
		return "local"
	case AggGlobal:
		return "global"
	case AggScalar:
		return "scalar"
	}
	return "?"
}

// predicate is a filter conjunct, tagged with the block aliases it reads
// so it can be pushed to the right vertices.
type predicate struct {
	expr    sql.Expr
	aliases map[string]bool
	// decorr lists the subqueries decorrelation compiled away, with their
	// lookup tables (empty for any other conjunct): the predicate answers
	// them itself, so it is vertex-safe.
	decorr []decorrSub
	// cols lists the "alias.column" bind keys the predicate reads, for
	// the ones the collection phase may apply early (vertex-safe
	// residuals) and decorrelated ones.
	cols []string
	// hoisted marks an expression that holds a subquery decorrelation
	// did not compile away: it would re-enter the engine inside a vertex
	// program, so it runs centrally (hoistUnsafeFilters,
	// applyResidualCentral) and never at a vertex.
	hoisted bool
}

// decorrSub is one decorrelated subquery and its lookup table.
type decorrSub struct {
	sub *sql.Select
	dt  *decorrTable
}

// compile resolves p against the row shape b. A decorrelated predicate
// answers its subqueries itself, so the form ignores the subq it is
// given.
func (p *predicate) compile(b sql.Binding) sql.Compiled {
	eval := sql.Compile(p.expr, b)
	if len(p.decorr) == 0 {
		return eval
	}
	var keys []sql.Compiled // each subquery's key columns in turn
	for _, d := range p.decorr {
		keys = d.dt.appendKey(keys, b)
	}
	subq := func(sub *sql.Select, env *sql.Env) (*relation.Relation, error) {
		key := keys
		for _, d := range p.decorr {
			n := len(d.dt.outerCols)
			if d.sub == sub {
				return d.dt.lookup(key[:n], env.Row, env.Parent)
			}
			key = key[n:]
		}
		return nil, errNoDecorr // a deeper subquery: not expected on this path
	}
	return func(row relation.Tuple, outer *sql.Env, _ sql.SubqueryFn) (relation.Value, error) {
		return eval(row, outer, subq)
	}
}

// compileTests resolves preds against the row shape b.
func compileTests(preds []*predicate, b sql.Binding) []sql.Compiled {
	out := make([]sql.Compiled, len(preds))
	for i, p := range preds {
		out[i] = p.compile(b)
	}
	return out
}

// compiled is the executable form of one SELECT block on the TAG engine.
type compiled struct {
	an  *sql.Analysis
	blk *sql.Analyzed

	aliasTable map[string]string // alias -> relation name (lower)
	filters    map[string][]*predicate
	residual   []*predicate
	equi       []plan.EquiPred
	qp         *plan.QueryPlan

	// pushed holds, per alias, its filters compiled against its tuple
	// rows and its seed vertices.
	pushed map[string]*aliasFilters

	// neededIdx lists, per alias, the schema slots of the columns carried
	// through collection (referenced columns plus all join-class
	// columns). ownHeader/ownIndex are the per-alias own-row table shapes
	// (those columns' "alias.column" bind keys, then the id column),
	// shared read-only by every tuple vertex of the alias.
	neededIdx map[string][]int
	ownHeader map[string][]string
	ownIndex  map[string]map[string]int

	// classCols lists, per join class, the member bind keys inside this
	// block: the agreement sets enforced at collection joins.
	classCols classAgreement

	agg AggClass
	// hasOuter marks blocks with LEFT/RIGHT/FULL joins (table-level path).
	hasOuter bool
}

// compileBlock builds the executable form of blk.
func (e *Session) compileBlock(an *sql.Analysis, blk *sql.Analyzed) (*compiled, error) {
	c := &compiled{
		an:         an,
		blk:        blk,
		aliasTable: map[string]string{},
		filters:    map[string][]*predicate{},
		neededIdx:  map[string][]int{},
		ownHeader:  map[string][]string{},
		ownIndex:   map[string]map[string]int{},
	}
	sel := blk.Sel
	for _, bt := range blk.Tables {
		c.aliasTable[bt.Alias] = bt.Table
		if e.TAG.Catalog.Get(bt.Table) == nil {
			return nil, fmt.Errorf("core: table %q not in TAG catalog", bt.Table)
		}
	}
	for _, fi := range sel.From {
		switch fi.Join {
		case sql.JoinLeft, sql.JoinRight, sql.JoinFull:
			c.hasOuter = true
		}
	}

	// Conjuncts: WHERE plus inner ON (outer ONs stay with their join in
	// the outer path).
	var conjs []sql.Expr
	conjs = append(conjs, sql.SplitConjuncts(sel.Where)...)
	for _, fi := range sel.From {
		if fi.Join == sql.JoinInner {
			conjs = append(conjs, sql.SplitConjuncts(fi.On)...)
		}
	}

	for _, conj := range conjs {
		p := e.compilePredicate(an, blk, conj)
		switch {
		case len(p.aliases) == 1 && !c.hasOuter:
			var a string
			for x := range p.aliases {
				a = x
			}
			c.filters[a] = append(c.filters[a], p)
		case !c.hasOuter:
			if ep, ok := asEqui(p.expr); ok {
				c.equi = append(c.equi, ep)
				continue
			}
			c.residual = append(c.residual, p)
		default:
			c.residual = append(c.residual, p)
		}
	}

	// Every alias gets its pushed filters and seeds; an outer block has
	// no pushed filters, so its aliases seed every tuple. The structural
	// plan is for inner blocks only (outer blocks use the table path).
	// Each alias counts the tuples it seeds: a selection that enters at
	// attribute vertices, or a restriction window such as incremental
	// maintenance's write delta, makes it small, so GYO removes it early
	// and the walk starts at it.
	if !c.hasOuter {
		c.pushImpliedRestrictions()
	}
	aliases := make([]string, len(blk.Tables))
	card := make(map[string]int, len(blk.Tables))
	c.pushed = make(map[string]*aliasFilters, len(blk.Tables))
	pushed := make([]aliasFilters, len(blk.Tables))
	for i, bt := range blk.Tables {
		f := &pushed[i]
		f.compile(bt, c.filters[bt.Alias])
		c.pushed[bt.Alias] = f
		f.seeds = e.seedVertices(c, bt.Alias)
		aliases[i], card[bt.Alias] = bt.Alias, len(f.seeds)
	}
	if !c.hasOuter {
		qp, err := plan.Build(aliases, c.equi, plan.Options{Cardinality: card})
		if err != nil {
			return nil, err
		}
		c.qp = qp
	}

	c.computeNeeded()
	c.classifyAggregation(e.TAG)

	// Residual predicates that are vertex-safe learn which bind keys they
	// need, so the collection phase can apply them as soon as a partial
	// table contains those columns (§7's pushed selections, line 31).
	for _, pr := range c.residual {
		if len(pr.decorr) > 0 || pr.hoisted {
			continue // cols already known, or central evaluation only
		}
		for _, ref := range sql.ColRefs(pr.expr) {
			if ref.Depth == 0 {
				pr.cols = append(pr.cols, sql.BindKey(ref.Alias, ref.Column))
			}
		}
	}
	return c, nil
}

// compilePredicate wraps a conjunct, attempting subquery decorrelation.
func (e *Session) compilePredicate(an *sql.Analysis, blk *sql.Analyzed, conj sql.Expr) *predicate {
	if p := e.tryDecorrelate(an, blk, conj); p != nil {
		return p
	}
	return &predicate{expr: conj, aliases: sql.AliasesOf(an, conj, 0), hoisted: len(sql.SubSelects(conj)) > 0}
}

// pushImpliedRestrictions gives each alias the restriction a residual
// top-level OR implies for it: the OR, over the arms, of the AND of the
// arm's conjuncts that read only that alias. An arm is TRUE only if all
// its conjuncts are, so a row of the alias for which the restriction is
// FALSE or NULL leaves no arm that can be TRUE, and dropping it at its
// vertex is sound under three-valued logic. An alias some arm does not
// constrain gets nothing, and the residual OR stays where it is. The
// restriction is built from new nodes over the original subtrees: the
// analysed trees are shared across sessions and never mutated.
func (c *compiled) pushImpliedRestrictions() {
	aliases := c.sortAliases()
	for _, p := range c.residual {
		if b, ok := p.expr.(*sql.Binary); len(p.decorr) > 0 || !ok || b.Op != "OR" || p.hoisted {
			continue
		}
		arms := sql.SplitDisjuncts(p.expr)
		byAlias := make([]map[string][]sql.Expr, len(arms))
		for i, arm := range arms {
			byAlias[i] = map[string][]sql.Expr{}
			for _, conj := range sql.SplitConjuncts(arm) {
				if as := sql.AliasesOf(c.an, conj, 0); len(as) == 1 {
					for a := range as {
						byAlias[i][a] = append(byAlias[i][a], conj)
					}
				}
			}
		}
		for _, a := range aliases {
			var restriction sql.Expr
			for _, m := range byAlias {
				if len(m[a]) == 0 {
					restriction = nil
					break
				}
				if arm := sql.AndAll(m[a]); restriction == nil {
					restriction = arm
				} else {
					restriction = &sql.Binary{Op: "OR", L: restriction, R: arm}
				}
			}
			if restriction != nil {
				c.filters[a] = append(c.filters[a], &predicate{expr: restriction, aliases: map[string]bool{a: true}})
			}
		}
	}
}

// asEqui recognizes a.x = b.y between distinct block aliases.
func asEqui(e sql.Expr) (plan.EquiPred, bool) {
	b, ok := e.(*sql.Binary)
	if !ok || b.Op != "=" {
		return plan.EquiPred{}, false
	}
	l, ok := b.L.(*sql.ColRef)
	if !ok || l.Depth != 0 {
		return plan.EquiPred{}, false
	}
	r, ok := b.R.(*sql.ColRef)
	if !ok || r.Depth != 0 || r.Alias == l.Alias {
		return plan.EquiPred{}, false
	}
	return plan.EquiPred{A: plan.NewColRef(l.Alias, l.Column), B: plan.NewColRef(r.Alias, r.Column)}, true
}

// computeNeeded collects the columns each alias must carry through the
// collection phase: columns referenced by SELECT/GROUP BY/HAVING and
// residual predicates, plus every join-class column (agreement checks).
func (c *compiled) computeNeeded() {
	want := map[string]map[string]bool{}
	add := func(alias, col string) {
		if _, ok := c.aliasTable[alias]; !ok {
			return
		}
		if want[alias] == nil {
			want[alias] = map[string]bool{}
		}
		want[alias][col] = true
	}
	addExpr := func(x sql.Expr) {
		if x == nil {
			return
		}
		// Current-block refs at any nesting depth.
		var visit func(e sql.Expr, off int)
		visit = func(e sql.Expr, off int) {
			if e == nil {
				return
			}
			for _, r := range sql.ColRefs(e) {
				if r.Depth == off {
					add(r.Alias, r.Column)
				}
			}
			for _, subSel := range sql.SubSelects(e) {
				if b := c.an.Blocks[subSel]; b != nil {
					sql.VisitBlockExprs(b, off+1, visit)
				}
			}
		}
		visit(x, 0)
	}
	for _, it := range c.blk.Sel.Items {
		addExpr(it.Expr)
	}
	for _, g := range c.blk.Sel.GroupBy {
		addExpr(g)
	}
	addExpr(c.blk.Sel.Having)
	for _, fi := range c.blk.Sel.From {
		addExpr(fi.On) // outer-join ONs are not part of conjs
	}
	for _, p := range c.residual {
		addExpr(p.expr)
	}
	if c.qp != nil {
		for _, m := range flattenClasses(c.qp.Classes) {
			add(m.Alias, m.Column)
		}
		// Class agreement sets.
		for cid := range c.qp.Classes.Members {
			var keys []string
			for _, m := range c.qp.Classes.Members[cid] {
				if _, ok := c.aliasTable[m.Alias]; ok {
					keys = append(keys, sql.BindKey(m.Alias, m.Column))
				}
			}
			if len(keys) >= 2 {
				c.classCols = append(c.classCols, keys)
			}
		}
	}
	// Decorrelated predicates also read their subqueries' outer columns.
	for _, p := range c.residual {
		for _, key := range p.cols {
			parts := strings.SplitN(key, ".", 2)
			if len(parts) == 2 {
				add(parts[0], parts[1])
			}
		}
	}

	for _, bt := range c.blk.Tables {
		alias := bt.Alias
		cols := sortedKeys(want[alias])
		idx := make([]int, len(cols))
		header := make([]string, len(cols), len(cols)+1)
		for i, col := range cols {
			idx[i] = bt.Schema.Index(col)
			header[i] = sql.BindKey(alias, col)
		}
		c.neededIdx[alias] = idx
		c.ownHeader[alias] = append(header, idCol(alias))
		c.ownIndex[alias] = buildIndex(c.ownHeader[alias])
	}
}

func flattenClasses(cl *plan.Classes) []plan.ColRef {
	var out []plan.ColRef
	for _, ms := range cl.Members {
		out = append(out, ms...)
	}
	return out
}

// classifyAggregation assigns the §7 aggregation class. Local aggregation
// (LA) applies when the GROUP BY is keyed by one attribute: a single
// column, or a leading column that functionally determines the rest
// (detected via declared primary keys, possibly through a join class —
// e.g. GROUP BY l_orderkey, o_orderdate where l_orderkey joins the orders
// PK).
func (c *compiled) classifyAggregation(t *tag.Graph) {
	sel := c.blk.Sel
	switch {
	case len(sel.GroupBy) == 0 && !c.blk.HasAgg:
		c.agg = AggNone
	case len(sel.GroupBy) == 0:
		c.agg = AggScalar
	default:
		ref, ok := sel.GroupBy[0].(*sql.ColRef)
		if ok && ref.Depth == 0 && (len(sel.GroupBy) == 1 || c.isKeyColumn(t, ref)) {
			c.agg = AggLocal
		} else {
			c.agg = AggGlobal
		}
	}
}

// hasLocalAggKey reports whether the LA path applies: the first GROUP BY
// column is TAG-materialized, so its attribute vertices can complete
// the groups in parallel.
func (c *compiled) hasLocalAggKey(t *tag.Graph) bool {
	ref, ok := c.blk.Sel.GroupBy[0].(*sql.ColRef)
	return ok && t.Materialized(c.aliasTable[ref.Alias], ref.Column)
}

// finalizesAtVertices reports whether finalizeGroups runs the block's
// aggregation: one component, with vertex-safe residual predicates.
func (c *compiled) finalizesAtVertices() bool {
	return c.agg != AggNone && len(c.qp.Components) == 1 && c.residualVertexSafe()
}

// residualVertexSafe reports whether all residual predicates can run
// inside vertex programs (no un-decorrelated subqueries that would
// re-enter the engine).
func (c *compiled) residualVertexSafe() bool {
	for _, p := range c.residual {
		if p.hoisted {
			return false
		}
	}
	// The same restriction applies to GROUP BY and HAVING expressions and
	// aggregate arguments evaluated at vertices.
	for _, g := range c.blk.Sel.GroupBy {
		if len(sql.SubSelects(g)) > 0 {
			return false
		}
	}
	for _, f := range c.blk.Aggregates {
		for _, a := range f.Args {
			if len(sql.SubSelects(a)) > 0 {
				return false
			}
		}
	}
	return true
}

// isKeyColumn reports whether ref is a declared primary key column or
// equi-joined to one.
func (c *compiled) isKeyColumn(t *tag.Graph, ref *sql.ColRef) bool {
	cat := t.Catalog
	if cat.PrimaryKey(c.aliasTable[ref.Alias]) == ref.Column {
		return true
	}
	if c.qp == nil {
		return false
	}
	cr := plan.NewColRef(ref.Alias, ref.Column)
	cid, ok := c.qp.Classes.Of[cr]
	if !ok {
		return false
	}
	for _, m := range c.qp.Classes.Members[cid] {
		if table, ok := c.aliasTable[m.Alias]; ok && cat.PrimaryKey(table) == m.Column {
			return true
		}
	}
	return false
}

// sortAliases returns the block's aliases sorted (determinism helper).
func (c *compiled) sortAliases() []string {
	out := make([]string, 0, len(c.aliasTable))
	for a := range c.aliasTable {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
