package baseline

import (
	"sort"

	"repro/internal/relation"
	"repro/internal/sql"
)

// rowset is an intermediate result: rows of width columns with an
// alias.column -> slot binding.
type rowset struct {
	binding sql.Binding
	aliases []string
	width   int
	rows    []relation.Tuple
}

func (rs *rowset) byteSize() int64 {
	var n int64
	for _, t := range rs.rows {
		n += int64(t.Size())
	}
	return n
}

// equiPred is an a.x = b.y join predicate between current-block aliases.
type equiPred struct {
	la, ca string
	lb, cb string
}

// runBlock executes one SELECT block under an optional outer row env.
func (e *Engine) runBlock(an *sql.Analysis, blk *sql.Analyzed, outer *sql.Env) (*relation.Relation, error) {
	subq := e.subqueryFn(an)
	sel := blk.Sel

	hasOuter := false
	for _, fi := range sel.From {
		if fi.Join == sql.JoinLeft || fi.Join == sql.JoinRight || fi.Join == sql.JoinFull {
			hasOuter = true
		}
	}

	// Gather conjuncts: WHERE plus inner-join ON conditions.
	var conjs []sql.Expr
	conjs = append(conjs, sql.SplitConjuncts(sel.Where)...)
	for _, fi := range sel.From {
		if fi.Join == sql.JoinInner {
			conjs = append(conjs, sql.SplitConjuncts(fi.On)...)
		}
	}

	// Classify conjuncts.
	filters := map[string][]sql.Expr{}
	var residual []sql.Expr
	var equi []equiPred
	for _, c := range conjs {
		refs := sql.AliasesOf(an, c, 0)
		switch len(refs) {
		case 0:
			residual = append(residual, c) // constant or purely correlated
		case 1:
			if hasOuter {
				// WHERE filters must apply after NULL extension.
				residual = append(residual, c)
				continue
			}
			var alias string
			for a := range refs {
				alias = a
			}
			filters[alias] = append(filters[alias], c)
		default:
			if p, ok := asEquiPred(c); ok && !hasOuter {
				equi = append(equi, p)
			} else {
				residual = append(residual, c)
			}
		}
	}

	var joined *rowset
	var err error
	if hasOuter {
		joined, err = e.joinLeftDeep(an, blk, outer, subq)
	} else {
		joined, err = e.joinGreedy(an, blk, outer, subq, filters, equi, &residual)
	}
	if err != nil {
		return nil, err
	}

	// Apply remaining residual predicates.
	joined, err = e.filterRowset(joined, residual, outer, subq)
	if err != nil {
		return nil, err
	}

	return e.project(blk, joined, outer, subq)
}

// asEquiPred recognizes a.x = b.y between two distinct current-block
// aliases.
func asEquiPred(c sql.Expr) (equiPred, bool) {
	b, ok := c.(*sql.Binary)
	if !ok || b.Op != "=" {
		return equiPred{}, false
	}
	l, ok := b.L.(*sql.ColRef)
	if !ok || l.Depth != 0 {
		return equiPred{}, false
	}
	r, ok := b.R.(*sql.ColRef)
	if !ok || r.Depth != 0 || r.Alias == l.Alias {
		return equiPred{}, false
	}
	return equiPred{la: l.Alias, ca: l.Column, lb: r.Alias, cb: r.Column}, true
}

// scan materializes a base table as a rowset, applying pushed filters.
func (e *Engine) scan(bt sql.BoundTable, preds []sql.Expr, outer *sql.Env, subq sql.SubqueryFn) (*rowset, error) {
	rel := e.Cat.Get(bt.Table)
	binding := sql.Binding{}
	for i, col := range rel.Schema.Columns {
		binding[sql.BindKey(bt.Alias, col.Name)] = i
	}
	rs := &rowset{binding: binding, aliases: []string{bt.Alias}, width: rel.Schema.Len()}
	e.Stats.RowsScanned += int64(rel.Len())

	if e.ColumnStore {
		rows, rest, err := e.columnScan(rel, preds, binding, outer)
		if err != nil {
			return nil, err
		}
		rs.rows = rows
		preds = rest
	} else {
		rs.rows = rel.Tuples
	}

	if len(preds) == 0 {
		return rs, nil
	}
	return e.filterRowset(rs, preds, outer, subq)
}

// filterRowset keeps rows for which every predicate evaluates to TRUE.
func (e *Engine) filterRowset(rs *rowset, preds []sql.Expr, outer *sql.Env, subq sql.SubqueryFn) (*rowset, error) {
	if len(preds) == 0 {
		return rs, nil
	}
	out := &rowset{binding: rs.binding, aliases: rs.aliases, width: rs.width}
	tests := sql.CompileAll(preds, rs.binding)
	for _, row := range rs.rows {
		keep, err := sql.Holds(tests, row, outer, subq)
		if err != nil {
			return nil, err
		}
		if keep {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// joinGreedy plans inner/comma joins: scan every table with pushed
// filters, then repeatedly hash-join the smallest connected input.
func (e *Engine) joinGreedy(an *sql.Analysis, blk *sql.Analyzed, outer *sql.Env, subq sql.SubqueryFn,
	filters map[string][]sql.Expr, equi []equiPred, residual *[]sql.Expr) (*rowset, error) {

	sets := map[string]*rowset{}
	for _, bt := range blk.Tables {
		rs, err := e.scan(bt, filters[bt.Alias], outer, subq)
		if err != nil {
			return nil, err
		}
		sets[bt.Alias] = rs
	}

	// Deterministic alias ordering for planning decisions.
	remaining := make([]string, 0, len(blk.Tables))
	for _, bt := range blk.Tables {
		remaining = append(remaining, bt.Alias)
	}
	sort.Slice(remaining, func(i, j int) bool {
		a, b := remaining[i], remaining[j]
		if len(sets[a].rows) != len(sets[b].rows) {
			return len(sets[a].rows) < len(sets[b].rows)
		}
		return a < b
	})

	cur := sets[remaining[0]]
	inSet := map[string]bool{remaining[0]: true}
	remaining = remaining[1:]

	for len(remaining) > 0 {
		// Pick the smallest remaining alias connected by an equi pred.
		pick := -1
		for i, a := range remaining {
			if connects(equi, inSet, a) {
				pick = i
				break
			}
		}
		cross := pick < 0
		if cross {
			pick = 0
		}
		alias := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		right := sets[alias]

		if cross {
			cur = e.crossJoin(cur, right)
		} else {
			var preds []equiPred
			for _, p := range equi {
				if inSet[p.la] && p.lb == alias {
					preds = append(preds, p)
				} else if inSet[p.lb] && p.la == alias {
					preds = append(preds, equiPred{la: p.lb, ca: p.cb, lb: p.la, cb: p.ca})
				}
			}
			cur = e.hashJoin(cur, right, preds)
		}
		inSet[alias] = true

		// Apply residuals that became evaluable.
		kept := (*residual)[:0]
		for _, r := range *residual {
			refs := sql.AliasesOf(an, r, 0)
			ready := true
			for a := range refs {
				if !inSet[a] {
					ready = false
					break
				}
			}
			if ready && len(refs) > 0 {
				var err error
				cur, err = e.filterRowset(cur, []sql.Expr{r}, outer, subq)
				if err != nil {
					return nil, err
				}
			} else {
				kept = append(kept, r)
			}
		}
		*residual = kept
	}
	return cur, nil
}

func connects(equi []equiPred, inSet map[string]bool, alias string) bool {
	for _, p := range equi {
		if inSet[p.la] && p.lb == alias {
			return true
		}
		if inSet[p.lb] && p.la == alias {
			return true
		}
	}
	return false
}

// merge concatenates bindings and computes the combined rowset shell.
func mergeShells(l, r *rowset) *rowset {
	binding := sql.Binding{}
	for k, v := range l.binding {
		binding[k] = v
	}
	for k, v := range r.binding {
		binding[k] = v + l.width
	}
	aliases := append(append([]string{}, l.aliases...), r.aliases...)
	return &rowset{binding: binding, aliases: aliases, width: l.width + r.width}
}

// hashJoin joins l and r on the given equi predicates (left side of each
// pred references l). Shuffle accounting applies in shuffle mode.
func (e *Engine) hashJoin(l, r *rowset, preds []equiPred) *rowset {
	e.Stats.HashJoins++
	e.accountShuffle(l, r)

	lslots := make([]int, len(preds))
	rslots := make([]int, len(preds))
	for i, p := range preds {
		lslots[i] = l.binding[sql.BindKey(p.la, p.ca)]
		rslots[i] = r.binding[sql.BindKey(p.lb, p.cb)]
	}
	// Build on the smaller side.
	swapped := len(r.rows) > len(l.rows)
	build, probe := r, l
	bslots, pslots := rslots, lslots
	if swapped {
		build, probe = l, r
		bslots, pslots = lslots, rslots
	}
	table := make(map[string][]int, len(build.rows))
	key := make([]relation.Value, len(preds))
	for i, row := range build.rows {
		null := false
		for k, s := range bslots {
			if row[s].IsNull() {
				null = true
				break
			}
			key[k] = row[s]
		}
		if null {
			continue
		}
		ks := joinKey(key)
		table[ks] = append(table[ks], i)
	}

	out := mergeShells(l, r)
	for _, prow := range probe.rows {
		null := false
		for k, s := range pslots {
			if prow[s].IsNull() {
				null = true
				break
			}
			key[k] = prow[s]
		}
		if null {
			continue
		}
		for _, bi := range table[joinKey(key)] {
			brow := build.rows[bi]
			// Output rows are always l ++ r regardless of build side.
			if swapped { // build = l, probe = r
				out.rows = append(out.rows, brow.Concat(prow))
			} else { // build = r, probe = l
				out.rows = append(out.rows, prow.Concat(brow))
			}
		}
	}
	return out
}

// crossJoin is the Cartesian product fallback.
func (e *Engine) crossJoin(l, r *rowset) *rowset {
	e.Stats.NestedLoops++
	e.accountShuffle(l, r)
	out := mergeShells(l, r)
	for _, lrow := range l.rows {
		for _, rrow := range r.rows {
			out.rows = append(out.rows, lrow.Concat(rrow))
		}
	}
	return out
}

// accountShuffle records Spark-style exchange traffic for a join.
func (e *Engine) accountShuffle(l, r *rowset) {
	if e.Shuffle == nil {
		return
	}
	p := int64(e.Shuffle.Partitions)
	if p <= 1 {
		return
	}
	small, big := l, r
	if len(r.rows) < len(l.rows) {
		small, big = r, l
	}
	if len(small.rows) <= e.Shuffle.BroadcastThreshold {
		// Broadcast join: small side copied to every partition.
		e.Stats.BroadcastRows += int64(len(small.rows)) * (p - 1)
		e.Stats.BroadcastBytes += small.byteSize() * (p - 1)
		return
	}
	// Shuffle join: both sides re-partitioned; (p-1)/p of rows move.
	e.Stats.ShuffledRows += (int64(len(small.rows)) + int64(len(big.rows))) * (p - 1) / p
	e.Stats.ShuffledBytes += (small.byteSize() + big.byteSize()) * (p - 1) / p
}

// joinLeftDeep executes the FROM clause strictly in order, honoring outer
// join semantics; used whenever the query has LEFT/RIGHT/FULL joins.
func (e *Engine) joinLeftDeep(an *sql.Analysis, blk *sql.Analyzed, outer *sql.Env, subq sql.SubqueryFn) (*rowset, error) {
	var cur *rowset
	for i, fi := range blk.Sel.From {
		bt := blk.Tables[i]
		right, err := e.scan(bt, nil, outer, subq)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = right
			continue
		}
		switch fi.Join {
		case sql.JoinComma:
			cur = e.crossJoin(cur, right)
		case sql.JoinInner:
			cur, err = e.joinOn(cur, right, fi.On, an, outer, subq, false, false)
		case sql.JoinLeft:
			cur, err = e.joinOn(cur, right, fi.On, an, outer, subq, true, false)
		case sql.JoinRight:
			cur, err = e.joinOn(cur, right, fi.On, an, outer, subq, false, true)
		case sql.JoinFull:
			cur, err = e.joinOn(cur, right, fi.On, an, outer, subq, true, true)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// joinOn joins cur with right on an arbitrary ON expression, using hash
// lookup for its equi conjuncts and row evaluation for the rest.
// leftOuter/rightOuter select the NULL-extension sides.
func (e *Engine) joinOn(l, r *rowset, on sql.Expr, an *sql.Analysis, outer *sql.Env, subq sql.SubqueryFn, leftOuter, rightOuter bool) (*rowset, error) {
	e.Stats.HashJoins++
	e.accountShuffle(l, r)

	var hashPreds []equiPred
	var rest []sql.Expr
	for _, c := range sql.SplitConjuncts(on) {
		if p, ok := asEquiPred(c); ok {
			// Normalize: la on left rowset.
			if contains(l.aliases, p.la) && contains(r.aliases, p.lb) {
				hashPreds = append(hashPreds, p)
				continue
			}
			if contains(l.aliases, p.lb) && contains(r.aliases, p.la) {
				hashPreds = append(hashPreds, equiPred{la: p.lb, ca: p.cb, lb: p.la, cb: p.ca})
				continue
			}
		}
		rest = append(rest, c)
	}

	out := mergeShells(l, r)
	tests := sql.CompileAll(rest, out.binding)

	matchedRight := make([]bool, len(r.rows))
	rslots := make([]int, len(hashPreds))
	lslots := make([]int, len(hashPreds))
	for i, p := range hashPreds {
		lslots[i] = l.binding[sql.BindKey(p.la, p.ca)]
		rslots[i] = r.binding[sql.BindKey(p.lb, p.cb)]
	}

	// Build hash on right side (or all rows if no equi preds).
	table := map[string][]int{}
	key := make([]relation.Value, len(hashPreds))
	for i, row := range r.rows {
		null := false
		for k, s := range rslots {
			if row[s].IsNull() {
				null = true
				break
			}
			key[k] = row[s]
		}
		if null {
			continue
		}
		ks := joinKey(key)
		table[ks] = append(table[ks], i)
	}

	nullRight := make(relation.Tuple, r.width)
	nullLeft := make(relation.Tuple, l.width)

	for _, lrow := range l.rows {
		matched := false
		var candidates []int
		null := false
		for k, s := range lslots {
			if lrow[s].IsNull() {
				null = true
				break
			}
			key[k] = lrow[s]
		}
		if !null {
			if len(hashPreds) > 0 {
				candidates = table[joinKey(key)]
			} else {
				candidates = allIndexes(len(r.rows))
			}
		}
		for _, ri := range candidates {
			joinedRow := lrow.Concat(r.rows[ri])
			ok, err := sql.Holds(tests, joinedRow, outer, subq)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				matchedRight[ri] = true
				out.rows = append(out.rows, joinedRow)
			}
		}
		if !matched && leftOuter {
			out.rows = append(out.rows, lrow.Concat(nullRight))
		}
	}
	if rightOuter {
		for ri, m := range matchedRight {
			if !m {
				out.rows = append(out.rows, nullLeft.Concat(r.rows[ri]))
			}
		}
	}
	return out, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// project applies grouping, aggregation, HAVING, the SELECT list and
// DISTINCT to the joined rowset.
func (e *Engine) project(blk *sql.Analyzed, rs *rowset, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	sel := blk.Sel
	schema := blk.OutputSchema()
	out := relation.New("result", schema)

	if !blk.HasAgg && len(sel.GroupBy) == 0 {
		items := make([]sql.Compiled, len(sel.Items))
		for i, item := range sel.Items {
			items[i] = sql.Compile(item.Expr, rs.binding)
		}
		for _, row := range rs.rows {
			t, err := sql.EvalAll(items, row, outer, subq)
			if err != nil {
				return nil, err
			}
			out.Tuples = append(out.Tuples, t)
		}
		return distinct(out, sel.Distinct), nil
	}

	// Aggregate slot assignment by pointer identity.
	slots := map[*sql.FuncCall]int{}
	for _, f := range blk.Aggregates {
		if _, ok := slots[f]; !ok {
			slots[f] = len(slots)
		}
	}
	slotOf := func(f *sql.FuncCall) int { return slots[f] }
	aggList := make([]*sql.FuncCall, len(slots))
	for f, s := range slots {
		aggList[s] = f
	}
	keys := sql.CompileAll(sel.GroupBy, rs.binding)
	args := make([]sql.Compiled, len(aggList))
	for i, f := range aggList {
		arg := sql.Expr(&sql.Literal{Val: relation.Int(1)}) // COUNT(*) counts every row
		if !f.Star {
			arg = f.Args[0]
		}
		args[i] = sql.Compile(arg, rs.binding)
	}

	type group struct {
		rep  relation.Tuple
		aggs []*sql.Aggregator
	}
	groups := map[string]*group{}
	var order []string

	keyVals := make([]relation.Value, len(keys))
	for _, row := range rs.rows {
		for i, g := range keys {
			v, err := g(row, outer, subq)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		ks := joinKey(keyVals)
		grp := groups[ks]
		if grp == nil {
			grp = &group{rep: row, aggs: make([]*sql.Aggregator, len(aggList))}
			for i, f := range aggList {
				grp.aggs[i] = sql.NewAggregator(f)
			}
			groups[ks] = grp
			order = append(order, ks)
		}
		for i, arg := range args {
			v, err := arg(row, outer, subq)
			if err != nil {
				return nil, err
			}
			grp.aggs[i].Observe(v)
		}
	}

	// Scalar aggregation over an empty input still yields one row.
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		grp := &group{rep: make(relation.Tuple, rs.width), aggs: make([]*sql.Aggregator, len(aggList))}
		for i, f := range aggList {
			grp.aggs[i] = sql.NewAggregator(f)
		}
		groups[""] = grp
		order = append(order, "")
	}

	// Each group is evaluated as one row: its representative row, then
	// its aggregate values.
	gbinding := make(sql.Binding, len(rs.binding)+len(aggList))
	for k, i := range rs.binding {
		gbinding[k] = i
	}
	for i := range aggList {
		gbinding[sql.AggKey(i)] = rs.width + i
	}
	items := make([]sql.Compiled, len(sel.Items))
	for i, it := range sel.Items {
		items[i] = sql.Compile(sql.RewriteAggregates(it.Expr, slotOf), gbinding)
	}
	var having sql.Compiled
	if sel.Having != nil {
		having = sql.Compile(sql.RewriteAggregates(sel.Having, slotOf), gbinding)
	}
	grow := make(relation.Tuple, rs.width+len(aggList))
	for _, ks := range order {
		grp := groups[ks]
		copy(grow, grp.rep)
		for i, a := range grp.aggs {
			grow[rs.width+i] = a.Result()
		}
		if having != nil {
			v, err := having(grow, outer, subq)
			if err != nil {
				return nil, err
			}
			if !v.AsBool() {
				continue
			}
		}
		t, err := sql.EvalAll(items, grow, outer, subq)
		if err != nil {
			return nil, err
		}
		out.Tuples = append(out.Tuples, t)
	}
	return distinct(out, sel.Distinct), nil
}

// distinct removes duplicate tuples when enabled.
func distinct(r *relation.Relation, enabled bool) *relation.Relation {
	if !enabled {
		return r
	}
	seen := map[string]bool{}
	kept := r.Tuples[:0]
	for _, t := range r.Tuples {
		k := joinKey(t)
		if !seen[k] {
			seen[k] = true
			kept = append(kept, t)
		}
	}
	r.Tuples = kept
	return r
}
