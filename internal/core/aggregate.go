package core

import (
	"slices"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
)

// groupAcc is one (partial) aggregation group: the evaluated GROUP BY key
// values, a representative source row, and partial accumulators. stamp
// is the last groupObserver.observe call that touched the group.
type groupAcc struct {
	key   []relation.Value
	rep   []relation.Value
	aggs  []*sql.Aggregator
	stamp uint64
}

// size is the group's share of a partialGroups payload.
func (g *groupAcc) size() int {
	n := 32 * len(g.aggs)
	for _, v := range g.key {
		n += v.Size()
	}
	return n
}

// partialGroups is the message payload of the aggregation finalization:
// pre-aggregated groups (the eager aggregation of §7). It is also the
// accumulator every merge of groups folds into (fold): index finds
// groups by key, and logical preserves the pre-combine group count of a
// combined message for the receiver's ComputeOps accounting.
type partialGroups struct {
	header  []string
	groups  []*groupAcc
	index   keyIndex
	logical int
}

// fold merges b's groups into p by key, in b's order: a new key's group
// is borrowed (appended, not copied) and an existing key's absorbs it
// with sql.Aggregator.Merge. Merges are exact, so the same partials give
// the same bits whether they fold at the shard merge, at a relay, at the
// receiving vertex or into a cached incremental state.
func (p *partialGroups) fold(b *partialGroups) {
	if p.header == nil {
		p.header = b.header
	}
	keyAt := func(i int) []relation.Value { return p.groups[i].key }
	for _, g := range b.groups {
		if i := p.index.find(len(p.groups), keyAt, g.key); i >= 0 {
			have := p.groups[i]
			for k := range have.aggs {
				have.aggs[k].Merge(g.aggs[k])
			}
			continue
		}
		p.groups = append(p.groups, g)
	}
}

// logicalGroups is the number of groups the receiver would have seen
// had nothing folded en route.
func (p *partialGroups) logicalGroups() int {
	if p.logical > 0 {
		return p.logical
	}
	return len(p.groups)
}

func (p *partialGroups) size() int {
	n := 16
	for _, g := range p.groups {
		n += g.size()
	}
	return n
}

// aggSetup precomputes the aggregate slot assignment and rewritten
// SELECT/HAVING expressions of a block.
type aggSetup struct {
	list   []*sql.FuncCall
	items  []sql.Expr
	having sql.Expr
}

func newAggSetup(blk *sql.Analyzed) *aggSetup {
	slots := map[*sql.FuncCall]int{}
	for _, f := range blk.Aggregates {
		if _, ok := slots[f]; !ok {
			slots[f] = len(slots)
		}
	}
	s := &aggSetup{list: make([]*sql.FuncCall, len(slots))}
	for f, i := range slots {
		s.list[i] = f
	}
	slotOf := func(f *sql.FuncCall) int { return slots[f] }
	for _, it := range blk.Sel.Items {
		s.items = append(s.items, sql.RewriteAggregates(it.Expr, slotOf))
	}
	s.having = sql.RewriteAggregates(blk.Sel.Having, slotOf)
	return s
}

// newAccs returns fresh accumulators for the block's aggregates, carved
// from one backing array.
func (s *aggSetup) newAccs() []*sql.Aggregator {
	accs := make([]sql.Aggregator, len(s.list))
	out := make([]*sql.Aggregator, len(s.list))
	for i, f := range s.list {
		accs[i] = *sql.NewAggregator(f)
		out[i] = &accs[i]
	}
	return out
}

// groupObserver is §7's eager aggregation: it observes rows straight
// into the groups of a partialGroups, evaluating each row's GROUP BY
// key, finding or starting the key's group, and observing the row's
// aggregate arguments into the group's accumulators. The distributed
// finalizations observe a survivor's rows into its worker's fold stream
// (bsp.Context.SendFold); the central path observes a whole table into
// one partialGroups. An observer belongs to one goroutine and reuses
// its buffers across calls.
type groupObserver struct {
	c     *compiled
	setup *aggSetup
	subq  sql.SubqueryFn
	env   sql.Env
	key   []relation.Value
	// stamp numbers the observe calls, so a group whose stamp is not
	// the current call's is one this call has not touched yet.
	stamp uint64
	// copyRep copies a new group's representative row, for rows that
	// live in scratch the caller overwrites.
	copyRep bool
}

// newGroupObserver returns an observer for the block's groups. On the
// distributed paths subq is nil (group keys and aggregate arguments are
// vertex-safe there).
func newGroupObserver(c *compiled, setup *aggSetup, outer *sql.Env, subq sql.SubqueryFn, copyRep bool) *groupObserver {
	return &groupObserver{c: c, setup: setup, subq: subq, env: sql.Env{Parent: outer},
		key: make([]relation.Value, len(c.blk.Sel.GroupBy)), copyRep: copyRep}
}

// observe folds rows, shaped by t's header, into pg's groups; new keys
// start groups in first-seen order. firsts, when not nil, holds each
// row's first GROUP BY key, already evaluated. It returns how many of
// pg's groups the rows touched and the size of a partialGroups holding
// only those groups: exactly the group count and payload size of the
// partial the rows' sender would have built on its own, whatever pg
// already held.
func (o *groupObserver) observe(pg *partialGroups, t *table, rows [][]relation.Value, firsts []relation.Value) (touched, size int, err error) {
	if pg.header == nil {
		pg.header = t.header
	}
	before := pg.logicalGroups()
	o.stamp++
	env := &o.env
	env.Binding = sql.Binding(t.index)
	keyAt := func(i int) []relation.Value { return pg.groups[i].key }
	size = 16
	for r, row := range rows {
		env.Row = relation.Tuple(row)
		for i, g := range o.c.blk.Sel.GroupBy {
			if i == 0 && firsts != nil {
				o.key[0] = firsts[r]
				continue
			}
			if o.key[i], err = sql.Eval(g, env, o.subq); err != nil {
				return touched, size, err
			}
		}
		var grp *groupAcc
		if i := pg.index.find(len(pg.groups), keyAt, o.key); i >= 0 {
			grp = pg.groups[i]
		} else {
			rep := row
			if o.copyRep {
				rep = append([]relation.Value(nil), row...)
			}
			grp = newGroup(o.key, rep, o.setup.newAccs())
			pg.groups = append(pg.groups, grp)
		}
		if grp.stamp != o.stamp {
			grp.stamp = o.stamp
			touched++
			size += grp.size()
		}
		for i, f := range o.setup.list {
			v := relation.Int(1)
			if !f.Star {
				if v, err = sql.Eval(f.Args[0], env, o.subq); err != nil {
					return touched, size, err
				}
			}
			grp.aggs[i].Observe(v)
		}
	}
	pg.logical = before + touched
	return touched, size, nil
}

// newGroup returns a group with a copy of key; a narrow key shares the
// group's allocation.
func newGroup(key, rep []relation.Value, aggs []*sql.Aggregator) *groupAcc {
	if len(key) > 2 {
		return &groupAcc{key: append([]relation.Value(nil), key...), rep: rep, aggs: aggs}
	}
	g := &struct {
		groupAcc
		key [2]relation.Value
	}{groupAcc: groupAcc{rep: rep, aggs: aggs}}
	g.groupAcc.key = g.key[:copy(g.key[:], key)]
	return &g.groupAcc
}

// residualRows appends to dst the rows of t that pass the block's
// residual predicates, evaluated in env (whose Parent is the outer
// scope). With no residual predicates it returns t.rows itself.
func residualRows(c *compiled, env *sql.Env, t *table, dst [][]relation.Value) ([][]relation.Value, error) {
	if len(c.residual) == 0 {
		return t.rows, nil
	}
	env.Binding = sql.Binding(t.index)
rows:
	for _, row := range t.rows {
		env.Row = relation.Tuple(row)
		for _, p := range c.residual {
			ok, err := p.eval(env, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		dst = append(dst, row)
	}
	return dst, nil
}

// vertexTable returns the collection value of a survivor vertex.
func (res *componentResult) vertexTable(v bsp.VertexID) *table {
	if res.values == nil {
		return res.run.ownRow(res.rootAlias, v)
	}
	return res.values[v]
}

// finalizeNone handles blocks without aggregation: survivors filter their
// tables vertex-parallel and emit rows; projection happens centrally.
func (e *Session) finalizeNone(c *compiled, res *componentResult, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		t := res.vertexTable(v)
		if t == nil {
			return
		}
		var env *sql.Env
		if len(c.residual) > 0 {
			env = &sql.Env{Parent: outer}
		}
		rows, err := residualRows(c, env, t, nil)
		ctx.AddOps(len(t.rows))
		if err != nil {
			ctx.Fail(err)
			return
		}
		if len(rows) > 0 {
			out := newTableShared(t.header, t.index)
			out.rows = rows
			ctx.Emit(out)
		}
	})
	if err := e.runProg(prog, res.survivors); err != nil {
		return nil, err
	}
	var all *table
	for _, em := range e.eng.Emitted() {
		t := em.(*table)
		if all == nil {
			all = newTableShared(t.header, t.index)
		}
		all.rows = append(all.rows, t.rows...)
	}
	if all == nil {
		all = newTable(c.componentHeader(c.qp.Components[0]))
	}
	return e.projectCentral(c, all, outer, subq)
}

// survivorFolder is step 0 of the distributed finalizations: a survivor
// keeps the rows of its table that pass the residual predicates and
// observes them straight into its worker's fold stream toward each
// aggregation target (bsp.Context.SendFold). No per-vertex partial is
// built; under NoCombine each SendFold still builds one, as the plain
// message the reference run delivers.
type survivorFolder struct {
	c   *compiled
	res *componentResult
	w   []foldScratch
}

// foldScratch is one worker's survivorFolder state.
type foldScratch struct {
	obs  *groupObserver
	env  sql.Env
	own  table              // a single-alias survivor's own row
	rows [][]relation.Value // the survivor's rows past the residual predicates
	// The local path's split of a survivor's rows by target: targets in
	// first-seen order as INT values, index finds a target's position,
	// ends[i] is the end of target i's run in sorted, of is each row's
	// target index, and firsts and sortedFirsts hold each row's first
	// GROUP BY key in the order of rows and of sorted.
	targets      []relation.Value
	index        keyIndex
	probe        [1]relation.Value
	ends         []int
	of           []int32
	firsts       []relation.Value
	sorted       [][]relation.Value
	sortedFirsts []relation.Value
}

func (e *Session) newSurvivorFolder(c *compiled, res *componentResult, setup *aggSetup, outer *sql.Env) *survivorFolder {
	f := &survivorFolder{c: c, res: res, w: make([]foldScratch, e.eng.Workers())}
	for i := range f.w {
		ws := &f.w[i]
		// Own rows are rewritten per survivor, so groups copy theirs.
		ws.obs = newGroupObserver(c, setup, outer, nil, res.values == nil)
		ws.env.Parent = outer
		ws.own.rows = make([][]relation.Value, 1)
	}
	return f
}

// survivor returns the calling worker's scratch, v's table and the rows
// of it that pass the residual predicates; a nil table means v holds no
// value.
func (f *survivorFolder) survivor(ctx *bsp.Context, v bsp.VertexID) (*foldScratch, *table, [][]relation.Value, error) {
	ws := &f.w[ctx.Worker()]
	var t *table
	if f.res.values == nil {
		t = f.res.run.writeOwnRow(&ws.own, f.res.rootAlias, v)
	} else if t = f.res.values[v]; t == nil {
		return ws, nil, nil, nil
	}
	rows, err := residualRows(f.c, &ws.env, t, ws.rows[:0])
	if len(f.c.residual) > 0 {
		ws.rows = rows
	}
	return ws, t, rows, err
}

// send observes rows (with firsts as observe takes them) into the fold
// stream from v to `to`, one logical send, and returns how many groups
// the rows touched.
func (f *survivorFolder) send(ctx *bsp.Context, ws *foldScratch, v, to bsp.VertexID, t *table, rows [][]relation.Value, firsts []relation.Value) (int, error) {
	var touched int
	var err error
	ctx.SendFold(v, to, func(acc any) (any, int) {
		pg, _ := acc.(*partialGroups)
		if pg == nil {
			pg = &partialGroups{}
		}
		var size int
		touched, size, err = ws.obs.observe(pg, t, rows, firsts)
		return pg, size
	})
	return touched, err
}

// splitByTarget orders rows by target into ws.sorted — targets in
// first-seen order, rows in their order within a target — and returns
// them with their first GROUP BY keys (keyOf) alongside. A row's target
// is targetOf its first key. It lists the targets in ws.targets with
// the end of each one's run in ws.ends. Rows that all go to one target
// are left where they are.
func (ws *foldScratch) splitByTarget(t *table, rows [][]relation.Value, keyOf sql.Expr, targetOf func(relation.Value) bsp.VertexID) ([][]relation.Value, []relation.Value, error) {
	ws.targets, ws.ends, ws.of, ws.firsts = ws.targets[:0], ws.ends[:0], ws.of[:0], ws.firsts[:0]
	ws.index.reset()
	keyAt := func(i int) []relation.Value { return ws.targets[i : i+1] }
	ws.env.Binding = sql.Binding(t.index)
	for _, row := range rows {
		ws.env.Row = relation.Tuple(row)
		k, err := sql.Eval(keyOf, &ws.env, nil)
		if err != nil {
			return nil, nil, err
		}
		ws.firsts = append(ws.firsts, k)
		ws.probe[0] = relation.Int(int64(targetOf(k)))
		i := ws.index.find(len(ws.targets), keyAt, ws.probe[:])
		if i < 0 {
			i = len(ws.targets)
			ws.targets = append(ws.targets, ws.probe[0])
			ws.ends = append(ws.ends, 0)
		}
		ws.of = append(ws.of, int32(i))
		ws.ends[i]++
	}
	if len(ws.targets) <= 1 {
		ws.ends = append(ws.ends[:0], len(rows))
		return rows, ws.firsts, nil
	}
	start := 0
	for i, n := range ws.ends {
		ws.ends[i] = start
		start += n
	}
	ws.sorted = slices.Grow(ws.sorted[:0], len(rows))[:len(rows)]
	ws.sortedFirsts = slices.Grow(ws.sortedFirsts[:0], len(rows))[:len(rows)]
	for i, row := range rows {
		j := ws.of[i]
		ws.sorted[ws.ends[j]] = row
		ws.sortedFirsts[ws.ends[j]] = ws.firsts[i]
		ws.ends[j]++
	}
	return ws.sorted, ws.sortedFirsts, nil
}

// finalizeLocal is the §7 local-aggregation path: survivors pre-aggregate
// their rows toward the attribute vertex of the group key, where each
// group's aggregation completes in parallel with all other groups.
func (e *Session) finalizeLocal(c *compiled, res *componentResult, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	setup := newAggSetup(c.blk)
	f := e.newSurvivorFolder(c, res, setup, outer)
	keyOf := c.blk.Sel.GroupBy[0]
	targetOf := func(k relation.Value) bsp.VertexID {
		if av, ok := e.TAG.AttrVertexOf(k); ok {
			return av
		}
		return e.TAG.Aggregator // NULL or unmaterialized key value
	}
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		switch ctx.Step() {
		case 0:
			ws, t, rows, err := f.survivor(ctx, v)
			if t == nil && err == nil {
				return
			}
			// A group goes to the attribute vertex of its first key, so a
			// survivor sends once per target its rows have.
			var firsts []relation.Value
			if err == nil {
				rows, firsts, err = ws.splitByTarget(t, rows, keyOf, targetOf)
			}
			touched, start := 0, 0
			for i := 0; err == nil && i < len(ws.targets); i++ {
				var n int
				to := bsp.VertexID(ws.targets[i].I)
				n, err = f.send(ctx, ws, v, to, t, rows[start:ws.ends[i]], firsts[start:ws.ends[i]])
				touched += n
				start = ws.ends[i]
			}
			if err != nil {
				ctx.Fail(err)
				return
			}
			ctx.AddOps(len(t.rows) + touched)
		case 1:
			// Attribute vertices merge the partials of their groups; each
			// vertex handles its own groups independently (LA parallelism).
			// The merged groups ride one emitted partialGroups so the
			// source header reaches every process with the result.
			merged := &partialGroups{}
			for _, m := range inbox {
				merged.fold(m.Payload.(*partialGroups))
			}
			ctx.AddOps(len(merged.groups))
			if len(merged.groups) > 0 {
				ctx.Emit(merged)
			}
		}
	})
	if err := e.runProg(bsp.WithCombiner(prog, pgCombiner{}), res.survivors); err != nil {
		return nil, err
	}
	return e.projectEmitted(c, setup, outer, subq)
}

// finalizeGlobal is the §7 global/scalar aggregation path: survivors
// pre-aggregate their rows toward the single global aggregator vertex,
// which merges the partials sequentially (the bottleneck the paper
// measures on GA queries).
func (e *Session) finalizeGlobal(c *compiled, res *componentResult, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	setup := newAggSetup(c.blk)
	f := e.newSurvivorFolder(c, res, setup, outer)

	// With a partitioned (distributed) graph, partials are first combined
	// at one relay vertex per machine, so only one combined message per
	// machine crosses the network to the global aggregator — the
	// per-machine accumulator combining of Pregel-style engines and the
	// partial-aggregation optimization §7 describes. Partition p's relay
	// is vertex p, which bsp.PartitionOf places on partition p.
	parts := e.Opts.Partitions
	relayed := parts > 1
	relayStep := 0
	if relayed {
		relayStep = 1
	}
	mergeInbox := func(ctx *bsp.Context, inbox []bsp.Message) *partialGroups {
		merged := &partialGroups{}
		for _, m := range inbox {
			pg := m.Payload.(*partialGroups)
			merged.fold(pg)
			// Combined messages carry already-merged groups; account the
			// pre-combine count so ComputeOps matches an uncombined run.
			ctx.AddOps(pg.logicalGroups())
		}
		return merged
	}
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		switch {
		case ctx.Step() == 0:
			ws, t, rows, err := f.survivor(ctx, v)
			if t == nil && err == nil {
				return
			}
			touched := 0
			if err == nil && len(rows) > 0 {
				to := e.TAG.Aggregator
				if relayed {
					to = bsp.VertexID(bsp.PartitionOf(v, parts))
				}
				touched, err = f.send(ctx, ws, v, to, t, rows, nil)
			}
			if err != nil {
				ctx.Fail(err)
				return
			}
			ctx.AddOps(len(t.rows) + touched)
		case relayed && ctx.Step() == relayStep:
			// Per-machine relay: combine and forward one message.
			if pg := mergeInbox(ctx, inbox); len(pg.groups) > 0 {
				ctx.Send(v, e.TAG.Aggregator, pg)
			}
		case ctx.Step() == relayStep+1:
			// The single aggregator vertex merges everything (the GA
			// bottleneck of §8.3 — now fed at most one message per worker
			// per machine, since aggregator-bound partials fold en route).
			// The merged result rides the emit stream so every process —
			// not just the aggregator vertex's owner — can project it.
			if out := mergeInbox(ctx, inbox); len(out.groups) > 0 {
				ctx.Emit(out)
			}
		}
	})
	if err := e.runProg(bsp.WithCombiner(prog, pgCombiner{}), res.survivors); err != nil {
		return nil, err
	}
	return e.projectEmitted(c, setup, outer, subq)
}

// projectEmitted projects the merged groups a distributed finalization
// emitted — first snapshotting them when incremental maintenance armed
// a capture, so only these paths yield foldable state.
func (e *Session) projectEmitted(c *compiled, setup *aggSetup, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	var groups []*groupAcc
	var header []string
	for _, em := range e.eng.Emitted() {
		pg := em.(*partialGroups)
		header = pg.header
		groups = append(groups, pg.groups...)
	}
	if e.capture != nil && !e.capture.done {
		e.capture.record(c, groups, header)
	}
	return projectGroups(c, setup, groups, header, outer, subq)
}

// projectGroups applies HAVING and the SELECT list to merged groups.
// srcHeader is the header the representative rows were built against.
func projectGroups(c *compiled, setup *aggSetup, groups []*groupAcc, srcHeader []string, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	blk := c.blk
	out := relation.New("result", blk.OutputSchema())

	header := srcHeader
	if header == nil {
		if c.qp != nil && len(c.qp.Components) == 1 {
			header = c.componentHeader(c.qp.Components[0])
		} else {
			header = c.canonicalHeader()
		}
	}

	// Scalar aggregation over empty input still yields one row.
	if len(blk.Sel.GroupBy) == 0 && blk.HasAgg && len(groups) == 0 {
		groups = []*groupAcc{{rep: make([]relation.Value, len(header)), aggs: setup.newAccs()}}
	}
	binding := sql.Binding{}
	for i, h := range header {
		binding[h] = i
	}

	for _, g := range groups {
		rep := g.rep
		if len(rep) < len(header) {
			padded := make([]relation.Value, len(header))
			copy(padded, rep)
			rep = padded
		}
		env := &sql.Env{Binding: binding, Row: rep, Parent: outer,
			Aggs: make([]relation.Value, len(g.aggs))}
		for i, a := range g.aggs {
			env.Aggs[i] = a.Result()
		}
		if setup.having != nil {
			v, err := sql.Eval(setup.having, env, subq)
			if err != nil {
				return nil, err
			}
			if !v.AsBool() {
				continue
			}
		}
		row := make(relation.Tuple, len(setup.items))
		for i, it := range setup.items {
			v, err := sql.Eval(it, env, subq)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.Tuples = append(out.Tuples, row)
	}
	return dedup(out, blk.Sel.Distinct), nil
}

// dedup removes duplicate tuples when DISTINCT is set.
func dedup(r *relation.Relation, enabled bool) *relation.Relation {
	if !enabled {
		return r
	}
	var index keyIndex
	kept := r.Tuples[:0]
	keyAt := func(i int) []relation.Value { return kept[i] }
	for _, t := range r.Tuples {
		if index.find(len(kept), keyAt, t) < 0 {
			kept = append(kept, t)
		}
	}
	r.Tuples = kept
	return r
}
