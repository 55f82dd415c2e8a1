package core

import (
	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
)

// groupAcc is one (partial) aggregation group: the evaluated GROUP BY key
// values, a representative source row, and partial accumulators.
type groupAcc struct {
	key  []relation.Value
	rep  []relation.Value
	aggs []*sql.Aggregator
}

// partialGroups is the message payload of the aggregation finalization:
// a vertex's locally pre-aggregated groups (the eager aggregation of §7).
// It is also the accumulator every merge of groups folds into (fold):
// index finds groups by key, and logical preserves the pre-combine group
// count of a combined message for the receiver's ComputeOps accounting.
type partialGroups struct {
	header  []string
	groups  []*groupAcc
	index   keyIndex
	logical int
}

// fold merges b's groups into p by key, in b's order: a new key's group
// is borrowed (appended, not copied) and an existing key's absorbs it
// with sql.Aggregator.Merge. Merges are exact, so the same partials give
// the same bits whether they fold at Send time, at the shard merge, at a
// relay, at the receiving vertex or into a cached incremental state.
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
		for _, v := range g.key {
			n += v.Size()
		}
		n += 32 * len(g.aggs)
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

// groupLocally folds rows of t into per-group partial accumulators, in
// first-seen group order. On the distributed paths subq is nil (group
// keys and aggregate arguments are vertex-safe there).
func groupLocally(c *compiled, setup *aggSetup, t *table, rows [][]relation.Value, outer *sql.Env, subq sql.SubqueryFn) ([]*groupAcc, error) {
	// The key is evaluated into scratch and copied out only for a new
	// group; the common narrow key shares the env's allocation.
	sc := &struct {
		env sql.Env
		key [2]relation.Value
	}{env: sql.Env{Binding: sql.Binding(t.index), Parent: outer}}
	env := &sc.env
	var scratch []relation.Value
	if n := len(c.blk.Sel.GroupBy); n > len(sc.key) {
		scratch = make([]relation.Value, n)
	} else {
		scratch = sc.key[:n]
	}
	var index keyIndex
	var groups []*groupAcc
	keyAt := func(i int) []relation.Value { return groups[i].key }
	for _, row := range rows {
		env.Row = relation.Tuple(row)
		for i, g := range c.blk.Sel.GroupBy {
			v, err := sql.Eval(g, env, subq)
			if err != nil {
				return nil, err
			}
			scratch[i] = v
		}
		var grp *groupAcc
		if i := index.find(len(groups), keyAt, scratch); i >= 0 {
			grp = groups[i]
		} else {
			grp = newGroup(scratch, row, setup.newAccs())
			groups = append(groups, grp)
		}
		for i, f := range setup.list {
			var v relation.Value
			if f.Star {
				v = relation.Int(1)
			} else {
				var err error
				v, err = sql.Eval(f.Args[0], env, subq)
				if err != nil {
					return nil, err
				}
			}
			grp.aggs[i].Observe(v)
		}
	}
	return groups, nil
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

// residualRows applies the block's residual predicates to a table's rows.
func (e *Session) residualRows(c *compiled, t *table, outer *sql.Env) ([][]relation.Value, error) {
	if len(c.residual) == 0 {
		return t.rows, nil
	}
	env := &sql.Env{Binding: sql.Binding(t.index), Parent: outer}
	var out [][]relation.Value
	for _, row := range t.rows {
		env.Row = relation.Tuple(row)
		keep := true
		for _, p := range c.residual {
			ok, err := p.eval(env, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
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
		rows, err := e.residualRows(c, t, outer)
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

// finalizeLocal is the §7 local-aggregation path: survivors pre-aggregate
// their rows and send the partial groups to the attribute vertex of the
// group key, where each group's aggregation completes in parallel with
// all other groups.
func (e *Session) finalizeLocal(c *compiled, res *componentResult, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	setup := newAggSetup(c.blk)
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		switch ctx.Step() {
		case 0:
			t := res.vertexTable(v)
			if t == nil {
				return
			}
			rows, err := e.residualRows(c, t, outer)
			if err != nil {
				ctx.Fail(err)
				return
			}
			groups, err := groupLocally(c, setup, t, rows, outer, nil)
			if err != nil {
				ctx.Fail(err)
				return
			}
			ctx.AddOps(len(t.rows) + len(groups))
			// Partition groups by the attribute vertex of the first key; a
			// lone group, the common case, goes as it is.
			target := func(g *groupAcc) bsp.VertexID {
				if av, ok := e.TAG.AttrVertexOf(g.key[0]); ok {
					return av
				}
				return e.TAG.Aggregator // NULL or unmaterialized key value
			}
			if len(groups) == 1 {
				ctx.Send(v, target(groups[0]), &partialGroups{header: t.header, groups: groups})
				return
			}
			byTarget := map[bsp.VertexID]*partialGroups{}
			var targets []bsp.VertexID
			for _, g := range groups {
				av := target(g)
				pg := byTarget[av]
				if pg == nil {
					pg = &partialGroups{header: t.header}
					byTarget[av] = pg
					targets = append(targets, av)
				}
				pg.groups = append(pg.groups, g)
			}
			for _, av := range targets {
				ctx.Send(v, av, byTarget[av]) // folds en route (pgCombiner)
			}
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

// finalizeGlobal is the §7 global/scalar aggregation path: survivors send
// partial groups to the single global aggregator vertex, which merges
// them sequentially (the bottleneck the paper measures on GA queries).
func (e *Session) finalizeGlobal(c *compiled, res *componentResult, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	setup := newAggSetup(c.blk)

	// With a partitioned (distributed) graph, partials are first combined
	// at one relay vertex per machine, so only one combined message per
	// machine crosses the network to the global aggregator — the
	// per-machine accumulator combining of Pregel-style engines and the
	// partial-aggregation optimization §7 describes.
	relays := e.partitionRelays()
	relayStep := 0
	partOf := e.Opts.PartitionOf
	if partOf == nil {
		pn := e.Opts.Partitions
		partOf = func(v bsp.VertexID) int {
			if pn <= 1 {
				return 0
			}
			return int(v) % pn
		}
	}
	if len(relays) > 1 {
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
			t := res.vertexTable(v)
			if t == nil {
				return
			}
			rows, err := e.residualRows(c, t, outer)
			if err != nil {
				ctx.Fail(err)
				return
			}
			groups, err := groupLocally(c, setup, t, rows, outer, nil)
			if err != nil {
				ctx.Fail(err)
				return
			}
			ctx.AddOps(len(t.rows) + len(groups))
			if len(groups) == 0 {
				return
			}
			pg := &partialGroups{header: t.header, groups: groups}
			if len(relays) > 1 {
				ctx.Send(v, relays[partOf(v)], pg)
			} else {
				ctx.Send(v, e.TAG.Aggregator, pg)
			}
		case ctx.Step() == relayStep && len(relays) > 1:
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
