package core

import (
	"fmt"
	"slices"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
)

// groupAcc is one (partial) aggregation group: the evaluated GROUP BY key
// values, a representative source row, and partial accumulators, held
// by value. stamp is the last groupObserver.observe call that touched
// the group.
type groupAcc struct {
	key   []relation.Value
	rep   []relation.Value
	aggs  []sql.Aggregator
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
// combined message for the receiver's ComputeOps accounting. It carries
// no header: the plan fixes the one its representatives were built
// under (survivorFolder.header), and a QueryState's are under the
// block's canonical one (compiled.canonicalHeader).
type partialGroups struct {
	groups  []*groupAcc
	index   keyIndex
	logical int
}

// fold merges b's groups into p by key, in b's order: a new key's group
// is borrowed (appended, not copied) and an existing key's absorbs it
// with sql.Aggregator.Merge. Merges are exact, so the same partials give
// the same bits whether they fold at the shard merge, at a relay, at the
// receiving vertex or into a cached incremental state. A group decoded
// off the wire with another accumulator count than its key's is kept
// apart, not merged, for projectGroups to refuse.
func (p *partialGroups) fold(b *partialGroups) {
	keyAt := func(i int) []relation.Value { return p.groups[i].key }
	for _, g := range b.groups {
		if i := p.index.find(len(p.groups), keyAt, g.key); i >= 0 && len(p.groups[i].aggs) == len(g.aggs) {
			have := p.groups[i]
			for k := range have.aggs {
				have.aggs[k].Merge(&g.aggs[k])
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

// Size prices the partials as a message payload in bytes (the
// MessageBytes measure): the groups' keys and accumulators, as the wire
// carries no header either.
func (p *partialGroups) Size() int {
	n := 16
	for _, g := range p.groups {
		n += g.size()
	}
	return n
}

// aggSetup precomputes the aggregate slot assignment and rewritten
// SELECT/HAVING expressions of a block, the expressions evaluated per
// row (the GROUP BY keys, then each aggregate's argument), and fresh
// accumulators for the aggregates, which a new group copies.
type aggSetup struct {
	list   []*sql.FuncCall
	items  []sql.Expr
	having sql.Expr
	perRow []sql.Expr
	accs   []sql.Aggregator
}

// countStar is the argument of COUNT(*), which counts every row.
var countStar = &sql.Literal{Val: relation.Int(1)}

func newAggSetup(blk *sql.Analyzed) *aggSetup {
	slots := map[*sql.FuncCall]int{}
	for _, f := range blk.Aggregates {
		if _, ok := slots[f]; !ok {
			slots[f] = len(slots)
		}
	}
	s := &aggSetup{list: make([]*sql.FuncCall, len(slots)), accs: make([]sql.Aggregator, len(slots))}
	for f, i := range slots {
		s.list[i], s.accs[i] = f, *sql.NewAggregator(f)
	}
	slotOf := func(f *sql.FuncCall) int { return slots[f] }
	for _, it := range blk.Sel.Items {
		s.items = append(s.items, sql.RewriteAggregates(it.Expr, slotOf))
	}
	s.having = sql.RewriteAggregates(blk.Sel.Having, slotOf)
	s.perRow = append(make([]sql.Expr, 0, len(blk.Sel.GroupBy)+len(s.list)), blk.Sel.GroupBy...)
	for _, f := range s.list {
		if f.Star {
			s.perRow = append(s.perRow, countStar)
		} else {
			s.perRow = append(s.perRow, f.Args[0])
		}
	}
	return s
}

// groupArena carves what an observer's new groups hold — the group,
// its key, its accumulators, a seed's representative row and, on the
// LA path, the partialGroups that carries the group — from chunks of
// arenaChunk, so a new group costs no allocation of its own. A chunk
// lives as long as any group carved from it.
type groupArena struct {
	groups []groupAcc
	vals   []relation.Value
	aggs   []sql.Aggregator
	parts  []partialGroups
	heads  []*groupAcc
}

// arenaChunk is how many requests a groupArena chunk serves.
const arenaChunk = 32

// carve returns the next n elements of *chunk, zeroed and capped at n,
// starting a new chunk when it runs short.
func carve[T any](chunk *[]T, n int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, arenaChunk*n)
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// newGroup returns a group with copies of key and of the fresh
// accumulators accs, and rep as its representative.
func (a *groupArena) newGroup(key, rep []relation.Value, accs []sql.Aggregator) *groupAcc {
	g := &carve(&a.groups, 1)[0]
	g.key, g.rep, g.aggs = carve(&a.vals, len(key)), rep, carve(&a.aggs, len(accs))
	copy(g.key, key)
	copy(g.aggs, accs)
	return g
}

// newPartials returns an empty partialGroups with room for one group.
func (a *groupArena) newPartials() *partialGroups {
	pg := &carve(&a.parts, 1)[0]
	pg.groups = carve(&a.heads, 1)[:0]
	return pg
}

// groupObserver is §7's eager aggregation: it observes rows straight
// into the groups of a partialGroups, evaluating each row's GROUP BY
// key, finding or starting the key's group, and observing the row's
// aggregate arguments into the group's accumulators. finalizeGroups
// observes a survivor's rows into its worker's fold stream
// (bsp.Context.SendFold); the central path observes a whole table into
// one partialGroups. An observer belongs to one goroutine and reuses
// its buffers across calls.
type groupObserver struct {
	setup *aggSetup
	outer *sql.Env
	subq  sql.SubqueryFn
	arena groupArena
	key   []relation.Value
	// stamp numbers the observe calls, so a group whose stamp is not
	// the current call's is one this call has not touched yet.
	stamp uint64
}

// newGroupObserver returns an observer for the block's groups. On the
// distributed paths subq is nil (group keys and aggregate arguments are
// vertex-safe there).
func newGroupObserver(c *compiled, setup *aggSetup, outer *sql.Env, subq sql.SubqueryFn) *groupObserver {
	return &groupObserver{setup: setup, outer: outer, subq: subq, key: make([]relation.Value, len(c.blk.Sel.GroupBy))}
}

// observe folds rows into pg's groups, evaluating forms, the block's
// per-row expressions (aggSetup.perRow) compiled against the rows, and
// keeping each new group's row as its representative; new keys start
// groups in first-seen order. firsts, when not nil, holds each
// row's first GROUP BY key, already evaluated. It returns how many of
// pg's groups the rows touched and the size of a partialGroups holding
// only those groups: exactly the group count and payload size of the
// partial the rows' sender would have built on its own, whatever pg
// already held.
func (o *groupObserver) observe(pg *partialGroups, forms []sql.Compiled, rows [][]relation.Value, firsts []relation.Value) (touched, size int, err error) {
	before := pg.logicalGroups()
	o.stamp++
	keys, args := forms[:len(o.key)], forms[len(o.key):]
	keyAt := func(i int) []relation.Value { return pg.groups[i].key }
	size = 16
	for r, row := range rows {
		for i, g := range keys {
			if i == 0 && firsts != nil {
				o.key[0] = firsts[r]
				continue
			}
			if o.key[i], err = g(row, o.outer, o.subq); err != nil {
				return touched, size, err
			}
		}
		var grp *groupAcc
		if i := pg.index.find(len(pg.groups), keyAt, o.key); i >= 0 {
			grp = pg.groups[i]
		} else {
			grp = o.arena.newGroup(o.key, row, o.setup.accs)
			pg.groups = append(pg.groups, grp)
		}
		if grp.stamp != o.stamp {
			grp.stamp = o.stamp
			touched++
			size += grp.size()
		}
		for i, arg := range args {
			v, err := arg(row, o.outer, o.subq)
			if err != nil {
				return touched, size, err
			}
			grp.aggs[i].Observe(v)
		}
	}
	pg.logical = before + touched
	return touched, size, nil
}

// keepRows appends to dst the rows for which every test holds.
func keepRows(tests []sql.Compiled, rows [][]relation.Value, outer *sql.Env, subq sql.SubqueryFn, dst [][]relation.Value) ([][]relation.Value, error) {
	for _, row := range rows {
		ok, err := sql.Holds(tests, row, outer, subq)
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, row)
		}
	}
	return dst, nil
}

// survivorFolder is step 0 of finalizeGroups: a survivor keeps its
// rows that pass the residual predicates and observes them straight
// into its worker's fold stream toward each aggregation target
// (bsp.Context.SendFold). No per-vertex partial is built; under
// NoCombine each SendFold still builds one, as the plain message the
// reference run delivers.
//
// Survivors' rows share one binding, compiled against once: the
// collection root's header, or, in a single-alias block, the alias's
// tuple rows, whose seeds are admitted here and read in place (one
// pass: scan, selection, aggregation). header is the one the groups'
// representatives are kept under.
type survivorFolder struct {
	c               *compiled
	res             *componentResult
	w               []foldScratch
	header          []string
	residual, forms []sql.Compiled // the residuals left to apply, and aggSetup.perRow
}

// foldScratch is one worker's survivorFolder state.
type foldScratch struct {
	obs  *groupObserver
	one  [1][]relation.Value // a seed's tuple row
	rows [][]relation.Value  // the survivor's rows past the residual predicates
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
	var b sql.Binding
	var residual []*predicate
	switch {
	case res.values == nil:
		f.header, b = c.ownHeader[res.rootAlias], c.pushed[res.rootAlias].bind(c.blk.Tables[0])
		residual = c.residual
	case res.root != nil:
		f.header, b = res.root.header, sql.Binding(res.root.index)
		residual = res.root.rest // the collection applied the others
	}
	if b != nil {
		f.residual, f.forms = compileTests(residual, b), sql.CompileAll(setup.perRow, b)
	}
	for i := range f.w {
		f.w[i].obs = newGroupObserver(c, setup, outer, nil)
	}
	return f
}

// survivor returns the worker's scratch, v's rows that pass the
// residuals and how many rows v holds. A seed costs one op and holds
// its tuple row if passes admits it.
func (f *survivorFolder) survivor(ctx *bsp.Context, v bsp.VertexID) (*foldScratch, [][]relation.Value, int, error) {
	ws, run := &f.w[ctx.Worker()], f.res.run
	var rows [][]relation.Value
	if f.res.values == nil {
		ctx.AddOps(1)
		if !run.passes(ctx, f.res.rootAlias, v) {
			return ws, nil, 0, nil
		}
		ws.one[0] = run.ex.TAG.TupleData(v).Row
		rows = ws.one[:]
	} else if t := f.res.values[v]; t != nil {
		rows = t.rows
	}
	n := len(rows)
	if n == 0 || len(f.residual) == 0 {
		return ws, rows, n, nil
	}
	var err error
	ws.rows, err = keepRows(f.residual, rows, run.outer, nil, ws.rows[:0])
	return ws, ws.rows, n, err
}

// send observes rows (with firsts as observe takes them) into the fold
// stream from v to `to`, one logical send, and returns how many groups
// the rows touched.
func (f *survivorFolder) send(ctx *bsp.Context, ws *foldScratch, v, to bsp.VertexID, rows [][]relation.Value, firsts []relation.Value) (int, error) {
	var touched int
	var err error
	ctx.SendFold(v, to, func(acc any) (any, int) {
		pg, _ := acc.(*partialGroups)
		if pg == nil {
			pg = ws.obs.arena.newPartials()
		}
		var size int
		n := len(pg.groups)
		touched, size, err = ws.obs.observe(pg, f.forms, rows, firsts)
		if f.res.values == nil && len(pg.groups) > n {
			// A seed's new group keeps the alias's own row, not the tuple's.
			pg.groups[n].rep = f.res.run.appendOwnRow(carve(&ws.obs.arena.vals, len(f.header))[:0], f.res.rootAlias, v)
		}
		return pg, size
	})
	return touched, err
}

// splitByTarget orders rows by target into ws.sorted — targets in
// first-seen order, rows in their order within a target — and returns
// them with their first GROUP BY keys, keyOf each row, alongside. A
// row's target is targetOf its first key. It lists the targets in
// ws.targets with the end of each one's run in ws.ends. Rows that all
// go to one target are left where they are.
func (ws *foldScratch) splitByTarget(rows [][]relation.Value, keyOf sql.Compiled, targetOf func(relation.Value) bsp.VertexID) ([][]relation.Value, []relation.Value, error) {
	ws.targets, ws.ends, ws.of, ws.firsts = ws.targets[:0], ws.ends[:0], ws.of[:0], ws.firsts[:0]
	ws.index.reset()
	keyAt := func(i int) []relation.Value { return ws.targets[i : i+1] }
	for _, row := range rows {
		k, err := keyOf(row, ws.obs.outer, nil)
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

// sendByTarget observes rows into one fold stream from v per target
// (splitByTarget) and returns how many groups the rows touched.
func (f *survivorFolder) sendByTarget(ctx *bsp.Context, ws *foldScratch, v bsp.VertexID, rows [][]relation.Value, targetOf func(relation.Value) bsp.VertexID) (int, error) {
	rows, firsts, err := ws.splitByTarget(rows, f.forms[0], targetOf)
	touched, start := 0, 0
	for i := 0; err == nil && i < len(ws.targets); i++ {
		var n int
		to := bsp.VertexID(ws.targets[i].I)
		n, err = f.send(ctx, ws, v, to, rows[start:ws.ends[i]], firsts[start:ws.ends[i]])
		touched += n
		start = ws.ends[i]
	}
	return touched, err
}

// finalizeGroups is §7's aggregation finalization: survivors pre-aggregate
// their rows toward an aggregation target, which merges the partials of
// its groups and emits them. With targetOf nil the target is the single
// global aggregator vertex (the GA and scalar paths; its sequential merge
// is the bottleneck the paper measures). Otherwise a group goes to
// targetOf its first GROUP BY key, the attribute vertex of the key (the
// LA path), where each group completes in parallel with all others.
func (e *Session) finalizeGroups(c *compiled, res *componentResult, targetOf func(relation.Value) bsp.VertexID, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	setup := newAggSetup(c.blk)
	f := e.newSurvivorFolder(c, res, setup, outer)

	// With a partitioned graph, aggregator-bound partials first meet at
	// one relay vertex per machine: partition p's relay is vertex p, which
	// bsp.PartitionOf places on partition p. The relay is not what keeps
	// the aggregator at one message per machine — combining alone does
	// that, since the workers' accumulators merge at the barrier. It fixes
	// the aggregator's group order: every machine's groups reach it in
	// the relay's merge order, so a combined and an uncombined run list
	// their groups alike (without it q1 and q9 differ at Partitions 6,
	// TestCombinedMatchesUncombinedTPCH).
	parts := e.Opts.Partitions
	relayed := targetOf == nil && parts > 1
	last := 1
	if relayed {
		last = 2
	}
	// mergeInbox merges a target's partials; a vertex past step 0 runs
	// only when its inbox holds some. The first message is the merge: a
	// fresh one would borrow its groups first, in its order, so it is
	// adopted and the others fold into it. Its logical count is reset
	// once charged, so it rides on (and encodes) as a fresh merge would.
	mergeInbox := func(ctx *bsp.Context, inbox []bsp.Message) *partialGroups {
		merged := inbox[0].Payload.(*partialGroups)
		ctx.AddOps(merged.logicalGroups())
		merged.logical = 0
		for _, m := range inbox[1:] {
			pg := m.Payload.(*partialGroups)
			merged.fold(pg)
			// Combined messages carry already-merged groups; account the
			// pre-combine count so ComputeOps matches an uncombined run.
			ctx.AddOps(pg.logicalGroups())
		}
		return merged
	}
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		switch ctx.Step() {
		case 0:
			ws, rows, n, err := f.survivor(ctx, v)
			if n == 0 && err == nil {
				return
			}
			touched := 0
			if err == nil && targetOf != nil {
				touched, err = f.sendByTarget(ctx, ws, v, rows, targetOf)
			} else if err == nil && len(rows) > 0 {
				to := e.TAG.Aggregator
				if relayed {
					to = bsp.VertexID(bsp.PartitionOf(v, parts))
				}
				touched, err = f.send(ctx, ws, v, to, rows, nil)
			}
			if err != nil {
				ctx.Fail(err)
				return
			}
			ctx.AddOps(n + touched)
		case last:
			// The targets merge the partials of their groups. The merged
			// groups ride the emit stream, so every process — not just the
			// target's owner — can project them with the folder's header.
			if out := mergeInbox(ctx, inbox); len(out.groups) > 0 {
				ctx.Emit(out)
			}
		default:
			// Per-machine relay: merge and forward one message.
			if pg := mergeInbox(ctx, inbox); len(pg.groups) > 0 {
				ctx.Send(v, e.TAG.Aggregator, pg)
			}
		}
	})
	if err := e.runProg(bsp.WithCombiner(prog, pgCombiner{}), res.survivors); err != nil {
		return nil, err
	}
	return e.projectEmitted(c, setup, f.header, outer, subq)
}

// projectEmitted projects the merged groups finalizeGroups emitted,
// whose representatives are rows under header — first snapshotting
// them when incremental maintenance armed a capture, so only this path
// yields foldable state.
func (e *Session) projectEmitted(c *compiled, setup *aggSetup, header []string, outer *sql.Env, subq sql.SubqueryFn) (*relation.Relation, error) {
	var groups []*groupAcc
	for _, em := range e.eng.Emitted() {
		groups = append(groups, em.(*partialGroups).groups...)
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
		groups = []*groupAcc{{rep: make([]relation.Value, len(header)), aggs: slices.Clone(setup.accs)}}
	}
	// Each group is evaluated as one row: its representative row under
	// header, then its aggregate values.
	binding := sql.Binding{}
	for i, h := range header {
		binding[h] = i
	}
	for i := range setup.list {
		binding[sql.AggKey(i)] = len(header) + i
	}
	var having sql.Compiled
	if setup.having != nil {
		having = sql.Compile(setup.having, binding)
	}
	items := sql.CompileAll(setup.items, binding)
	row := make(relation.Tuple, len(header)+len(setup.list))
	for _, g := range groups {
		if len(g.aggs) != len(setup.list) {
			// Input from another process that the plan cannot place.
			return nil, fmt.Errorf("core: aggregation group with %d accumulators, the plan has %d", len(g.aggs), len(setup.list))
		}
		clear(row[copy(row[:len(header)], g.rep):len(header)])
		for i := range g.aggs {
			row[len(header)+i] = g.aggs[i].Result()
		}
		if having != nil {
			v, err := having(row, outer, subq)
			if err != nil {
				return nil, err
			}
			if !v.AsBool() {
				continue
			}
		}
		tup, err := sql.EvalAll(items, row, outer, subq)
		if err != nil {
			return nil, err
		}
		out.Tuples = append(out.Tuples, tup)
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
