package core

import (
	"fmt"
	"slices"

	"repro/internal/bsp"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
)

// collectionProgram runs the collection phase of Algorithm 2 (§5.2): a
// second connected bottom-up pass over the marked subgraph in which
// messages carry partial join tables. Each vertex joins the tables it
// receives (union within a superstep — they come from the same plan edge
// — and natural join with its own tuple at relation vertices), then
// forwards its value along the current step's marked edges. Superstep
// s sends along the collection's UP step s; at the superstep after its
// last, the root emits and sends nothing, so the run ends there.
type collectionProgram struct {
	r     *componentRun
	sched []collectStep
	// own[w] is worker w's one-row table for the vertex's own tuple.
	own []*table
}

// collectStep is what the plan fixes about one collection superstep:
// the node it addresses, the header (and index) of the value it sends
// on, the join with the node's own row (relation nodes after the
// first step), and the residuals that become complete there, compiled
// against that header.
type collectStep struct {
	node   plan.Node
	header []string
	index  map[string]int
	join   *joinShape
	preds  []sql.Compiled
	// rest, on the root's step, lists the residuals no step applied.
	rest []*predicate
}

// collectSchedule compiles the collection's steps: superstep s
// addresses the start leaf (s = 0) or the To node of its UP step s-1. A
// vertex-safe residual applies at the first step whose header holds
// all its columns. The root's step keeps the residuals none applied.
func (r *componentRun) collectSchedule() []collectStep {
	pl, c := r.comp.TAGPlan, r.c
	sched := make([]collectStep, len(r.collect)+1)
	var prev map[string]int
	for s := range sched {
		cs := &sched[s]
		if s == 0 {
			cs.node = pl.Nodes[r.collect[0].step.From]
		} else {
			cs.node = pl.Nodes[r.collect[s-1].step.To]
			cs.header, cs.index = sched[s-1].header, sched[s-1].index
		}
		if a := cs.node.Alias; cs.node.Kind == plan.RelNode && s == 0 {
			cs.header, cs.index = c.ownHeader[a], c.ownIndex[a]
		} else if cs.node.Kind == plan.RelNode {
			cs.join = newJoinShape(cs.header, cs.index, c.ownHeader[a], c.classCols)
			cs.header, cs.index = cs.join.header, cs.join.index
		}
		for _, p := range c.residual {
			if len(p.cols) == 0 || p.hoisted {
				continue
			}
			if holdsAll(cs.index, p.cols) && !holdsAll(prev, p.cols) {
				cs.preds = append(cs.preds, p.compile(sql.Binding(cs.index)))
			}
		}
		prev = cs.index
	}
	root := &sched[len(r.collect)]
	for _, p := range c.residual {
		if len(p.cols) == 0 || p.hoisted || !holdsAll(root.index, p.cols) {
			root.rest = append(root.rest, p)
		}
	}
	return sched
}

// unapplied returns the residuals of preds that the collection of res
// did not apply: all of them if it compiled no schedule, else those
// its root step keeps. A run with no schedule had no survivors, or no
// collection at all (a single-alias component).
func (res *componentResult) unapplied(preds []*predicate) []*predicate {
	if res.root == nil {
		return preds
	}
	var out []*predicate
	for _, p := range preds {
		if slices.Contains(res.root.rest, p) {
			out = append(out, p)
		}
	}
	return out
}

// holdsAll reports whether index holds every key.
func holdsAll(index map[string]int, keys []string) bool {
	for _, k := range keys {
		if _, ok := index[k]; !ok {
			return false
		}
	}
	return true
}

// adopt returns t under the step's shared header and index. A table
// decoded off the wire carries no header, only rows, and takes the
// step's here. Rows of another width are input from another process
// that the plan cannot place, so they are refused; a combined batch
// may hold rows from both, so every row is checked.
func (cs *collectStep) adopt(t *table) (*table, error) {
	for _, row := range t.rows {
		if len(row) != len(cs.header) {
			return nil, fmt.Errorf("core: collection table row of width %d, the plan's header has %d columns", len(row), len(cs.header))
		}
	}
	if t.header != nil {
		return t, nil
	}
	return &table{header: cs.header, index: cs.index, rows: t.rows}, nil
}

// union returns the union of the tables in an inbox sent along this
// step: a single append pass, not pairwise unions. A combined inbox is
// one message already carrying the union.
func (cs *collectStep) union(inbox []bsp.Message) (*table, error) {
	tableOf := func(m bsp.Message) *table {
		if b, ok := m.Payload.(*tableBatch); ok {
			return b.t
		}
		return m.Payload.(*table)
	}
	if len(inbox) == 1 {
		return cs.adopt(tableOf(inbox[0]))
	}
	total := 0
	for _, m := range inbox {
		if _, err := cs.adopt(tableOf(m)); err != nil {
			return nil, err
		}
		total += len(tableOf(m).rows)
	}
	value := newTableShared(cs.header, cs.index)
	value.rows = make([][]relation.Value, 0, total)
	for _, m := range inbox {
		value.rows = append(value.rows, tableOf(m).rows...)
	}
	return value, nil
}

// filter keeps the rows of t that pass the residuals that become
// complete at this step (§7 pushed selections). A residual that fails
// to evaluate fails the run.
func (cs *collectStep) filter(ctx *bsp.Context, t *table, outer *sql.Env) *table {
	if len(cs.preds) == 0 {
		return t
	}
	ctx.AddOps(len(t.rows))
	out := newTableShared(cs.header, cs.index)
	for _, row := range t.rows {
		ok, err := sql.Holds(cs.preds, row, outer, nil)
		if err != nil {
			ctx.Fail(err)
			return newTableShared(cs.header, cs.index)
		}
		if ok {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// Combiner folds the partial tables bound for one parent into a single
// pre-unioned tableBatch, so the fan-in union happens where the tables
// are produced instead of accumulating in the inbox.
func (p *collectionProgram) Combiner() bsp.Combiner { return tableUnionCombiner{} }

// Compute is the per-vertex collection kernel.
func (p *collectionProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	r := p.r
	step := ctx.Step()
	cs := &p.sched[step]

	var value *table
	if len(inbox) > 0 {
		var err error
		if value, err = p.sched[step-1].union(inbox); err != nil {
			ctx.Fail(err)
			return
		}
	}
	ctx.AddOps(1 + bsp.InboxCount(inbox))

	// Relation vertices join their own tuple (lines 32-36); the hidden
	// id column keeps only rows that originated here when a table passes
	// through the same vertex again on the Euler walk.
	if cs.node.Kind == plan.RelNode {
		if value == nil {
			value = r.ownRow(cs.node.Alias, v)
		} else {
			// The join copies what it keeps, so the own row can live in
			// the worker's scratch table.
			own := r.writeOwnRow(p.own[ctx.Worker()], cs.node.Alias, v)
			value = cs.join.join(value, own)
			ctx.AddOps(len(value.rows))
			if len(value.rows) == 0 {
				// No row agrees with the own tuple: work a full
				// reduction leaves none of.
				r.ex.emptyTables.Add(1)
				return
			}
		}
	}
	if value == nil {
		return
	}

	// Pushed selections (§7): apply residual predicates at the earliest
	// round where the partial table contains their columns — i.e. they
	// just became complete at this vertex. A table they empty stops.
	if value = cs.filter(ctx, value, r.outer); len(value.rows) == 0 {
		return
	}

	if step >= len(r.collect) {
		// Root reached: emit the distributed output (line 42). The value
		// rides the emit stream instead of being written into a shared
		// table directly so that, under a distributed transport, every process
		// reconstructs the full survivor set from the emit allgather.
		ctx.Emit(rootVal{v: v, t: value})
		return
	}

	// Forward along the current step's marked edges (lines 37-40), in
	// ascending id order.
	for _, t := range r.marks.edgeIDs(v, r.collect[step].edgeID) {
		ctx.Send(v, t, value)
	}
}

// rootVal is the emitted collection output of one root-alias survivor:
// the vertex and its final partial-join table.
type rootVal struct {
	v bsp.VertexID
	t *table
}

// runCollection executes the collection phase from the reduction
// survivors of its start leaf and returns the distributed result. The
// schedule is compiled only if there are survivors to start from.
func (r *componentRun) runCollection(starters []bsp.VertexID) (*componentResult, error) {
	prog := &collectionProgram{r: r, own: make([]*table, r.ex.eng.Workers())}
	for w := range prog.own {
		prog.own[w] = &table{rows: make([][]relation.Value, 1)}
	}
	if len(starters) > 0 {
		prog.sched = r.collectSchedule()
	}
	if err := r.ex.runProg(prog, starters); err != nil {
		return nil, err
	}

	res := &componentResult{
		run:       r,
		rootAlias: r.comp.Tree.Root,
		values:    map[bsp.VertexID]*table{},
	}
	if len(prog.sched) > 0 {
		res.root = &prog.sched[len(r.collect)]
	}
	for _, e := range r.ex.eng.Emitted() {
		rv := e.(rootVal)
		t, err := res.root.adopt(rv.t)
		if err != nil {
			return nil, err
		}
		res.values[rv.v] = t
		res.survivors = append(res.survivors, rv.v)
	}
	return res, nil
}
