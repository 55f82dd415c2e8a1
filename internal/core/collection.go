package core

import (
	"repro/internal/bsp"
	"repro/internal/plan"
	"repro/internal/relation"
)

// collectionProgram runs the collection phase of Algorithm 2 (§5.2): a
// second connected bottom-up pass over the marked subgraph in which
// messages carry partial join tables. Each vertex joins the tables it
// receives (union within a superstep — they come from the same plan edge
// — and natural join with its own tuple at relation vertices), then
// forwards its value along the current step's marked edges.
type collectionProgram struct {
	r   *componentRun
	cur int
	// own[w] is worker w's one-row table for the vertex's own tuple.
	own []*table
}

// BeforeSuperstep drives the bottom-up label schedule once more and
// allows one final superstep for the root to absorb its inbox.
func (p *collectionProgram) BeforeSuperstep(step int) bool {
	p.cur = step
	return step <= p.r.nUp
}

// Combiner folds the partial tables bound for one parent into a single
// pre-unioned tableBatch, so the fan-in union happens where the tables
// are produced instead of accumulating in the inbox.
func (p *collectionProgram) Combiner() bsp.Combiner { return tableUnionCombiner{} }

// Compute is the per-vertex collection kernel.
func (p *collectionProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	r := p.r
	pl := r.comp.TAGPlan

	// Union the incoming tables (same plan edge => same header): a single
	// append pass, not pairwise unions. A combined inbox is one message
	// already carrying the union.
	var value *table
	if len(inbox) == 1 {
		if b, ok := inbox[0].Payload.(*tableBatch); ok {
			value = b.t
		} else {
			value = inbox[0].Payload.(*table)
		}
	} else if len(inbox) > 1 {
		first := inbox[0].Payload.(*table)
		total := 0
		for _, m := range inbox {
			total += len(m.Payload.(*table).rows)
		}
		value = newTableShared(first.header, first.index)
		value.rows = make([][]relation.Value, 0, total)
		for _, m := range inbox {
			value.rows = append(value.rows, m.Payload.(*table).rows...)
		}
	}
	ctx.AddOps(1 + bsp.InboxCount(inbox))

	// Determine the plan node this superstep addresses: the To node of
	// the previous step (or the start leaf at superstep 0).
	var node plan.Node
	if p.cur == 0 {
		node = pl.Nodes[pl.Steps[0].From]
	} else {
		node = pl.Nodes[r.steps[p.cur-1].step.To]
	}

	// Relation vertices join their own tuple (lines 32-36); the hidden
	// id column keeps only rows that originated here when a table passes
	// through the same vertex again on the Euler walk.
	var preHeader map[string]int
	if value != nil {
		preHeader = value.index
	}
	if node.Kind == plan.RelNode {
		if value == nil {
			value = r.ownRow(node.Alias, v)
		} else {
			// The join copies what it keeps, so the own row can live in
			// the worker's scratch table.
			own := r.writeOwnRow(p.own[ctx.Worker()], node.Alias, v)
			value = r.joiner.join(value, own)
			ctx.AddOps(len(value.rows))
		}
	}
	if value == nil {
		return
	}

	// Pushed selections (§7): apply residual predicates at the earliest
	// round where the partial table contains their columns — i.e. they
	// just became complete at this vertex.
	if len(r.collectPreds) > 0 {
		value = r.applyCollectPreds(ctx, value, preHeader)
		if len(value.rows) == 0 {
			return
		}
	}

	if p.cur >= r.nUp {
		// Root reached: emit the distributed output (line 42). The value
		// rides the emit stream instead of being written into a shared
		// table directly so that, under a distributed transport, every process
		// reconstructs the full survivor set from the emit allgather.
		ctx.Emit(rootVal{v: v, t: value})
		return
	}

	// Forward along the current step's marked edges (lines 37-40), in
	// ascending id order.
	cur := r.steps[p.cur]
	for _, t := range r.marks.edgeIDs(v, cur.edgeID) {
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
// survivors of the start alias and returns the distributed result.
func (r *componentRun) runCollection(starters []bsp.VertexID) (*componentResult, error) {
	prog := &collectionProgram{r: r, own: make([]*table, r.ex.eng.Workers())}
	for w := range prog.own {
		prog.own[w] = &table{rows: make([][]relation.Value, 1)}
	}
	if err := r.ex.runProg(prog, starters); err != nil {
		return nil, err
	}

	res := &componentResult{
		run:       r,
		rootAlias: r.comp.Tree.Root,
		values:    map[bsp.VertexID]*table{},
	}
	for _, e := range r.ex.eng.Emitted() {
		rv := e.(rootVal)
		res.values[rv.v] = rv.t
		res.survivors = append(res.survivors, rv.v)
	}
	return res, nil
}
