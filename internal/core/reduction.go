package core

import (
	"slices"

	"repro/internal/bsp"
)

// reductionProgram runs the reduction phase of Algorithm 2: a connected
// bottom-up (UP) pass that marks join-relevant edges, followed by the
// reversed top-down (DOWN) pass that only signals along marked edges,
// leaving marks that correspond to the fully reduced relations (§5.2).
//
// Superstep s processes the messages sent along step s-1 (recording
// marks) and sends along step s; UP steps send along every edge with the
// step's label, DOWN steps only along marked ones.
type reductionProgram struct {
	r *componentRun
	// current superstep's index into r.steps (set by the master hook).
	cur int
}

// BeforeSuperstep drives the label schedule (the stack-popping master of
// Algorithm 2) and stops one superstep after the schedule is exhausted so
// the final DOWN recipients can record survival.
func (p *reductionProgram) BeforeSuperstep(step int) bool {
	p.cur = step
	return step <= len(p.r.steps)
}

// Compute is the per-vertex reduction kernel.
func (p *reductionProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	r := p.r
	ctx.AddOps(1 + bsp.InboxCount(inbox))

	// Computation stage: process receipts from the previous step.
	if p.cur > 0 {
		prev := r.steps[p.cur-1]
		if prev.toRel != "" && !r.passes(prev.toRel, v) {
			return // filtered out: no marks, no propagation (§7 selections)
		}
		r.mark(ctx, v, prev.edgeID, inbox)
	}

	// Communication stage: send along the current step.
	if p.cur >= len(r.steps) {
		ctx.Emit(v) // survivor of the final DOWN step
		return
	}
	cur := r.steps[p.cur]
	if p.cur < r.nUp {
		// UP: along every edge carrying the label (lines 11-13).
		ctx.SendAlong(v, cur.label, nil)
		return
	}
	// DOWN: only along edges marked by the opposite pass (lines 15-18),
	// in ascending id order.
	for _, t := range r.marks.edgeIDs(v, cur.edgeID) {
		ctx.Send(v, t, nil)
	}
}

// mark replaces v's sender set for a plan edge (the most recent, most
// reduced pass wins; line 19's mark update) with the sorted, distinct
// senders of its inbox. The signals travel uncombined, so each message
// is one sender. The first mark of v in a run lists v under the
// computing worker, so releasing the marks visits only the vertices that
// have some.
func (r *componentRun) mark(ctx *bsp.Context, v bsp.VertexID, edge int, inbox []bsp.Message) {
	m, w := r.marks, ctx.Worker()
	ids := m.arenas[w].take(len(inbox))
	for i := range inbox {
		ids[i] = inbox[i].From
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)

	head := m.slot[v]
	if head == nil {
		m.touched[w] = append(m.touched[w], v)
	}
	for run := head; run != nil; run = run.next {
		if run.edge == edge {
			run.ids = ids
			return
		}
	}
	run := m.arenas[w].newRun()
	run.edge, run.ids, run.next = edge, ids, head
	m.slot[v] = run
}

// runReduction executes the reduction phase and returns the survivors of
// the start alias (the vertices the collection phase starts from).
func (r *componentRun) runReduction() ([]bsp.VertexID, error) {
	r.prepareFilterMemo()
	prog := &reductionProgram{r: r}
	initial := r.initialActives(r.comp.TAGPlan.StartAlias)
	if err := r.ex.runProg(prog, initial); err != nil {
		return nil, err
	}
	var survivors []bsp.VertexID
	for _, e := range r.ex.eng.Emitted() {
		survivors = append(survivors, e.(bsp.VertexID))
	}
	return survivors, nil
}
