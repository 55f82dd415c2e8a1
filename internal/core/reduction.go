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
// Superstep 0 admits the start alias's seeds that pass its filters
// (§7 selections, charged like any other vertex activation) and sends
// along step 0. Superstep s > 0 processes the messages sent along step
// s-1 (recording marks) and sends along step s. An UP step that first
// crosses a plan edge sends along every edge with the step's label; the
// UP step that climbs back across an edge the walk descended, and every
// DOWN step, send only along the marks the opposite crossing left, so a
// tuple the descent did not reach is not brought back (a semijoin, as in
// Yannakakis's full reducer). Superstep len(steps) emits the survivors
// and sends nothing, so the run ends there; with no steps, superstep 0
// is a single-alias scan.
type reductionProgram struct {
	r     *componentRun
	start string // the alias whose seeds are the initial active set
}

// Compute is the per-vertex reduction kernel.
func (p *reductionProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	r := p.r
	step := ctx.Step()
	ctx.AddOps(1 + bsp.InboxCount(inbox))

	// Computation stage: admit the seed, or process receipts from the
	// previous step.
	if step == 0 {
		if !r.passes(ctx, p.start, v) {
			return // filtered out at its vertex (§7 selections)
		}
	} else {
		prev := r.steps[step-1]
		if prev.toRel != "" && !r.passes(ctx, prev.toRel, v) {
			return // filtered out: no marks, no propagation (§7 selections)
		}
		r.mark(ctx, v, prev.edgeID, inbox)
	}

	// Communication stage: send along the current step.
	if step >= len(r.steps) {
		ctx.Emit(v) // survivor of the final step
		return
	}
	cur := r.steps[step]
	if !cur.viaMarks {
		// UP, first crossing: along every edge carrying the label
		// (lines 11-13).
		ctx.SendAlong(v, cur.label, nil)
		return
	}
	// Only along the edges marked by the opposite crossing (lines
	// 15-18), in ascending id order.
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

// runReduction executes the reduction phase from start's seeds and
// returns the survivors of start (the vertices the collection phase
// starts from).
func (r *componentRun) runReduction(start string) ([]bsp.VertexID, error) {
	r.prepareFilterMemo()
	if err := r.ex.runProg(&reductionProgram{r: r, start: start}, r.c.pushed[start].seeds); err != nil {
		return nil, err
	}
	var survivors []bsp.VertexID
	for _, e := range r.ex.eng.Emitted() {
		survivors = append(survivors, e.(bsp.VertexID))
	}
	return survivors, nil
}
