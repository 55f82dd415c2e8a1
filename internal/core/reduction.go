package core

import (
	"cmp"
	"slices"

	"repro/internal/bsp"
	"repro/internal/plan"
	"repro/internal/relation"
)

// reductionProgram runs the reduction phase of Algorithm 2: a connected
// bottom-up (UP) pass that marks join-relevant edges, followed by the
// reversed top-down (DOWN) pass that only signals along marked edges,
// leaving marks that correspond to the fully reduced relations (§5.2).
//
// The start alias is a leaf, or a root or inner relation whose
// selection entered (plan.BuildTAGPlan); from one of those the walk
// first descends into the start's subtrees and climbs back out of each.
// Superstep 0 admits the start alias's seeds that pass its filters
// (§7 selections, charged like any other vertex activation) and sends
// along step 0. Superstep s > 0 processes the messages sent along step
// s-1 (recording marks) and sends along step s. An UP step that first
// crosses a plan edge sends along every edge with the step's label; the
// UP step that climbs back across an edge the walk descended, and every
// DOWN step, send only along the marks the opposite crossing left, so a
// tuple the descent did not reach is not brought back (a semijoin, as in
// Yannakakis's full reducer). Superstep len(steps) sends nothing, so the
// run ends there; with no steps, superstep 0 is a single-alias scan.
//
// The run emits the survivors of the collection's start leaf, at the
// superstep that receives the DOWN pass's step into it (emitAt). That
// is the final superstep when both walks start at one leaf; otherwise
// the collection's leaf lies off the reduction's root-to-start path, so
// DOWN enters it once and leaves it again, and its survivors are the
// tuples that entry reaches.
//
// A plan edge whose aliases share further classes besides the one the
// walk traverses (plan.Node.Carried) is crossed as a semijoin on all
// of them: the messages into the attribute vertex carry the sender's
// values of those classes, and the attribute vertex passes on only what
// matches (resolveCarried).
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
	var prev, cur *stepInfo
	alias := p.start
	if step > 0 {
		prev = &r.steps[step-1]
		alias = prev.toRel
	}
	if step < len(r.steps) {
		cur = &r.steps[step]
	}
	if alias != "" && !r.passes(ctx, alias, v) {
		return // filtered out: no marks, no propagation (§7 selections)
	}
	if prev != nil && prev.check != nil && !r.inForwardedSet(v, prev.check, inbox) {
		return // no sender matches it on the carried classes
	}
	var pay any // the values the sends of this step carry
	if cur != nil && cur.carry != nil {
		if pay = r.carriedPayload(v, cur.carry); pay == nil {
			return // a NULL in a shared class joins nothing
		}
	}
	if prev != nil {
		r.mark(ctx, v, prev.edgeID, inbox, len(prev.carry))
	}

	if step == r.emitAt {
		ctx.Emit(v) // a survivor of the collection's start leaf
	}

	// Communication stage: send along the current step.
	if cur == nil {
		return
	}
	if cur.setPos != nil {
		r.sendMatching(ctx, v, cur)
		return
	}
	if !cur.viaMarks {
		// UP, first crossing: along every edge carrying the label
		// (lines 11-13).
		ctx.SendAlong(v, cur.label, pay)
		return
	}
	// Only along the edges marked by the opposite crossing (lines
	// 15-18), in ascending id order.
	for _, t := range r.marks.edgeIDs(v, cur.edgeID) {
		ctx.Send(v, t, pay)
	}
}

// sendMatching is an attribute vertex's send to the relation on the
// other side of a semijoin on carried classes (resolveCarried). The
// set is the values its partner's senders carried, kept with its marks
// on the partner's edge; a first crossing forwards it to every tuple
// on the label, which checks its own values (inForwardedSet), and a
// crossing along marks sends only to the marked senders whose values,
// kept with the mark, are in it. A vertex the partner never reached
// sends nothing: no tuple across it joins the partner.
func (r *componentRun) sendMatching(ctx *bsp.Context, v bsp.VertexID, cur *stepInfo) {
	from := r.marks.edgeRun(v, cur.setEdge)
	if from == nil {
		return
	}
	set := newCarriedSet(len(cur.setPos), len(from.ids))
	for i := range from.ids {
		set.insertAt(from.carried(i), cur.setPos)
	}
	if set.empty() {
		return
	}
	if !cur.viaMarks {
		ctx.SendAlong(v, cur.label, set)
		return
	}
	run := r.marks.edgeRun(v, cur.edgeID)
	if run == nil {
		return
	}
	for i, t := range run.ids {
		if set.has(run.carried(i), cur.markPos) {
			ctx.Send(v, t, nil)
		}
	}
}

// inForwardedSet reports whether tuple v's values at slots are in a set
// an attribute vertex forwarded to it.
func (r *componentRun) inForwardedSet(v bsp.VertexID, slots []int, inbox []bsp.Message) bool {
	row := r.ex.TAG.TupleData(v).Row
	for _, m := range inbox {
		if s, ok := m.Payload.(carriedSet); ok && s.has(row, slots) {
			return true
		}
	}
	return false
}

// carriedPayload returns the message of tuple v carrying its values at
// slots: a cycleMsg for one value, a one-tuple valueTuples for several.
// It returns nil when one of them is NULL, which no class member equals.
func (r *componentRun) carriedPayload(v bsp.VertexID, slots []int) any {
	row := r.ex.TAG.TupleData(v).Row
	if len(slots) == 1 {
		if val := row[slots[0]]; !val.IsNull() {
			return cycleMsg{val: val}
		}
		return nil
	}
	t := &valueTuples{width: len(slots), vals: make([]relation.Value, len(slots))}
	for i, s := range slots {
		if row[s].IsNull() {
			return nil
		}
		t.vals[i] = row[s]
	}
	return t
}

// carriedVals returns the values a reduction message carries (one is
// scratch for a single value), or nil for a bare signal.
func carriedVals(pay any, one *[1]relation.Value) []relation.Value {
	switch m := pay.(type) {
	case cycleMsg:
		one[0] = m.val
		return one[:]
	case *valueTuples:
		return m.vals
	}
	return nil
}

// carriedSet is the set of carried values an attribute vertex forwards:
// a valueBatch of keys for one class, valueTuples for several.
// Membership is key identity (relation.Ident), as for the attribute vertices,
// and NULL is a member of none.
type carriedSet interface {
	// insertAt adds vals[pos[0]], vals[pos[1]], ... unless one is NULL.
	insertAt(vals []relation.Value, pos []int)
	// has reports whether row[slots[0]], row[slots[1]], ... is a member.
	has(row []relation.Value, slots []int) bool
	empty() bool
}

// newCarriedSet returns an empty set of width values a member, with
// room for n members.
func newCarriedSet(width, n int) carriedSet {
	if width == 1 {
		return &valueBatch{vals: make([]relation.Value, 0, n)}
	}
	return &valueTuples{width: width, vals: make([]relation.Value, 0, n*width)}
}

// valueTuples is a set of value tuples of one width, kept flat in
// first-insert order: what a reduction message carries for an edge
// sharing three or more classes (one tuple), and the set an attribute
// vertex forwards across it.
type valueTuples struct {
	width int
	vals  []relation.Value
	index keyIndex
}

// Size prices the tuples in bytes (the MessageBytes measure).
func (t *valueTuples) Size() int {
	n := 8
	for _, v := range t.vals {
		n += v.Size()
	}
	return n
}

func (t *valueTuples) at(i int) []relation.Value { return t.vals[i*t.width : (i+1)*t.width] }

// insert adds tuple if no equal one is in the set. The index is kept
// complete, so a set that is only read (by the receivers of a forwarded
// one, concurrently) never writes it.
func (t *valueTuples) insert(tuple []relation.Value) {
	n := len(t.vals) / t.width
	if t.index.find(n, t.at, tuple) >= 0 {
		return
	}
	t.vals = append(t.vals, tuple...)
	if n+1 > linearKeys {
		t.index.index(n+1, t.at)
	}
}

func (t *valueTuples) insertAt(vals []relation.Value, pos []int) {
	var buf [4]relation.Value
	tuple, ok := pick(buf[:0], vals, pos)
	if ok {
		t.insert(tuple)
	}
}

func (t *valueTuples) has(row []relation.Value, slots []int) bool {
	var buf [4]relation.Value
	tuple, ok := pick(buf[:0], row, slots)
	return ok && t.index.find(len(t.vals)/t.width, t.at, tuple) >= 0
}

func (t *valueTuples) empty() bool { return len(t.vals) == 0 }

// pick appends vals[pos[0]], vals[pos[1]], ... to dst, reporting false
// if one is missing or NULL.
func pick(dst, vals []relation.Value, pos []int) ([]relation.Value, bool) {
	for _, p := range pos {
		if p >= len(vals) || vals[p].IsNull() {
			return dst, false
		}
		dst = append(dst, vals[p])
	}
	return dst, true
}

// mark replaces v's sender set for a plan edge (the most recent, most
// reduced pass wins; line 19's mark update) with the sorted, distinct
// senders of its inbox, and, when the messages carried width values
// each, those values beside them. The signals travel uncombined, so
// each message is one sender. The first mark of v in a run lists v
// under the computing worker, so releasing the marks visits only the
// vertices that have some.
func (r *componentRun) mark(ctx *bsp.Context, v bsp.VertexID, edge int, inbox []bsp.Message, width int) {
	m, w := r.marks, ctx.Worker()
	a := &m.arenas[w]
	ids := a.ids.take(len(inbox))
	var vals []relation.Value
	if width == 0 {
		for i := range inbox {
			ids[i] = inbox[i].From
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
	} else {
		ids, vals = a.sortCarried(ids, inbox, width)
	}

	head := m.slot[v]
	if head == nil {
		m.touched[w] = append(m.touched[w], v)
	}
	for run := head; run != nil; run = run.next {
		if run.edge == edge {
			run.ids, run.vals = ids, vals
			return
		}
	}
	run := a.newRun()
	run.edge, run.ids, run.vals, run.next = edge, ids, vals, head
	m.slot[v] = run
}

// sortCarried fills ids with the distinct senders of a carrying inbox,
// ascending, and returns them with the width values each one carried.
func (a *markArena) sortCarried(ids []bsp.VertexID, inbox []bsp.Message, width int) ([]bsp.VertexID, []relation.Value) {
	a.order = a.order[:0]
	for i := range inbox {
		a.order = append(a.order, carriedFrom{from: inbox[i].From, at: i})
	}
	slices.SortFunc(a.order, func(x, y carriedFrom) int { return cmp.Compare(x.from, y.from) })
	a.order = slices.CompactFunc(a.order, func(x, y carriedFrom) bool { return x.from == y.from })
	ids = ids[:len(a.order)]
	vals := a.vals.take(len(a.order) * width)
	var one [1]relation.Value
	for i, o := range a.order {
		ids[i] = o.from
		// A message carrying fewer values leaves NULLs, which match
		// nothing.
		copy(vals[i*width:(i+1)*width], carriedVals(inbox[o.at].Payload, &one))
	}
	return ids, vals
}

// resolveCarried makes each step out of an attribute node a semijoin
// on every class its receiving relation shares with a partner across
// the node (Bernstein and Chiu's semijoin programs). For a step from
// attribute node X to relation node B, the partners are X's parent when
// B hangs under X with carried classes (plan.Node.Carried), and the
// relations under X that carry classes when B is X's parent. The
// partner that stepped into X latest (often right before, so its
// messages are the inbox) supplies the set: that step carries its
// values of the classes, kept with X's marks on its edge, and setPos
// picks them out. A first crossing forwards the set to the B tuples,
// which check their own values (check); a crossing along marks sends
// only to the marked B senders whose values, kept with the mark by B's
// latest step into X, are in the set (markPos picks them out). A step
// into X carries the union, ascending, of the classes the later steps
// reading its marks need.
func (r *componentRun) resolveCarried() {
	p := r.comp.TAGPlan
	// into returns the latest step before u from node n into node x, or -1.
	into := func(u, n, x int) int {
		for w := u - 1; w >= 0; w-- {
			if st := r.steps[w].step; st.From == n && st.To == x {
				return w
			}
		}
		return -1
	}
	type semijoin struct {
		classes     []int
		set, marked int // the steps that wrote the set's and B's marks
	}
	need := make([][]int, len(r.steps)) // per step into X: classes carried
	joins := make([]*semijoin, len(r.steps))
	for u := 1; u < len(r.steps); u++ {
		x, b := p.Nodes[r.steps[u].step.From], p.Nodes[r.steps[u].step.To]
		if x.Kind != plan.AttrNode {
			continue
		}
		var partners []int
		if b.ID == x.Parent {
			for _, c := range x.Children {
				if len(p.Nodes[c].Carried) > 0 {
					partners = append(partners, c)
				}
			}
		} else if len(b.Carried) > 0 {
			partners = append(partners, x.Parent)
		}
		sj := &semijoin{set: -1, marked: -1, classes: b.Carried}
		for _, c := range partners {
			if w := into(u, c, x.ID); w > sj.set {
				sj.set = w
				if b.ID == x.Parent {
					sj.classes = p.Nodes[c].Carried
				}
			}
		}
		if sj.set < 0 {
			continue
		}
		if r.steps[u].viaMarks {
			if sj.marked = into(u, b.ID, x.ID); sj.marked < 0 {
				continue
			}
			need[sj.marked] = unionSorted(need[sj.marked], sj.classes)
		}
		need[sj.set] = unionSorted(need[sj.set], sj.classes)
		joins[u] = sj
	}
	for s, cls := range need {
		if cls != nil {
			r.steps[s].carry = r.classSlots(p.Nodes[r.steps[s].step.From].Alias, cls)
		}
	}
	for u, sj := range joins {
		if sj == nil {
			continue
		}
		info := &r.steps[u]
		info.setEdge, info.setPos = r.steps[sj.set].edgeID, positions(need[sj.set], sj.classes)
		if info.viaMarks {
			info.markPos = positions(need[sj.marked], sj.classes)
		} else {
			info.check = r.classSlots(p.Nodes[info.step.To].Alias, sj.classes)
		}
	}
}

// classSlots returns the schema slots of alias's columns in classes.
func (r *componentRun) classSlots(alias string, classes []int) []int {
	schema := r.ex.TAG.Catalog.Get(r.c.aliasTable[alias]).Schema
	slots := make([]int, len(classes))
	for i, cls := range classes {
		col, _ := r.c.qp.Classes.ColumnOf(cls, alias)
		slots[i] = schema.Index(col)
	}
	return slots
}

// unionSorted returns the ascending union of two ascending lists.
func unionSorted(a, b []int) []int {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// positions returns where each of sub's elements sits in list.
func positions(list, sub []int) []int {
	pos := make([]int, len(sub))
	for i, x := range sub {
		pos[i] = slices.Index(list, x)
	}
	return pos
}

// runReduction executes the reduction phase from start's seeds and
// returns the survivors of the collection's start leaf (the vertices
// the collection phase starts from).
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
