package core

import (
	"fmt"
	"maps"
	"math"

	"repro/internal/bsp"
	"repro/internal/plan"
	"repro/internal/relation"
)

// cycleMsg carries a join-attribute value around a cycle (§6.1/§6.2).
type cycleMsg struct {
	val relation.Value
}

// Size prices the message in bytes (the MessageBytes measure).
func (m cycleMsg) Size() int { return 8 + m.val.Size() }

// pathHop is one hop of a cycle walk: the TAG label it crosses and, when
// it lands on tuple vertices, their alias.
type pathHop struct {
	label    bsp.LabelID
	relAlias string // non-empty when the hop lands on tuple vertices
}

// ringLink is one alias of a cycle and the labels of its two cycle
// columns: in for the class it shares with the alias before it in the
// ring, out for the one it shares with the alias after it.
type ringLink struct {
	alias   string
	in, out bsp.LabelID
}

// runCyclePass reduces the members of one join cycle before the tree
// reduction (§6.2). Position p of the ring is the class alias p enters
// by; position 0 is X1, the cycle-closing class. X1's attribute vertices
// split into heavy and light by their degree against θ (θ=√IN by
// default, matching the AGM-bound analysis). Heavy values walk both ways
// around the ring to the middle position, where the two directions'
// arrivals intersect; light values wake their successors at position 1,
// which walk instead. The values that survive the middle walk back, and
// a tuple vertex that passed one on survives; every other tuple of the
// cycle's aliases is excluded from the main reduction.
func (r *componentRun) runCyclePass(cyc plan.Cycle) error {
	n := len(cyc.Aliases)
	if n < 3 {
		return fmt.Errorf("core: degenerate cycle %v", cyc.Aliases)
	}
	classes := r.c.qp.Classes
	label := func(pred plan.EquiPred, a string) (bsp.LabelID, error) {
		class := classes.Of[pred.A]
		col, ok := classes.ColumnOf(class, a)
		if !ok {
			return 0, fmt.Errorf("core: alias %s has no column in class %d", a, class)
		}
		lbl, ok := r.ex.TAG.EdgeLabel(r.c.aliasTable[a], col)
		if !ok {
			return 0, fmt.Errorf("core: unmaterialized cycle column %s.%s", a, col)
		}
		return lbl, nil
	}
	// Preds[i] joins alias i to alias i+1.
	ring := make([]ringLink, n)
	for i, a := range cyc.Aliases {
		in, err := label(cyc.Preds[(i+n-1)%n], a)
		if err != nil {
			return err
		}
		out, err := label(cyc.Preds[i], a)
		if err != nil {
			return err
		}
		ring[i] = ringLink{alias: a, in: in, out: out}
	}

	// path returns the hops from position `from` to the middle one
	// (X_{⌈n/2⌉+1} in the paper's numbering): forward through alias p,
	// in then out, or backward through alias p-1, out then in.
	mid := (n + 1) / 2
	path := func(from, dir int) []pathHop {
		var hops []pathHop
		for p := from; p != mid; p = (p + dir + n) % n {
			if dir > 0 {
				l := ring[p]
				hops = append(hops, pathHop{l.in, l.alias}, pathHop{label: l.out})
			} else {
				l := ring[(p+n-1)%n]
				hops = append(hops, pathHop{l.out, l.alias}, pathHop{label: l.in})
			}
		}
		return hops
	}

	// Split X1 attribute vertices into heavy and light by their degree
	// toward alias 0 against θ (§6.1.2).
	theta := r.ex.Theta
	if theta <= 0 {
		in := 0
		for _, a := range cyc.Aliases {
			in += r.ex.TAG.Catalog.Get(r.c.aliasTable[a]).Len()
		}
		theta = math.Sqrt(float64(in))
	}
	var heavy, light []bsp.VertexID
	for _, v := range r.ex.TAG.AttrVertices(ring[0].in) {
		if float64(r.ex.TAG.G.DegreeWithLabel(v, ring[0].in)) > theta {
			heavy = append(heavy, v)
		} else {
			light = append(light, v)
		}
	}

	survivors := map[string]map[bsp.VertexID]bool{}
	for _, a := range cyc.Aliases {
		survivors[a] = map[bsp.VertexID]bool{}
	}
	if len(heavy) > 0 {
		if err := r.cycleRound(heavy, path(0, +1), path(0, -1), survivors); err != nil {
			return err
		}
	}
	if len(light) > 0 {
		// The wake (§6.1.2 step 3): light X1 vertices signal through alias
		// 0's tuples to position 1. Each node walks on from the vertices it
		// woke; a node that woke none still runs the round's supersteps.
		wake := r.newCycleWalk(path(0, +1)[:2], walkWake)
		if err := wake.run(light); err != nil {
			return err
		}
		woken := make([]bsp.VertexID, 0, len(wake.arrived))
		for v := range wake.arrived {
			woken = append(woken, v)
		}
		if err := r.cycleRound(woken, path(1, +1), path(1, -1), survivors); err != nil {
			return err
		}
	}

	for a, set := range survivors {
		r.intersectPrefilter(a, set)
	}
	return nil
}

// cycleRound walks the start vertices' values down both paths to the
// middle, intersects the two directions' arrivals there and walks the
// survivors back along each path, adding the tuple vertices that passed
// one on to survivors. Each node sees the arrivals and marks of the
// vertices it owns, which are the only ones it reads prefilter for.
func (r *componentRun) cycleRound(start []bsp.VertexID, left, right []pathHop, survivors map[string]map[bsp.VertexID]bool) error {
	walks := [2]*cycleWalk{r.newCycleWalk(left, walkOut), r.newCycleWalk(right, walkOut)}
	for _, w := range walks {
		if err := w.run(start); err != nil {
			return err
		}
	}
	mids := map[bsp.VertexID]*valueBatch{}
	var at []bsp.VertexID
	for v, lv := range walks[0].arrived {
		rv := walks[1].arrived[v]
		if rv == nil {
			continue
		}
		both := &valueBatch{}
		for _, val := range lv.vals {
			if rv.contains(val) {
				both.add(val)
			}
		}
		if len(both.vals) > 0 {
			mids[v] = both
			at = append(at, v)
		}
	}
	for _, w := range walks {
		w.mode, w.mids = walkBack, mids
		if err := w.run(at); err != nil {
			return err
		}
		for _, m := range w.marked {
			survivors[w.hops[m.hop].relAlias][m.v] = true
		}
	}
	return nil
}

// walkMode is what a cycleWalk run does.
type walkMode int

const (
	walkWake walkMode = iota // bare signals down the hops
	walkOut                  // the start vertices' values down the hops
	walkBack                 // the middle's survivors back up them
)

// hopVertex is vertex v at hop h of a walk. One vertex can stand at
// several hops (a tuple under two aliases of its table, or an attribute
// vertex whose value is in two classes), and what it passed on at one
// says nothing of another.
type hopVertex struct {
	hop int
	v   bsp.VertexID
}

// walkState is what a walk keeps for the next run: kept[{h, v}] holds
// the values v passed on at hop h, arrived[v] those that reached v at
// the last hop (none, for a woken vertex), and marked the tuple vertices
// that passed a survivor back, by the hop that reached them.
type walkState struct {
	kept    map[hopVertex]*valueBatch
	arrived map[bsp.VertexID]*valueBatch
	marked  []hopVertex
}

func newWalkState() walkState {
	return walkState{kept: map[hopVertex]*valueBatch{}, arrived: map[bsp.VertexID]*valueBatch{}}
}

// cycleWalk is the cycle pre-pass's vertex program: one path of a round,
// run out and then back (§6.2). Superstep s computes the receivers of
// hop s-1 going out, and of hop len(hops)-s-1 coming back, so each
// (hop, vertex) pair is computed in exactly one superstep and a set
// local to Compute deduplicates its inbox. Workers record into their
// share of w; run gathers the shares into the walk's state.
type cycleWalk struct {
	r    *componentRun
	hops []pathHop
	mode walkMode
	mids map[bsp.VertexID]*valueBatch // walkBack: each middle vertex's survivors
	walkState
	w []walkState
}

func (r *componentRun) newCycleWalk(hops []pathHop, mode walkMode) *cycleWalk {
	return &cycleWalk{r: r, hops: hops, mode: mode, walkState: newWalkState()}
}

// Combiner folds the values bound for one vertex into one valueBatch
// (receivers dedup per value) and the wake's signals into none.
func (p *cycleWalk) Combiner() bsp.Combiner { return valueCombiner{} }

// run runs the walk from start and gathers what the workers recorded.
func (p *cycleWalk) run(start []bsp.VertexID) error {
	p.w = make([]walkState, p.r.ex.eng.Workers())
	for i := range p.w {
		p.w[i] = newWalkState()
	}
	if err := p.r.ex.runProg(p, start); err != nil {
		return err
	}
	for _, s := range p.w {
		maps.Copy(p.kept, s.kept)
		maps.Copy(p.arrived, s.arrived)
		p.marked = append(p.marked, s.marked...)
	}
	p.w = nil
	return nil
}

// Compute implements bsp.Program.
func (p *cycleWalk) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	w, step := &p.w[ctx.Worker()], ctx.Step()
	if p.mode == walkWake {
		// One op per vertex a signal reaches and admits.
		if step > 0 && !p.admits(ctx, step-1, v) {
			return
		}
		ctx.AddOps(1)
		if step < len(p.hops) {
			ctx.SendAlong(v, p.hops[step].label, nil)
		} else {
			w.arrived[v] = nil
		}
		return
	}
	ctx.AddOps(1 + bsp.InboxCount(inbox))
	if p.mode == walkBack {
		p.walkBack(ctx, w, v, inbox)
		return
	}
	if step == 0 {
		if val, ok := p.r.ex.TAG.AttrValue(v); ok {
			ctx.SendAlong(v, p.hops[0].label, cycleMsg{val: val})
		}
		return
	}
	h := step - 1
	if !p.admits(ctx, h, v) {
		return
	}
	last := step == len(p.hops)
	passed := &valueBatch{}
	for _, msg := range inbox {
		eachCycleVal(msg, func(val relation.Value) {
			if passed.add(val) && !last {
				ctx.SendAlong(v, p.hops[step].label, cycleMsg{val: val})
			}
		})
	}
	if last {
		w.arrived[v] = passed
	} else {
		w.kept[hopVertex{h, v}] = passed
	}
}

// admits reports whether v, reached by hop h, passes its alias's
// filters; an attribute vertex always does.
func (p *cycleWalk) admits(ctx *bsp.Context, h int, v bsp.VertexID) bool {
	a := p.hops[h].relAlias
	return a == "" || p.r.passes(ctx, a, v)
}

// walkBack passes on, back along hop h, each arriving survivor that v
// passed on at h going out; a tuple vertex that passes one is marked.
// The start vertices, reached last (h = -1), kept nothing.
func (p *cycleWalk) walkBack(ctx *bsp.Context, w *walkState, v bsp.VertexID, inbox []bsp.Message) {
	step := ctx.Step()
	if step == 0 {
		for _, val := range p.mids[v].vals {
			ctx.SendAlong(v, p.hops[len(p.hops)-1].label, cycleMsg{val: val})
		}
		return
	}
	h := len(p.hops) - step - 1
	have := p.kept[hopVertex{h, v}]
	if have == nil {
		return
	}
	back := &valueBatch{}
	for _, msg := range inbox {
		eachCycleVal(msg, func(val relation.Value) {
			if have.contains(val) && back.add(val) {
				ctx.SendAlong(v, p.hops[h].label, cycleMsg{val: val})
			}
		})
	}
	if len(back.vals) > 0 && p.hops[h].relAlias != "" {
		w.marked = append(w.marked, hopVertex{h, v})
	}
}
