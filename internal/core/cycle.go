package core

import (
	"fmt"
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

// pathHop is one traversal hop of a cycle propagation path.
type pathHop struct {
	label    bsp.LabelID
	relAlias string // non-empty when the hop lands on tuple vertices
}

// runCyclePass reduces the members of one join cycle before the tree
// reduction (§6.2): attribute values of the cycle-closing class split
// into heavy and light by the θ threshold (θ=√IN by default, matching
// the AGM-bound analysis); heavy values propagate themselves around both
// sides of the cycle to be intersected at the middle attribute, light
// values wake their successor attribute which propagates instead. A
// backward pass marks the tuple vertices that relayed surviving values;
// everything else is excluded from the main reduction.
func (r *componentRun) runCyclePass(cyc plan.Cycle) error {
	n := len(cyc.Aliases)
	if n < 3 {
		return fmt.Errorf("core: degenerate cycle %v", cyc.Aliases)
	}
	classes := r.c.qp.Classes

	// classOfPred[i] is X_{i+1}: the class joining alias i and i+1;
	// classOfPred[n-1] is X1, the cycle-closing class.
	classOf := make([]int, n)
	for i, p := range cyc.Preds {
		classOf[i] = classes.Of[p.A]
	}
	x := func(i int) int { // X_i, 1-based per the paper
		if i == 1 {
			return classOf[n-1]
		}
		return classOf[i-2]
	}
	alias := func(i int) string { return cyc.Aliases[((i-1)%n+n)%n] } // A_i, 1-based

	label := func(class int, a string) (bsp.LabelID, error) {
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

	mid := (n+1)/2 + 1 // X_{⌈n/2⌉+1}

	// buildPath walks from attribute X_from around the given direction to
	// X_mid: +1 walks A_from, X_{from+1}, ...; -1 walks A_{from-1},
	// X_{from-1}, ...
	buildPath := func(from, dir int) ([]pathHop, error) {
		var hops []pathHop
		xi := from
		for xi != mid || len(hops) == 0 {
			var a string
			if dir > 0 {
				a = alias(xi)
			} else {
				a = alias(xi - 1)
			}
			l1, err := label(x(xi), a)
			if err != nil {
				return nil, err
			}
			hops = append(hops, pathHop{label: l1, relAlias: a})
			next := xi + dir
			if next > n {
				next = 1
			}
			if next < 1 {
				next = n
			}
			l2, err := label(x(next), a)
			if err != nil {
				return nil, err
			}
			hops = append(hops, pathHop{label: l2})
			xi = next
			if len(hops) > 2*n+2 {
				return nil, fmt.Errorf("core: cycle path construction diverged")
			}
			if xi == mid {
				break
			}
		}
		return hops, nil
	}

	leftH, err := buildPath(1, +1)
	if err != nil {
		return err
	}
	rightH, err := buildPath(1, -1)
	if err != nil {
		return err
	}

	// Split X1 attribute vertices into heavy and light by their R1-side
	// degree against θ (§6.1.2).
	theta := r.ex.Theta
	if theta <= 0 {
		in := 0
		for _, a := range cyc.Aliases {
			in += r.ex.TAG.Catalog.Get(r.c.aliasTable[a]).Len()
		}
		theta = math.Sqrt(float64(in))
	}
	x1Label := leftH[0].label
	var heavy, light []bsp.VertexID
	for _, v := range r.ex.TAG.AttrVertices(x1Label) {
		if float64(r.ex.TAG.G.DegreeWithLabel(v, x1Label)) > theta {
			heavy = append(heavy, v)
		} else {
			light = append(light, v)
		}
	}

	survivors := map[string]map[bsp.VertexID]bool{}
	for _, a := range cyc.Aliases {
		survivors[a] = map[bsp.VertexID]bool{}
	}

	// Heavy: propagate X1 values both ways, intersect at the middle.
	if len(heavy) > 0 {
		if err := r.cycleRound(heavy, leftH, rightH, survivors); err != nil {
			return err
		}
	}
	// Light: wake X2 through R1, then propagate X2 values both ways.
	if len(light) > 0 {
		lightStart, err := r.wakeNeighbors(light, leftH[0], leftH[1])
		if err != nil {
			return err
		}
		if len(lightStart) > 0 {
			left2, err := buildPath(2, +1)
			if err != nil {
				return err
			}
			right2, err := buildPath(2, -1)
			if err != nil {
				return err
			}
			if err := r.cycleRound(lightStart, left2, right2, survivors); err != nil {
				return err
			}
		}
	}

	for a, set := range survivors {
		r.intersectPrefilter(a, set)
	}
	return nil
}

// wakeNeighbors performs the light-case wake-up (§6.1.2 step 3): the
// light X1 vertices signal through R1 tuples to activate X2 vertices.
func (r *componentRun) wakeNeighbors(start []bsp.VertexID, h0, h1 pathHop) ([]bsp.VertexID, error) {
	woken := map[bsp.VertexID]bool{}
	prog := bsp.ProgramFunc(func(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
		switch ctx.Step() {
		case 0:
			ctx.SendAlong(v, h0.label, nil)
		case 1:
			if !r.passes(ctx, h0.relAlias, v) {
				return
			}
			ctx.SendAlong(v, h1.label, nil)
		case 2:
			ctx.Emit(v)
		}
		ctx.AddOps(1)
	})
	// The wake-up is a pure activation signal — receivers never read the
	// inbox — so the plane folds it to one message per woken vertex.
	if err := r.ex.runProg(bsp.WithCombiner(prog, bsp.SignalCombiner{}), start); err != nil {
		return nil, err
	}
	var out []bsp.VertexID
	for _, e := range r.ex.eng.Emitted() {
		vid := e.(bsp.VertexID)
		if !woken[vid] {
			woken[vid] = true
			out = append(out, vid)
		}
	}
	return out, nil
}

// cycleRound runs one forward+backward propagation round: start vertices
// send their own value down both paths; arrivals intersect at the middle
// attribute vertices; surviving values travel back, marking every tuple
// vertex that relayed them.
func (r *componentRun) cycleRound(start []bsp.VertexID, left, right []pathHop, survivors map[string]map[bsp.VertexID]bool) error {
	nv := r.ex.TAG.G.NumVertices()
	leftFwd := make([]map[relation.Value]struct{}, nv)
	rightFwd := make([]map[relation.Value]struct{}, nv)
	leftArr := make([]map[relation.Value]struct{}, nv)
	rightArr := make([]map[relation.Value]struct{}, nv)

	if err := r.cycleForward(start, left, leftFwd, leftArr); err != nil {
		return err
	}
	if err := r.cycleForward(start, right, rightFwd, rightArr); err != nil {
		return err
	}

	// Intersect at the middle attribute vertices.
	surviving := make([]map[relation.Value]struct{}, nv)
	var mids []bsp.VertexID
	for v := range leftArr {
		if leftArr[v] == nil || rightArr[v] == nil {
			continue
		}
		both := map[relation.Value]struct{}{}
		for val := range leftArr[v] {
			if _, ok := rightArr[v][val]; ok {
				both[val] = struct{}{}
			}
		}
		if len(both) > 0 {
			surviving[v] = both
			mids = append(mids, bsp.VertexID(v))
		}
	}

	if err := r.cycleBackward(mids, left, leftFwd, surviving, survivors); err != nil {
		return err
	}
	return r.cycleBackward(mids, right, rightFwd, surviving, survivors)
}

// cycleForwardProgram propagates each start vertex's own value along the
// hop path, recording the values each vertex forwarded and the arrivals
// at the final (middle) attribute vertices.
type cycleForwardProgram struct {
	r    *componentRun
	hops []pathHop
	fwd  []map[relation.Value]struct{}
	arr  []map[relation.Value]struct{}
}

// Combiner folds the propagated values into one valueBatch per
// destination (receivers dedup per value, so within-superstep
// duplicates fold away en route).
func (p *cycleForwardProgram) Combiner() bsp.Combiner { return valueCombiner{} }

// Compute implements the forward propagation kernel.
func (p *cycleForwardProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	step := ctx.Step()
	ctx.AddOps(1 + bsp.InboxCount(inbox))

	if step == 0 {
		// Start attribute vertices inject their own value.
		val, ok := p.r.ex.TAG.AttrValue(v)
		if !ok {
			return
		}
		ctx.SendAlong(v, p.hops[0].label, cycleMsg{val: val})
		return
	}
	hop := p.hops[step-1]
	if hop.relAlias != "" && !p.r.passes(ctx, hop.relAlias, v) {
		return
	}
	last := step == len(p.hops)
	set := p.fwd[v]
	if last {
		set = p.arr[v]
	}
	if set == nil {
		set = map[relation.Value]struct{}{}
		if last {
			p.arr[v] = set
		} else {
			p.fwd[v] = set
		}
	}
	for _, msg := range inbox {
		eachCycleVal(msg, func(val relation.Value) {
			if _, seen := set[val]; seen {
				return
			}
			set[val] = struct{}{}
			if !last {
				ctx.SendAlong(v, p.hops[step].label, cycleMsg{val: val})
			}
		})
	}
}

func (r *componentRun) cycleForward(start []bsp.VertexID, hops []pathHop, fwd, arr []map[relation.Value]struct{}) error {
	return r.ex.runProg(&cycleForwardProgram{r: r, hops: hops, fwd: fwd, arr: arr}, start)
}

// cycleBackwardProgram walks surviving values back from the middle,
// marking every tuple vertex that relayed one (§6.2's signal-back).
type cycleBackwardProgram struct {
	hops      []pathHop
	fwd       []map[relation.Value]struct{}
	surviving []map[relation.Value]struct{}
	seen      []map[relation.Value]struct{}
}

// Combiner folds the surviving values walking back into one valueBatch
// per destination.
func (p *cycleBackwardProgram) Combiner() bsp.Combiner { return valueCombiner{} }

// Compute implements the backward marking kernel. Backward superstep s
// lands on the source vertices of hop len(hops)-s.
func (p *cycleBackwardProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	step := ctx.Step()
	ctx.AddOps(1 + bsp.InboxCount(inbox))
	if step == 0 {
		for val := range p.surviving[v] {
			ctx.SendAlong(v, p.hops[len(p.hops)-1].label, cycleMsg{val: val})
		}
		return
	}
	idx := len(p.hops) - step // this vertex is the source of hop idx
	have := p.fwd[v]
	if idx == 0 {
		// Back at the start attribute vertices: nothing left to mark.
		return
	}
	if have == nil {
		return
	}
	landed := p.hops[idx-1].relAlias != ""
	seen := p.seen[v]
	if seen == nil {
		seen = map[relation.Value]struct{}{}
		p.seen[v] = seen
	}
	for _, msg := range inbox {
		eachCycleVal(msg, func(val relation.Value) {
			if _, ok := have[val]; !ok {
				return
			}
			if _, dup := seen[val]; dup {
				return
			}
			seen[val] = struct{}{}
			if landed {
				ctx.Emit(relayMark{hop: idx - 1, v: v})
			}
			ctx.SendAlong(v, p.hops[idx-1].label, cycleMsg{val: val})
		})
	}
}

func (r *componentRun) cycleBackward(mids []bsp.VertexID, hops []pathHop, fwd []map[relation.Value]struct{}, surviving []map[relation.Value]struct{}, survivors map[string]map[bsp.VertexID]bool) error {
	prog := &cycleBackwardProgram{
		hops: hops, fwd: fwd, surviving: surviving,
		seen: make([]map[relation.Value]struct{}, r.ex.TAG.G.NumVertices()),
	}
	if err := r.ex.runProg(prog, mids); err != nil {
		return err
	}
	for _, e := range r.ex.eng.Emitted() {
		mk := e.(relayMark)
		if mk.hop >= len(hops) || hops[mk.hop].relAlias == "" {
			return fmt.Errorf("core: relay mark on hop %d, which lands on no tuple", mk.hop)
		}
		survivors[hops[mk.hop].relAlias][mk.v] = true
	}
	return nil
}

// relayMark reports a tuple vertex that relayed a surviving cycle value:
// the hop of the path that landed on it, which names its alias.
type relayMark struct {
	hop int
	v   bsp.VertexID
}
