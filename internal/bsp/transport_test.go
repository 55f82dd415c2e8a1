package bsp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

var errTest = errors.New("vertex program failed on purpose")

// memHub synchronizes N in-process "nodes" the way internal/dist's
// coordinator synchronizes N processes: frames are really exchanged,
// barriers really reduced with ReduceBarrier, emit streams really
// allgathered. It exists so the distributed Run path can be proven
// equivalent to the loopback engine without sockets.
type memHub struct {
	parts int
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	gen   int

	frames []Frame
	out    []Frame
	bfs    []BarrierFrame
	gb     BarrierFrame
	blobs  [][]byte
	gather [][]byte
}

func newMemHub(parts int) *memHub {
	h := &memHub{parts: parts, bfs: make([]BarrierFrame, parts), blobs: make([][]byte, parts)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// rendezvous blocks until all parts have deposited; the last arrival
// runs compute, then everyone proceeds.
func (h *memHub) rendezvous(deposit, compute func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	deposit()
	h.n++
	gen := h.gen
	if h.n == h.parts {
		compute()
		h.n = 0
		h.gen++
		h.cond.Broadcast()
	} else {
		for gen == h.gen {
			h.cond.Wait()
		}
	}
}

func (h *memHub) node(local int) Transport { return &memNode{hub: h, local: local} }

type memNode struct {
	hub   *memHub
	local int
}

func (t *memNode) Parts() int { return t.hub.parts }
func (t *memNode) Local() int { return t.local }
func (t *memNode) StartRun() error {
	t.hub.rendezvous(func() {}, func() {})
	return nil
}

func (t *memNode) Exchange(step int, out []Frame) ([]Frame, error) {
	h := t.hub
	h.rendezvous(
		func() { h.frames = append(h.frames, out...) },
		func() {
			h.out = append(h.out[:0], h.frames...)
			h.frames = h.frames[:0]
			// Deterministic delivery order: ascending source partition.
			slices.SortFunc(h.out, func(a, b Frame) int {
				if a.Dst != b.Dst {
					return a.Dst - b.Dst
				}
				return a.Src - b.Src
			})
		},
	)
	h.mu.Lock()
	defer h.mu.Unlock()
	var in []Frame
	for _, f := range h.out {
		if f.Dst == t.local {
			in = append(in, f)
		}
	}
	return in, nil
}

func (t *memNode) Barrier(bf BarrierFrame) (BarrierFrame, error) {
	h := t.hub
	h.rendezvous(
		func() { h.bfs[t.local] = bf },
		func() { h.gb = ReduceBarrier(h.bfs) },
	)
	return h.gb, nil
}

func (t *memNode) FinishRun(emits []byte) ([][]byte, error) {
	h := t.hub
	h.rendezvous(
		func() { h.blobs[t.local] = emits },
		func() { h.gather = append([][]byte(nil), h.blobs...) },
	)
	return h.gather, nil
}

// distSumProgram floods vertex ids plus received totals along edges,
// folded by SumCombiner, and emits each received total: it exercises
// combined records and the emit allgather at once.
type distSumProgram struct {
	lbl  LabelID
	hops int
}

func (p *distSumProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.AddOps(1 + InboxCount(inbox))
	var total int64
	for _, m := range inbox {
		total += m.Payload.(int64)
	}
	if len(inbox) > 0 {
		ctx.Emit(total)
	}
	if ctx.Step() < p.hops {
		ctx.SendAlong(v, p.lbl, int64(v)+total)
	}
}

func (p *distSumProgram) Combiner() Combiner { return SumCombiner{} }

// runDistNodes executes prog over parts in-process nodes joined by a
// memHub, one engine per node with codec (nil for the default), and
// returns node 0's emits and stats after checking every node agreed.
func runDistNodes(t *testing.T, g *Graph, parts int, codec PayloadCodec, mkProg func() Program, initial []VertexID) ([]any, Stats) {
	t.Helper()
	hub := newMemHub(parts)
	emits := make([][]any, parts)
	stats := make([]Stats, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			eng := NewEngine(g, Options{
				Workers:    1 + p, // node-varying worker counts must not matter
				Partitions: parts,
				Transport:  hub.node(p),
				Codec:      codec,
			})
			stats[p] = eng.Run(mkProg(), initial)
			emits[p] = append([]any(nil), eng.Emitted()...)
			errs[p] = eng.RunErr()
		}(p)
	}
	wg.Wait()
	for p := 0; p < parts; p++ {
		if errs[p] != nil {
			t.Fatalf("node %d: RunErr = %v", p, errs[p])
		}
		if stats[p] != stats[0] {
			t.Fatalf("node %d stats diverge:\n  node0 %v\n  node%d %v", p, stats[0], p, stats[p])
		}
		if !slices.Equal(emits[p], emits[0]) {
			t.Fatalf("node %d emits diverge from node 0", p)
		}
	}
	return emits[0], stats[0]
}

// TestDistMatchesLoopback: the same program on the same graph must
// produce identical emits and identical Stats whether the partitions
// are simulated in one process (loopback) or run as separate engines
// that really exchange frames — including NetworkBytes, which both
// sides derive from the same sealed frames.
func TestDistMatchesLoopback(t *testing.T) {
	g, lbl := meshGraph(64, 3)
	var initial []VertexID
	for i := 0; i < 32; i++ {
		initial = append(initial, VertexID(i*2))
	}
	for _, parts := range []int{2, 3} {
		mk := func() Program { return &distSumProgram{lbl: lbl, hops: 3} }

		sim := NewEngine(g, Options{Workers: 2, Partitions: parts})
		simStats := sim.Run(mk(), initial)
		simEmits := append([]any(nil), sim.Emitted()...)

		distEmits, distStats := runDistNodes(t, g, parts, nil, mk, initial)

		if distStats != simStats {
			t.Errorf("parts=%d stats diverge:\n  loopback %v\n  dist     %v", parts, simStats, distStats)
		}
		if !slices.Equal(distEmits, simEmits) {
			t.Errorf("parts=%d emits diverge: loopback %d values, dist %d values", parts, len(simEmits), len(distEmits))
		}
	}
}

// box is a mutable accumulator: boxCombiner's Merge appends into it in
// place, so two destinations sharing one box would see each other's
// merges.
type box struct{ vals []VertexID }

type boxCombiner struct{}

func (boxCombiner) Fold(acc, payload any) any {
	if acc == nil {
		return &box{vals: []VertexID{payload.(VertexID)}}
	}
	b := acc.(*box)
	b.vals = append(b.vals, payload.(VertexID))
	return b
}

func (boxCombiner) Merge(acc, other any) any {
	b := acc.(*box)
	b.vals = append(b.vals, other.(*box).vals...)
	return b
}

// boxCodec puts a box on the wire as a BasicCodec []VertexID.
type boxCodec struct{}

func (boxCodec) Append(dst []byte, pay any) ([]byte, error) {
	if b, ok := pay.(*box); ok {
		pay = b.vals
	}
	return BasicCodec{}.Append(dst, pay)
}

func (boxCodec) Decode(data []byte) (any, error) {
	pay, err := BasicCodec{}.Decode(data)
	if vals, ok := pay.([]VertexID); ok {
		return &box{vals: vals}, nil
	}
	return pay, err
}

// TestDistFanOutKeepsAccumulatorsDistinct: vertex 0 folds the same
// value toward vertices 1 and 4, so partition 0 ships one wire record
// fanning out to both, and vertex 2's value then Merges into vertex 1's
// accumulator on the receiving node. Each destination must own its
// accumulator there, as it does on loopback: vertex 4 receives [7]
// alone.
func TestDistFanOutKeepsAccumulatorsDistinct(t *testing.T) {
	g := NewGraph()
	lbl := g.Symbols.Intern("v")
	for i := 0; i < 5; i++ {
		g.AddVertex(lbl, nil)
	}
	g.Freeze()
	mk := func() Program {
		return WithCombiner(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
			if ctx.Step() == 0 {
				if v == 0 {
					ctx.Send(v, 1, VertexID(7))
					ctx.Send(v, 4, VertexID(7))
				} else {
					ctx.Send(v, 1, VertexID(9))
				}
				return
			}
			for _, m := range inbox {
				ctx.Emit(fmt.Sprintf("%d<-%v", v, m.Payload.(*box).vals))
			}
		}), boxCombiner{})
	}
	initial := []VertexID{0, 2}
	want := []any{"1<-[7 9]", "4<-[7]"}

	sim := NewEngine(g, Options{Workers: 1, Partitions: 3, Codec: boxCodec{}})
	sim.Run(mk(), initial)
	if err := sim.RunErr(); err != nil {
		t.Fatal(err)
	}
	if got := sim.Emitted(); !slices.Equal(got, want) {
		t.Errorf("loopback delivered %v, want %v", got, want)
	}
	if got, _ := runDistNodes(t, g, 3, boxCodec{}, mk, initial); !slices.Equal(got, want) {
		t.Errorf("nodes delivered %v, want %v", got, want)
	}
}

// TestDistUncombined: the same equivalence without a combiner — every
// cross-partition send becomes a plain wire record, exercising the
// fan-out dedup and the remote inbox-order restoration.
func TestDistUncombined(t *testing.T) {
	g, lbl := meshGraph(48, 4)
	var initial []VertexID
	for i := 0; i < 48; i += 3 {
		initial = append(initial, VertexID(i))
	}
	mk := func() Program {
		return ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
			ctx.AddOps(1 + len(inbox))
			var total int64
			for _, m := range inbox {
				total += m.Payload.(int64) + int64(m.From)
			}
			if len(inbox) > 0 {
				ctx.Emit(total)
			}
			if ctx.Step() < 2 {
				ctx.SendAlong(v, lbl, int64(v))
			}
		})
	}

	sim := NewEngine(g, Options{Workers: 3, Partitions: 2, NoCombine: true})
	simStats := sim.Run(mk(), initial)
	simEmits := append([]any(nil), sim.Emitted()...)

	distEmits, distStats := runDistNodes(t, g, 2, nil, mk, initial)

	if distStats != simStats {
		t.Errorf("stats diverge:\n  loopback %v\n  dist     %v", simStats, distStats)
	}
	if !slices.Equal(distEmits, simEmits) {
		t.Errorf("emits diverge: loopback %v, dist %v", simEmits, distEmits)
	}
}

// TestDistFailPropagates: a Context.Fail on one node must surface the
// same error on every node, and the engines must stay usable for the
// next run.
func TestDistFailPropagates(t *testing.T) {
	g, lbl := meshGraph(16, 2)
	initial := []VertexID{0, 1, 2, 3}
	hub := newMemHub(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	ok := make([]error, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			eng := NewEngine(g, Options{Workers: 1, Partitions: 2, Transport: hub.node(p)})
			eng.Run(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
				if v == 2 { // lives on partition 0 only
					ctx.Fail(errTest)
				}
				ctx.SendAlong(v, lbl, int64(1))
			}), initial)
			errs[p] = eng.RunErr()
			// The failure was a program decision, not a transport death:
			// the next run must work.
			eng.Run(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {}), initial)
			ok[p] = eng.RunErr()
		}(p)
	}
	wg.Wait()
	for p := 0; p < 2; p++ {
		if errs[p] == nil || errs[p].Error() != errTest.Error() {
			t.Errorf("node %d: RunErr = %v, want %v", p, errs[p], errTest)
		}
		if ok[p] != nil {
			t.Errorf("node %d: engine unusable after program failure: %v", p, ok[p])
		}
	}
}
