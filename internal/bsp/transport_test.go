package bsp

import (
	"errors"
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

// sumOrPlain combines int64 payloads by addition and opts everything
// else (the test's string pings) out of combining — so one program
// exercises combined and plain wire records at once.
type sumOrPlain struct{}

func (sumOrPlain) Slot(p any) int {
	if _, ok := p.(int64); ok {
		return 0
	}
	return -1
}
func (sumOrPlain) Fold(acc any, _ VertexID, payload any) any {
	if acc == nil {
		return payload.(int64)
	}
	return acc.(int64) + payload.(int64)
}
func (sumOrPlain) Merge(acc, other any) any { return acc.(int64) + other.(int64) }

// distSumProgram floods vertex ids along edges (combined) plus string
// pings to a rotating destination (plain), and emits each received
// total: it exercises plain records, combined records and the emit
// allgather at once.
type distSumProgram struct {
	lbl  LabelID
	hops int
}

func (p *distSumProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.AddOps(1 + InboxCount(inbox))
	var total int64
	for _, m := range inbox {
		switch pay := m.Payload.(type) {
		case int64:
			total += pay
		case string:
			total += int64(len(pay)) + int64(m.From)
		}
	}
	if len(inbox) > 0 {
		ctx.Emit(total)
	}
	if ctx.Step() < p.hops {
		ctx.SendAlong(v, p.lbl, int64(v)+total)
		if v%5 == 0 {
			ctx.Send(v, (v+7)%64, "ping")
		}
	}
}

func (p *distSumProgram) Combiner() Combiner { return sumOrPlain{} }

// runDistNodes executes prog over parts in-process nodes joined by a
// memHub, one engine per node, and returns node 0's emits and stats
// after checking every node agreed.
func runDistNodes(t *testing.T, g *Graph, parts int, mkProg func() Program, initial []VertexID) ([]any, Stats) {
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

		distEmits, distStats := runDistNodes(t, g, parts, mk, initial)

		if distStats != simStats {
			t.Errorf("parts=%d stats diverge:\n  loopback %v\n  dist     %v", parts, simStats, distStats)
		}
		if !slices.Equal(distEmits, simEmits) {
			t.Errorf("parts=%d emits diverge: loopback %d values, dist %d values", parts, len(simEmits), len(distEmits))
		}
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

	distEmits, distStats := runDistNodes(t, g, 2, mk, initial)

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
