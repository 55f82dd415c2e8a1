package bsp

import (
	"math/rand"
	"testing"
)

// sumProgram exercises the combined plane: active vertices send a
// deterministic pseudo-random int64 along every edge for a fixed number
// of supersteps; receivers total their inbox — handling both plain and
// folded payloads — and emit (vertex, total, logical count), output
// that must be byte-identical whether or not the plane folded.
type sumProgram struct {
	lbl  LabelID
	hops int
}

func (p *sumProgram) Combiner() Combiner { return SumCombiner{} }

func (p *sumProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.AddOps(1 + InboxCount(inbox))
	var total int64
	for _, m := range inbox {
		total += m.Payload.(int64)
	}
	if len(inbox) > 0 {
		ctx.Emit([3]int64{int64(v), total, int64(InboxCount(inbox))})
	}
	if ctx.Step() < p.hops {
		ctx.SendAlong(v, p.lbl, int64(int(v)*7+ctx.Step()*13)%100)
	}
}

// TestCombinedMatchesUncombined is the engine-level property test:
// random graph shapes run the same commutative-payload program with
// the combiner enabled and disabled, across worker counts and simulated
// partitionings. The Emit stream and every paper-facing Stats field
// must be identical; only the combine-plane bookkeeping may differ.
func TestCombinedMatchesUncombined(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(120)
		k := 1 + rng.Intn(6)
		hops := 2 + rng.Intn(3)
		var initial []VertexID
		for len(initial) < 4 {
			v := VertexID(rng.Intn(n))
			initial = append(initial, v)
		}

		// Base: uncombined, single worker (one shard, merged serially).
		g, lbl := meshGraph(n, k)
		base := NewEngine(g, Options{Workers: 1, NoCombine: true})
		baseStats := base.Run(&sumProgram{lbl: lbl, hops: hops}, initial)
		baseEmit := append([]any(nil), base.Emitted()...)
		if baseStats.MessagesCombined != 0 {
			t.Fatalf("trial %d: NoCombine run reported combine activity: %v", trial, baseStats)
		}

		for _, cfg := range []struct {
			workers, partitions int
			noCombine           bool
		}{
			{1, 1, false},
			{2, 1, false},
			{4, 3, false},
			{1, 3, false},
			{4, 3, true},
			{8, 1, false},
		} {
			g, lbl := meshGraph(n, k)
			eng := NewEngine(g, Options{
				Workers: cfg.workers, Partitions: cfg.partitions, NoCombine: cfg.noCombine,
			})
			stats := eng.Run(&sumProgram{lbl: lbl, hops: hops}, initial)
			if cfg.partitions == 1 {
				if got, want := stats.Paper(), baseStats.Paper(); got != want {
					t.Errorf("trial %d %+v: stats %v != base %v", trial, cfg, got, want)
				}
			} else if stats.Paper().Messages != baseStats.Messages || stats.Paper().ComputeOps != baseStats.ComputeOps {
				t.Errorf("trial %d %+v: cost %v diverged from base %v", trial, cfg, stats, baseStats)
			} else if stats.ActiveVisits != baseStats.ActiveVisits {
				t.Errorf("trial %d %+v: visits %d != %d", trial, cfg, stats.ActiveVisits, baseStats.ActiveVisits)
			}
			emitted := eng.Emitted()
			if len(emitted) != len(baseEmit) {
				t.Fatalf("trial %d %+v: %d emits, want %d", trial, cfg, len(emitted), len(baseEmit))
			}
			for j := range emitted {
				if emitted[j] != baseEmit[j] {
					t.Fatalf("trial %d %+v: emit[%d] = %v, want %v", trial, cfg, j, emitted[j], baseEmit[j])
				}
			}
			if !cfg.noCombine && k > 1 && stats.MessagesCombined == 0 {
				t.Errorf("trial %d %+v: dense fan-in folded nothing", trial, cfg)
			}
			if cfg.noCombine && stats.MessagesCombined != 0 {
				t.Errorf("trial %d %+v: NoCombine folded %d messages", trial, cfg, stats.MessagesCombined)
			}
		}
	}
}

// foldProgram is sumProgram sending through SendFold: each send adds
// its value to the destination stream's accumulator in place, and its
// size depends on the value, so the accounting must price every logical
// send as the payload it stands for.
type foldProgram struct{ sumProgram }

func foldSize(x int64) int { return 8 + int(x%5) }

func (p *foldProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.AddOps(1 + InboxCount(inbox))
	var total int64
	for _, m := range inbox {
		total += m.Payload.(int64)
	}
	if len(inbox) > 0 {
		ctx.Emit([3]int64{int64(v), total, int64(InboxCount(inbox))})
	}
	if ctx.Step() >= p.hops {
		return
	}
	x := int64(int(v)*7+ctx.Step()*13) % 100
	for _, e := range ctx.Graph().EdgesWithLabel(v, p.lbl) {
		ctx.SendFold(v, e.To, func(acc any) (any, int) {
			if acc == nil {
				return x, foldSize(x)
			}
			return acc.(int64) + x, foldSize(x)
		})
	}
}

// TestSendFoldMatchesSend: SendFold delivers what an uncombined Send of
// the same values does, combined or not and across two partitions, with
// the same paper-facing Stats; only where the payload is built differs.
func TestSendFoldMatchesSend(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	size := func(p any) int { return foldSize(p.(int64)) }
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(120)
		k := 1 + rng.Intn(6)
		hops := 2 + rng.Intn(3)
		initial := []VertexID{VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}

		// The reference sends the same values with Send, uncombined.
		g, lbl := meshGraph(n, k)
		base := NewEngine(g, Options{Workers: 1, NoCombine: true, PayloadSize: size})
		baseStats := base.Run(&sumProgram{lbl: lbl, hops: hops}, initial)
		baseEmit := append([]any(nil), base.Emitted()...)

		for _, opts := range []Options{
			{Workers: 1},
			{Workers: 4},
			{Workers: 4, NoCombine: true},
			{Workers: 2, Partitions: 2},
			{Workers: 2, Partitions: 2, NoCombine: true},
		} {
			g, lbl := meshGraph(n, k)
			opts.PayloadSize = size
			eng := NewEngine(g, opts)
			stats := eng.Run(&foldProgram{sumProgram{lbl: lbl, hops: hops}}, initial)
			if err := eng.RunErr(); err != nil {
				t.Fatalf("trial %d %+v: %v", trial, opts, err)
			}
			got := stats.Paper()
			if opts.Partitions > 1 {
				if got.NetworkMessages == 0 {
					t.Errorf("trial %d %+v: nothing crossed partitions", trial, opts)
				}
				got.NetworkMessages, got.NetworkBytes = 0, 0
			}
			if got != baseStats.Paper() {
				t.Errorf("trial %d %+v: stats %v != base %v", trial, opts, got, baseStats.Paper())
			}
			emitted := eng.Emitted()
			if len(emitted) != len(baseEmit) {
				t.Fatalf("trial %d %+v: %d emits, want %d", trial, opts, len(emitted), len(baseEmit))
			}
			for j := range emitted {
				if emitted[j] != baseEmit[j] {
					t.Fatalf("trial %d %+v: emit[%d] = %v, want %v", trial, opts, j, emitted[j], baseEmit[j])
				}
			}
			if !opts.NoCombine && k > 1 && stats.MessagesCombined == 0 {
				t.Errorf("trial %d %+v: dense fan-in folded nothing", trial, opts)
			}
		}
	}
}

// TestCombineAccounting pins the fold bookkeeping on a star graph: n
// leaves send one int64 to the root, so any worker count must deliver
// exactly one message representing n logical sends, with n-1 folds and
// n-1 Message slots saved.
func TestCombineAccounting(t *testing.T) {
	const n = 12
	build := func() (*Graph, LabelID, []VertexID) {
		g := NewGraph()
		lbl := g.Symbols.Intern("to-root")
		root := g.AddVertex(lbl, nil)
		var leaves []VertexID
		for i := 0; i < n; i++ {
			leaf := g.AddVertex(lbl, nil)
			g.AddEdge(leaf, root, lbl)
			leaves = append(leaves, leaf)
		}
		g.Freeze()
		return g, lbl, leaves
	}
	for _, workers := range []int{1, 3, 8} {
		g, lbl, leaves := build()
		var got []any
		prog := WithCombiner(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
			if ctx.Step() == 0 {
				ctx.SendAlong(v, lbl, int64(1))
				return
			}
			for _, m := range inbox {
				ctx.Emit([2]int64{m.Payload.(int64), int64(m.Count)})
			}
		}), SumCombiner{})
		eng := NewEngine(g, Options{Workers: workers})
		stats := eng.Run(prog, leaves)
		got = append(got, eng.Emitted()...)

		if stats.Messages != n {
			t.Errorf("workers=%d: logical messages = %d, want %d", workers, stats.Messages, n)
		}
		if stats.MessagesCombined != n-1 {
			t.Errorf("workers=%d: combined = %d, want %d", workers, stats.MessagesCombined, n-1)
		}
		if want := int64(n-1) * msgBytes; stats.InboxBytesSaved() != want {
			t.Errorf("workers=%d: saved = %d, want %d", workers, stats.InboxBytesSaved(), want)
		}
		if len(got) != 1 || got[0] != ([2]int64{n, n}) {
			t.Errorf("workers=%d: root saw %v, want one message totalling %d over %d sends", workers, got, n, n)
		}
	}
}

// slotCombiner folds int64s separately per parity, proving slots keep
// independent fold streams to one destination apart.
type slotCombiner struct{ SumCombiner }

func (slotCombiner) Slot(payload any) int {
	if payload.(int64) < 0 {
		return -1 // opted out: delivered as a plain message
	}
	return int(payload.(int64) % 2)
}

func TestCombinerSlots(t *testing.T) {
	g := NewGraph()
	lbl := g.Symbols.Intern("e")
	root := g.AddVertex(lbl, nil)
	var leaves []VertexID
	for i := 0; i < 6; i++ {
		leaf := g.AddVertex(lbl, nil)
		g.AddEdge(leaf, root, lbl)
		leaves = append(leaves, leaf)
	}
	g.Freeze()

	var inboxSizes []int
	var sums []int64
	prog := WithCombiner(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
		if ctx.Step() == 0 {
			// Evens fold in slot 0, odds in slot 1, and one opted-out
			// plain message (-1) rides alongside.
			ctx.SendAlong(v, lbl, int64(v)%2+2) // 2 or 3 → slots 0 and 1
			if v == leaves[0] {
				ctx.SendAlong(v, lbl, int64(-1))
			}
			return
		}
		inboxSizes = append(inboxSizes, len(inbox))
		for _, m := range inbox {
			sums = append(sums, m.Payload.(int64))
		}
	}), slotCombiner{})
	eng := NewEngine(g, Options{Workers: 1})
	eng.Run(prog, leaves)

	// One plain message first, then one combined message per slot.
	if len(inboxSizes) != 1 || inboxSizes[0] != 3 {
		t.Fatalf("inbox sizes = %v, want [3]", inboxSizes)
	}
	if sums[0] != -1 {
		t.Errorf("plain message must deliver before combined ones: %v", sums)
	}
	if sums[1]+sums[2] != 3*2+3*3 || sums[1] == sums[2] {
		t.Errorf("per-slot sums = %v, want {6,9} in some order", sums[1:])
	}
}

// concatCombiner folds string payloads by concatenation, so one fold
// stream's accumulator — and the wire record that ships it — grows
// with the fan-in.
type concatCombiner struct{}

func (concatCombiner) Slot(any) int { return 0 }
func (concatCombiner) Fold(acc any, _ VertexID, payload any) any {
	if acc == nil {
		return payload.(string)
	}
	return acc.(string) + payload.(string)
}
func (concatCombiner) Merge(acc, other any) any { return acc.(string) + other.(string) }

// TestCombinePoolTrim: a run whose fold tables and wire records grow
// far past the pooling budget must not keep that peak resident once
// idle — the combiner storage obeys the same end-of-Run budget as the
// message plane, and a wire record's retained payload and dest storage
// count against it as well as its slot.
func TestCombinePoolTrim(t *testing.T) {
	g := NewGraph()
	lbl := g.Symbols.Intern("to-hub")
	hub := g.AddVertex(lbl, nil)
	var leaves []VertexID
	for i := 0; i < 5000; i++ {
		leaf := g.AddVertex(lbl, nil)
		g.AddEdge(leaf, hub, lbl)
		leaves = append(leaves, leaf)
	}
	g.Freeze()
	for _, tc := range []struct {
		name string
		pay  any
		comb Combiner
	}{
		{"sum", int64(1), SumCombiner{}},
		{"concat", "a payload of forty bytes, give or take..", concatCombiner{}},
	} {
		prog := WithCombiner(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
			if ctx.Step() == 0 {
				ctx.SendAlong(v, lbl, tc.pay)
			}
		}), tc.comb)
		// Partitions > 1 so every cross-partition fold stream lands in a
		// pair stream's wire records — the structure that grows with the
		// fan-in.
		eng := NewEngine(g, Options{Workers: 2, Partitions: 3})
		eng.Run(prog, leaves)
		if err := eng.RunErr(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		budget := int64(maxPooledBytes / len(eng.shards))
		for s := range eng.shards {
			if got := int64(cap(eng.shards[s].pendKeys)) * accBytes; got > budget {
				t.Errorf("%s: shard %d retains %d B of pending accumulators (budget %d)", tc.name, s, got, budget)
			}
		}
		for w, ctx := range eng.ctxs {
			for s := range ctx.acc {
				if got := int64(cap(ctx.acc[s].keys)) * accBytes; got > budget {
					t.Errorf("%s: ctx %d shard %d retains %d B of fold streams (budget %d)", tc.name, w, s, got, budget)
				}
			}
		}
		for i := range eng.wireStreams {
			if got := eng.wireStreams[i].retainedBytes(); got > budget {
				t.Errorf("%s: stream %d retains %d B of wire records (budget %d)", tc.name, i, got, budget)
			}
		}
	}
}

// TestSteadyStateZeroAllocCombined: the accumulator tables, fold-stream
// indexes and pending lists all join the engine's pools, so a warm
// single-worker Run with a combiner still allocates nothing, whether it
// sends with Send or with SendFold. (Payloads
// are small int64s, which Go boxes from its static cache.)
func TestSteadyStateZeroAllocCombined(t *testing.T) {
	g, lbl := meshGraph(64, 3)
	eng := NewEngine(g, Options{Workers: 1})
	// A folding program without Emit (boxing emitted values allocates in
	// the program, not the engine).
	var sink int64
	prog := WithCombiner(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
		ctx.AddOps(1 + InboxCount(inbox))
		for _, m := range inbox {
			sink += m.Payload.(int64)
		}
		if ctx.Step() < 3 {
			ctx.SendAlong(v, lbl, int64(1))
		}
	}), SumCombiner{})
	// The same program building its payloads in place with SendFold.
	foldProg := WithCombiner(ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
		ctx.AddOps(1 + InboxCount(inbox))
		for _, m := range inbox {
			sink += m.Payload.(int64)
		}
		if ctx.Step() < 3 {
			for _, e := range ctx.Graph().EdgesWithLabel(v, lbl) {
				ctx.SendFold(v, e.To, func(acc any) (any, int) {
					if acc == nil {
						return int64(1), 8
					}
					return acc.(int64) + 1, 8
				})
			}
		}
	}), SumCombiner{})
	initial := []VertexID{0, 1, 2, 3}
	for _, tc := range []struct {
		name string
		prog Program
	}{{"Send", prog}, {"SendFold", foldProg}} {
		eng.Run(tc.prog, initial)
		eng.Run(tc.prog, initial)
		allocs := testing.AllocsPerRun(10, func() { eng.Run(tc.prog, initial) })
		if allocs > 0 {
			t.Errorf("%s: steady-state combined Run allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}
