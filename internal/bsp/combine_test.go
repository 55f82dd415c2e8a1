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

// sizedInt is an int64 payload whose size depends on its value, so the
// accounting must price every logical send as the payload it stands for.
type sizedInt int64

func (x sizedInt) Size() int { return 8 + int(x%5) }

// sizedSum is SumCombiner over sizedInt.
type sizedSum struct{}

func (sizedSum) Fold(acc, payload any) any {
	if acc == nil {
		return payload
	}
	return acc.(sizedInt) + payload.(sizedInt)
}
func (sizedSum) Merge(acc, other any) any { return acc.(sizedInt) + other.(sizedInt) }

// sizedCodec puts sizedInt on the wire as a BasicCodec int64.
type sizedCodec struct{}

func (sizedCodec) Append(dst []byte, pay any) ([]byte, error) {
	return BasicCodec{}.Append(dst, int64(pay.(sizedInt)))
}
func (sizedCodec) Decode(data []byte) (any, error) {
	pay, err := BasicCodec{}.Decode(data)
	if x, ok := pay.(int64); ok {
		return sizedInt(x), nil
	}
	return pay, err
}

// foldProgram is sumProgram over sizedInt payloads, sending through
// SendFold when fold is set — each send adds its value to the
// destination stream's accumulator in place and reports the size of
// the payload it stands for — and through Send otherwise.
type foldProgram struct {
	sumProgram
	fold bool
}

func (p *foldProgram) Combiner() Combiner { return sizedSum{} }

func (p *foldProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.AddOps(1 + InboxCount(inbox))
	var total sizedInt
	for _, m := range inbox {
		total += m.Payload.(sizedInt)
	}
	if len(inbox) > 0 {
		ctx.Emit([3]int64{int64(v), int64(total), int64(InboxCount(inbox))})
	}
	if ctx.Step() >= p.hops {
		return
	}
	x := sizedInt(int(v)*7+ctx.Step()*13) % 100
	if !p.fold {
		ctx.SendAlong(v, p.lbl, x)
		return
	}
	for _, e := range ctx.Graph().EdgesWithLabel(v, p.lbl) {
		ctx.SendFold(v, e.To, func(acc any) (any, int) {
			if acc == nil {
				return x, x.Size()
			}
			return acc.(sizedInt) + x, x.Size()
		})
	}
}

// TestSendFoldMatchesSend: SendFold delivers what an uncombined Send of
// the same values does, combined or not and across two partitions, with
// the same paper-facing Stats; only where the payload is built differs.
func TestSendFoldMatchesSend(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(120)
		k := 1 + rng.Intn(6)
		hops := 2 + rng.Intn(3)
		initial := []VertexID{VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}

		// The reference sends the same values with Send, uncombined.
		g, lbl := meshGraph(n, k)
		base := NewEngine(g, Options{Workers: 1, NoCombine: true})
		baseStats := base.Run(&foldProgram{sumProgram: sumProgram{lbl: lbl, hops: hops}}, initial)
		baseEmit := append([]any(nil), base.Emitted()...)

		for _, opts := range []Options{
			{Workers: 1},
			{Workers: 4},
			{Workers: 4, NoCombine: true},
			{Workers: 2, Partitions: 2},
			{Workers: 2, Partitions: 2, NoCombine: true},
		} {
			g, lbl := meshGraph(n, k)
			opts.Codec = sizedCodec{}
			eng := NewEngine(g, opts)
			stats := eng.Run(&foldProgram{sumProgram: sumProgram{lbl: lbl, hops: hops}, fold: true}, initial)
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

// concatCombiner folds string payloads by concatenation, so one fold
// stream's accumulator — and the wire record that ships it — grows
// with the fan-in.
type concatCombiner struct{}

func (concatCombiner) Fold(acc, payload any) any {
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
// count against it as well as the record itself.
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
