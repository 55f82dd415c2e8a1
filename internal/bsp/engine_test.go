package bsp

import (
	"slices"
	"testing"
	"testing/quick"
)

// chainGraph builds v0 -e-> v1 -e-> ... -e-> v(n-1).
func chainGraph(n int) (*Graph, LabelID) {
	g := NewGraph()
	lbl := g.Symbols.Intern("next")
	vl := g.Symbols.Intern("node")
	for i := 0; i < n; i++ {
		g.AddVertex(vl, nil)
	}
	for i := 0; i < n-1; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1), lbl)
	}
	g.Freeze()
	return g, lbl
}

func TestSymbolTable(t *testing.T) {
	s := NewSymbolTable()
	a := s.Intern("R.A")
	b := s.Intern("S.B")
	if a == b {
		t.Fatal("distinct names must intern to distinct ids")
	}
	if s.Intern("R.A") != a {
		t.Error("re-intern must be stable")
	}
	if s.Name(a) != "R.A" || s.Name(NoLabel) != "" {
		t.Error("Name lookup failed")
	}
	if s.Lookup("S.B") != b || s.Lookup("missing") != NoLabel {
		t.Error("Lookup failed")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSymbolTableInternProperty(t *testing.T) {
	f := func(names []string) bool {
		s := NewSymbolTable()
		seen := map[string]LabelID{}
		for _, n := range names {
			id := s.Intern(n)
			if prev, ok := seen[n]; ok && prev != id {
				return false
			}
			seen[n] = id
			if s.Name(id) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphEdgesWithLabel(t *testing.T) {
	g := NewGraph()
	a := g.Symbols.Intern("a")
	b := g.Symbols.Intern("b")
	v0 := g.AddVertex(a, nil)
	v1 := g.AddVertex(a, nil)
	v2 := g.AddVertex(b, nil)
	g.AddEdge(v0, v1, a)
	g.AddEdge(v0, v2, b)
	g.AddEdge(v0, v2, a)
	g.Freeze()

	ea := g.EdgesWithLabel(v0, a)
	if len(ea) != 2 {
		t.Fatalf("label a edges = %d, want 2", len(ea))
	}
	if g.DegreeWithLabel(v0, b) != 1 {
		t.Error("degree with label b wrong")
	}
	if !g.HasEdgeWithLabel(v0, b) || g.HasEdgeWithLabel(v1, b) {
		t.Error("HasEdgeWithLabel wrong")
	}
	if got := g.VerticesWithLabel(a); len(got) != 2 {
		t.Errorf("VerticesWithLabel = %v", got)
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestGraphRemoveEdge(t *testing.T) {
	g := NewGraph()
	l := g.Symbols.Intern("l")
	v0 := g.AddVertex(l, nil)
	v1 := g.AddVertex(l, nil)
	g.AddEdge(v0, v1, l)
	g.AddEdge(v0, v1, l)
	g.RemoveEdge(v0, v1, l)
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges after remove = %d", g.NumEdges())
	}
	g.Freeze()
	if g.HasEdgeWithLabel(v0, l) {
		t.Error("edge should be gone")
	}
}

func TestUndirectedEdge(t *testing.T) {
	g := NewGraph()
	l := g.Symbols.Intern("l")
	a := g.AddVertex(l, nil)
	b := g.AddVertex(l, nil)
	g.AddUndirectedEdge(a, b, l)
	g.Freeze()
	if !g.HasEdgeWithLabel(a, l) || !g.HasEdgeWithLabel(b, l) {
		t.Error("undirected edge must be traversable both ways")
	}
}

// propagateProgram forwards a counter along "next" edges, incrementing it.
type propagateProgram struct {
	lbl LabelID
}

func (p *propagateProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.AddOps(1)
	if ctx.Step() == 0 {
		ctx.SendAlong(v, p.lbl, int(1))
		return
	}
	for _, m := range inbox {
		hops := m.Payload.(int)
		if ctx.SendAlong(v, p.lbl, hops+1) == 0 {
			ctx.Emit(hops) // reached the chain end
		}
	}
}

func TestEngineChainPropagation(t *testing.T) {
	const n = 10
	g, lbl := chainGraph(n)
	eng := NewEngine(g, Options{Workers: 4})
	stats := eng.Run(&propagateProgram{lbl: lbl}, []VertexID{0})

	if stats.Supersteps != n {
		t.Errorf("supersteps = %d, want %d", stats.Supersteps, n)
	}
	if stats.Messages != n-1 {
		t.Errorf("messages = %d, want %d", stats.Messages, n-1)
	}
	out := eng.Emitted()
	if len(out) != 1 || out[0].(int) != n-1 {
		t.Errorf("emitted = %v, want [%d]", out, n-1)
	}
}

func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 50
	var base Stats
	for i, workers := range []int{1, 2, 8} {
		g, lbl := chainGraph(n)
		eng := NewEngine(g, Options{Workers: workers})
		stats := eng.Run(&propagateProgram{lbl: lbl}, []VertexID{0})
		if i == 0 {
			base = stats
			continue
		}
		if stats.Messages != base.Messages || stats.Supersteps != base.Supersteps {
			t.Errorf("workers=%d: stats %v differ from %v", workers, stats, base)
		}
	}
}

// fanoutProgram: root messages all neighbors, each reached leaf emits
// its id.
type fanoutProgram struct{ lbl LabelID }

func (p *fanoutProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	if ctx.Step() == 0 {
		ctx.SendAlong(v, p.lbl, nil)
		return
	}
	ctx.Emit(v)
}

func TestEngineFanOut(t *testing.T) {
	g := NewGraph()
	l := g.Symbols.Intern("e")
	root := g.AddVertex(l, nil)
	for i := 0; i < 5; i++ {
		leaf := g.AddVertex(l, nil)
		g.AddEdge(root, leaf, l)
	}
	g.Freeze()
	eng := NewEngine(g, Options{Workers: 3})
	eng.Run(&fanoutProgram{lbl: l}, []VertexID{root})
	if got, want := eng.Emitted(), []any{VertexID(1), VertexID(2), VertexID(3), VertexID(4), VertexID(5)}; !slices.Equal(got, want) {
		t.Errorf("emitted = %v, want %v", got, want)
	}
}

// meteredLoopback wraps the loopback Transport and measures the frames
// the engine hands over exactly as a real wire would bill them: the
// codec frame header plus the sealed payload, per frame.
type meteredLoopback struct {
	Transport
	frames int64
	bytes  int64
	recs   int64
}

func (m *meteredLoopback) Exchange(step int, out []Frame) ([]Frame, error) {
	for i := range out {
		m.frames++
		m.bytes += frameHeaderBytes + int64(len(out[i].Payload))
		// Every sealed frame must parse — the wire the simulation prices
		// is a wire a real node could decode.
		err := decodeRecords(out[i].Payload, step, BasicCodec{}, func(VertexID, int32, any, VertexID, int32) error {
			return nil
		})
		if err != nil {
			return nil, err
		}
		m.recs += countRecords(out[i].Payload)
	}
	return m.Transport.Exchange(step, out)
}

func countRecords(payload []byte) int64 {
	// kind byte, uvarint step, uvarint record count (see sealRecords).
	rest := payload[1:]
	_, k := binaryUvarint(rest)
	rest = rest[k:]
	n, _ := binaryUvarint(rest)
	return int64(n)
}

func binaryUvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

func TestEngineNetworkAccounting(t *testing.T) {
	const n = 10
	g, lbl := chainGraph(n)
	// Partition even/odd: every chain hop crosses partitions.
	metered := &meteredLoopback{Transport: Loopback(2)}
	eng := NewEngine(g, Options{Workers: 2, Partitions: 2, Transport: metered})
	stats := eng.Run(&propagateProgram{lbl: lbl}, []VertexID{0})
	// One wire record per chain hop: every hop crosses partitions and
	// no two hops in one superstep share a sender.
	if stats.NetworkMessages != n-1 {
		t.Errorf("network messages = %d, want %d", stats.NetworkMessages, n-1)
	}
	// The accounting must equal the measured bytes-on-wire exactly —
	// same frames, same header charge, one code path.
	if stats.NetworkBytes != metered.bytes {
		t.Errorf("accounted network bytes = %d, measured on the transport = %d", stats.NetworkBytes, metered.bytes)
	}
	if stats.NetworkMessages != metered.recs {
		t.Errorf("accounted network messages = %d, records on the transport = %d", stats.NetworkMessages, metered.recs)
	}
	// Every ordered partition pair ships one frame per superstep, empty
	// or not — the synchronization cost the simulation must price.
	if want := 2 * stats.Supersteps; metered.frames != want {
		t.Errorf("frames on the transport = %d, want %d (2 pairs x %d supersteps)", metered.frames, want, stats.Supersteps)
	}
	if stats.NetworkBytes <= metered.frames*frameHeaderBytes {
		t.Errorf("network bytes = %d do not cover %d frame headers plus records", stats.NetworkBytes, metered.frames)
	}
}

// haltMaster halts before the second superstep.
type haltMaster struct{ lbl LabelID }

func (p *haltMaster) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.SendAlong(v, p.lbl, nil)
}

func (p *haltMaster) BeforeSuperstep(step int) bool { return step < 1 }

func TestEngineSequentialRunsIsolated(t *testing.T) {
	g, lbl := chainGraph(5)
	eng := NewEngine(g, Options{Workers: 2})
	s1 := eng.Run(&haltMaster{lbl: lbl}, []VertexID{0})
	// The halted run left undelivered messages; the next run must not see them.
	s2 := eng.Run(&propagateProgram{lbl: lbl}, []VertexID{0})
	if s1.Messages != 1 {
		t.Errorf("first run messages = %d", s1.Messages)
	}
	if s2.Supersteps != 5 || s2.Messages != 4 {
		t.Errorf("second run stats = %v", s2)
	}
	total := eng.Stats()
	if total.Messages != s1.Messages+s2.Messages {
		t.Errorf("accumulated messages = %d", total.Messages)
	}
}

// meshGraph builds a denser test graph: n vertices, each with edges to
// the next k vertices (mod n), so supersteps fan out many messages.
func meshGraph(n, k int) (*Graph, LabelID) {
	g := NewGraph()
	lbl := g.Symbols.Intern("e")
	vl := g.Symbols.Intern("node")
	for i := 0; i < n; i++ {
		g.AddVertex(vl, nil)
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			g.AddEdge(VertexID(i), VertexID((i+j)%n), lbl)
		}
	}
	g.Freeze()
	return g, lbl
}

// hopProgram forwards a bounded hop counter along every "e" edge and
// emits each vertex's inbox size — output that is sensitive to both
// message delivery order and activation order.
type hopProgram struct {
	lbl  LabelID
	hops int
}

func (p *hopProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	ctx.AddOps(1 + len(inbox))
	if len(inbox) > 0 {
		ctx.Emit([2]int{int(v), len(inbox)})
	}
	if ctx.Step() < p.hops {
		ctx.SendAlong(v, p.lbl, ctx.Step())
	}
}

// TestShardedMergeMatchesSerial: the sharded parallel merge must be
// byte-identical to the serial merge a single-worker engine runs (one
// shard, merged on the Run goroutine) — same Emit stream in the same
// order and exactly equal Stats (including the network dedup accounting)
// — across worker counts and partitionings.
func TestShardedMergeMatchesSerial(t *testing.T) {
	const n, k = 97, 5
	for _, partitions := range []int{1, 2, 6} {
		var baseStats Stats
		var baseEmit []any
		for i, workers := range []int{1, 2, 4, 8} {
			g, lbl := meshGraph(n, k)
			eng := NewEngine(g, Options{Workers: workers, Partitions: partitions})
			initial := []VertexID{0, 13, 40, 77}
			stats := eng.Run(&hopProgram{lbl: lbl, hops: 4}, initial)
			emitted := append([]any(nil), eng.Emitted()...)
			if i == 0 {
				baseStats, baseEmit = stats, emitted
				continue
			}
			if stats != baseStats {
				t.Errorf("partitions=%d workers=%d: stats %v != base %v",
					partitions, workers, stats, baseStats)
			}
			if len(emitted) != len(baseEmit) {
				t.Fatalf("partitions=%d workers=%d: %d emits, want %d",
					partitions, workers, len(emitted), len(baseEmit))
			}
			for j := range emitted {
				if emitted[j] != baseEmit[j] {
					t.Fatalf("partitions=%d workers=%d: emit[%d] = %v, want %v",
						partitions, workers, j, emitted[j], baseEmit[j])
				}
			}
		}
	}
}

// TestSteadyStateZeroAlloc: once pools are warm, a whole Run on a
// single-worker engine allocates nothing — contexts, staging and inbox
// arrays, fold tables and the active list are all reused, and the
// Transport seam (StartRun, one Exchange and one Barrier per superstep,
// FinishRun) costs no allocation on Loopback. The pinned two-partition
// case sends v → v+2, which never leaves the sender's partition, so each
// superstep seals, prices and exchanges two empty frames; the mesh cases
// build real wire records, whose storage is reused too.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		parts  int
		pinned bool
	}{{1, false}, {2, true}, {2, false}, {3, false}} {
		g, lbl := meshGraph(64, 3)
		eng := NewEngine(g, Options{Workers: 1, Partitions: tc.parts})
		prog := ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
			if ctx.Step() >= 3 {
				return
			}
			if tc.pinned {
				ctx.Send(v, (v+2)%64, nil)
				return
			}
			ctx.SendAlong(v, lbl, nil)
		})
		initial := []VertexID{0, 1, 2, 3}
		eng.Run(prog, initial)
		eng.Run(prog, initial)
		allocs := testing.AllocsPerRun(10, func() { eng.Run(prog, initial) })
		if allocs > 0 {
			t.Errorf("partitions=%d pinned=%v: steady-state Run allocates %.1f times, want 0",
				tc.parts, tc.pinned, allocs)
		}
	}
}

// TestSuperstepAllocsAreFlat: a multi-worker Run pays a fixed number of
// allocations for its worker pool, and nothing per superstep — a warm
// partitioned Run of 30 supersteps allocates exactly what one of 3 does.
func TestSuperstepAllocsAreFlat(t *testing.T) {
	g, lbl := meshGraph(64, 3)
	eng := NewEngine(g, Options{Workers: 2, Partitions: 2})
	initial := []VertexID{0, 1, 2, 3}
	allocs := func(hops int) float64 {
		prog := ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
			if ctx.Step() < hops {
				ctx.SendAlong(v, lbl, nil)
			}
		})
		eng.Run(prog, initial)
		eng.Run(prog, initial)
		return testing.AllocsPerRun(10, func() { eng.Run(prog, initial) })
	}
	short, long := allocs(3), allocs(30)
	if short != long {
		t.Errorf("warm Run allocates %.1f times at 3 supersteps, %.1f at 30; want equal", short, long)
	}
}

// TestInboxResidencyIsSparse: an engine over a large graph with a tiny
// active frontier must hold far less inbox memory than the dense
// O(|V|) plane did, and an idle engine must trim back under the
// pooling budget.
func TestInboxResidencyIsSparse(t *testing.T) {
	const n = 20000
	g, lbl := chainGraph(n)
	eng := NewEngine(g, Options{Workers: 4})
	prog := ProgramFunc(func(ctx *Context, v VertexID, inbox []Message) {
		if ctx.Step() < 50 {
			ctx.SendAlong(v, lbl, nil)
		}
	})
	eng.Run(prog, []VertexID{0})
	sparse, dense := eng.InboxBytes(), DenseInboxBytes(g.NumVertices())
	if sparse == 0 {
		t.Fatal("InboxBytes = 0 after a run that pooled buffers")
	}
	if sparse*10 > dense {
		t.Errorf("sparse residency %d B is not << dense %d B", sparse, dense)
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Supersteps: 1, Messages: 2, MessageBytes: 3, ComputeOps: 4}
	b := Stats{Supersteps: 10, Messages: 20, NetworkBytes: 5}
	a.Add(b)
	if a.Supersteps != 11 || a.Messages != 22 || a.NetworkBytes != 5 {
		t.Errorf("Add result = %+v", a)
	}
	if a.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestGraphByteSize(t *testing.T) {
	g, _ := chainGraph(3)
	if g.ByteSize() <= 0 {
		t.Error("byte size should be positive")
	}
}
