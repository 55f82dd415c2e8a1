package bsp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Message is delivered to a vertex at the start of the superstep after it
// was sent, per the BSP discipline of §2.
//
// When the running program declares a Combiner, messages bound for the
// same (destination, slot) are folded into one delivered Message whose
// Payload is the accumulated value: From is the first folded sender (in
// delivery order) and Count is the number of logical sends the message
// represents. Uncombined deliveries carry Count == 1. Programs that
// account per-message work should use InboxCount rather than
// len(inbox), which keeps the paper's ComputeOps measure identical
// whether or not the plane folded.
type Message struct {
	From    VertexID
	Count   int32
	Payload any
}

// InboxCount returns the number of logical messages an inbox
// represents: combined messages count every send folded into them. A
// zero Count (a Message built by hand) counts as one.
func InboxCount(inbox []Message) int {
	n := 0
	for i := range inbox {
		if c := int(inbox[i].Count); c > 1 {
			n += c
		} else {
			n++
		}
	}
	return n
}

// Program is a vertex program: Compute runs once per active vertex per
// superstep, with the messages the vertex received.
//
// Compute must only touch the state of its own vertex (vertex payloads of
// other vertices may be read if the program guarantees they are not being
// mutated concurrently, e.g. immutable TAG tuple data).
//
// The inbox slice is only valid for the duration of the Compute call:
// the engine recycles message buffers across supersteps, so a program
// that needs messages later must copy them (payload references may be
// kept — only the slice itself is reused).
type Program interface {
	Compute(ctx *Context, v VertexID, inbox []Message)
}

// MasterProgram is an optional extension: BeforeSuperstep runs at the
// barrier before each superstep (step counts from 0) and may halt the
// computation by returning false. This is where label-stack-driven
// programs (Algorithm 2) pop the next traversal step.
type MasterProgram interface {
	BeforeSuperstep(step int, eng *Engine) bool
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(ctx *Context, v VertexID, inbox []Message)

// Compute implements Program.
func (f ProgramFunc) Compute(ctx *Context, v VertexID, inbox []Message) { f(ctx, v, inbox) }

// Combiner folds the payloads of messages bound for the same
// (destination vertex, slot) into one accumulated payload, the
// Pregel-style message combiner. The engine applies it at two points:
// at Send time into a per-(shard, destination, slot) accumulator in the
// sending worker's outbox, and after the compute barrier when the shard
// merge folds colliding accumulators from different workers — so a
// sparse inbox carries at most one Message per (active vertex, slot).
//
// The fold must be insensitive to regrouping of the send stream
// (commutative/associative in spirit). Within one partition the engine
// never reorders it — payloads fold in exactly the (worker, send) order
// the uncombined plane would have delivered them in — but across
// partitions each source partition folds its own share of a stream
// independently and the shares are Merged at the receiver. A fold
// whose result depends on how an order-preserving send sequence is cut
// into contiguous runs (naive float addition, say) is therefore not a
// valid Combiner. The SQL layer's partial-group combiner qualifies
// because sql.Aggregator merges are exact: float sums are kept as exact
// partials and rounded once, when read.
//
// Fold and Merge are called concurrently from different workers, but
// always on distinct accumulators; implementations must not keep
// shared mutable state. The engine's paper-facing cost counters
// (Messages, MessageBytes, NetworkMessages, ComputeOps via InboxCount)
// are unaffected by folding; the folding itself is reported in
// Stats.MessagesCombined and Stats.InboxBytesSaved.
type Combiner interface {
	// Slot classifies a payload into an independent fold stream:
	// payloads in different slots never fold together and arrive as
	// separate messages. Programs that send one kind of message per
	// superstep return 0. A negative slot opts the payload out of
	// combining entirely (it is delivered as a plain message, before
	// any combined messages for the same destination).
	Slot(payload any) int
	// Fold merges one sent payload into the accumulator and returns
	// the new accumulator; acc is nil for the first send. from is the
	// sending vertex.
	Fold(acc any, from VertexID, payload any) any
	// Merge folds another worker's accumulator (a value previously
	// returned by Fold) into acc and returns the result.
	Merge(acc, other any) any
}

// CombinerProvider is an optional Program extension: a program whose
// messages may be folded en route returns its Combiner (nil disables
// combining for the run, as does Options.NoCombine).
type CombinerProvider interface {
	Combiner() Combiner
}

// WithCombiner attaches a combiner to a program that cannot implement
// CombinerProvider itself (e.g. a ProgramFunc closure). The wrapper
// forwards MasterProgram to the wrapped program if it implements it.
func WithCombiner(p Program, c Combiner) Program {
	return &combinedProgram{prog: p, comb: c}
}

type combinedProgram struct {
	prog Program
	comb Combiner
}

func (c *combinedProgram) Compute(ctx *Context, v VertexID, inbox []Message) {
	c.prog.Compute(ctx, v, inbox)
}

func (c *combinedProgram) Combiner() Combiner { return c.comb }

func (c *combinedProgram) BeforeSuperstep(step int, eng *Engine) bool {
	if m, ok := c.prog.(MasterProgram); ok {
		return m.BeforeSuperstep(step, eng)
	}
	return true
}

// SignalCombiner combines pure-signal messages — sends whose payload
// the receiver never reads (activation pings, nil payloads) — into one
// nil-payload message per destination. The logical send count survives
// in Message.Count.
type SignalCombiner struct{}

// Slot implements Combiner.
func (SignalCombiner) Slot(any) int { return 0 }

// Fold implements Combiner; the accumulator stays nil.
func (SignalCombiner) Fold(acc any, _ VertexID, _ any) any { return acc }

// Merge implements Combiner.
func (SignalCombiner) Merge(acc, _ any) any { return acc }

// SumCombiner combines int64 payloads by addition — the canonical
// COUNT/SUM message combiner for programs whose receivers only total
// their inbox.
type SumCombiner struct{}

// Slot implements Combiner.
func (SumCombiner) Slot(any) int { return 0 }

// Fold implements Combiner.
func (SumCombiner) Fold(acc any, _ VertexID, payload any) any {
	if acc == nil {
		return payload.(int64)
	}
	return acc.(int64) + payload.(int64)
}

// Merge implements Combiner.
func (SumCombiner) Merge(acc, other any) any { return acc.(int64) + other.(int64) }

// Options configures an Engine run.
type Options struct {
	// Workers is the thread parallelism degree; defaults to GOMAXPROCS.
	// It fixes both the compute fan-out and the number of message-plane
	// shards (one merge shard per worker).
	Workers int
	// MaxSupersteps guards against runaway programs; defaults to 100000.
	MaxSupersteps int
	// Partitions hash-partitions the graph across N machines: messages
	// whose source and destination vertices live on different partitions
	// are built into wire records, sealed into per-partition-pair frames
	// and priced as network traffic. Defaults to 1 (single machine).
	// Whether those frames actually cross a socket is the Transport's
	// business — the accounting path is the same either way.
	Partitions int
	// PartitionOf overrides the default hash partitioner.
	PartitionOf func(VertexID) int
	// PayloadSize estimates the in-memory size of a message payload in
	// bytes for the MessageBytes measure; defaults to 8 bytes per
	// payload. Network bytes are not estimated: at Partitions > 1 they
	// are counted from the actual encoded wire frames.
	PayloadSize func(any) int
	// Transport is the seam every Run goes through: it carries the sealed
	// cross-partition frames, reduces each superstep's barrier frame and
	// gathers the emitted values. Defaults to Loopback(Partitions), which
	// owns every partition in-process: frames are priced and dropped
	// while delivery stays in memory, and the barrier is the identity. A
	// transport whose Local() >= 0 makes the engine one node of a
	// multi-node run: it computes only its own partition's vertices and
	// really exchanges frames, barriers and emits with the other nodes.
	Transport Transport
	// Codec encodes message payloads for the wire records; defaults to
	// BasicCodec. Layers with richer payload vocabularies must install
	// their own codec or cross-partition runs fail with a typed error.
	Codec PayloadCodec
	// NoCombine disables Send-time message folding even when the
	// program declares a Combiner. Rows, Emit output and the
	// paper-facing Stats (compare with Stats.Paper) are identical
	// either way — the flag exists so cross-check tests have an
	// uncombined reference to compare the fold against.
	NoCombine bool
	// AdaptiveCombine samples the observed fold rate at each barrier
	// and drops the combiner for the rest of the run when folds are
	// rare (under adaptiveMinFoldPct% of sends after adaptiveMinSends
	// sends): a program whose destinations rarely collide pays the
	// accumulator plane's hashing without its savings. Fallbacks are
	// counted in Stats.CombineFallbacks. Rows, Emit output and the
	// paper-facing Stats stay identical either way, and because the
	// sampled counts are the barrier-reduced ones, every node of a
	// distributed run drops at the same superstep. Off by default.
	AdaptiveCombine bool
	// Profile collects message-plane profiling: the peak resident
	// inbox bytes observed at any barrier (Engine.PeakInboxBytes) and
	// the cumulative wall time of the communication stage
	// (Engine.MergeDuration). Off by default — the peak probe walks
	// the inbox maps once per superstep.
	Profile bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxSupersteps <= 0 {
		o.MaxSupersteps = 100000
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.PartitionOf == nil {
		p := o.Partitions
		o.PartitionOf = func(v VertexID) int { return int(v) % p }
	}
	if o.PayloadSize == nil {
		o.PayloadSize = func(any) int { return 8 }
	}
	if o.Codec == nil {
		o.Codec = BasicCodec{}
	}
	if o.Transport == nil {
		o.Transport = Loopback(o.Partitions)
	}
	return o
}

// Stats accumulates the paper's cost measures over a run (§2 "Cost
// Measure"): total messages and computation, plus byte-level and
// cross-partition (network) accounting.
type Stats struct {
	Supersteps      int
	Messages        int64 // logical sends — combining never changes this (the paper's M)
	MessageBytes    int64
	NetworkMessages int64 // messages crossing partition boundaries
	NetworkBytes    int64
	ComputeOps      int64
	ActiveVisits    int64 // total vertex activations over all supersteps

	// Combine-plane bookkeeping (zero when no Combiner ran). These are
	// the only fields that may differ between a combined and an
	// uncombined run of the same program — compare Paper() for the
	// rest.
	MessagesCombined int64 // logical sends folded into an existing accumulator
	InboxBytesSaved  int64 // Message-slot bytes the folded sends never occupied
	CombineFallbacks int64 // runs where the adaptive gate dropped a rarely-folding combiner
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Supersteps += other.Supersteps
	s.Messages += other.Messages
	s.MessageBytes += other.MessageBytes
	s.NetworkMessages += other.NetworkMessages
	s.NetworkBytes += other.NetworkBytes
	s.ComputeOps += other.ComputeOps
	s.ActiveVisits += other.ActiveVisits
	s.MessagesCombined += other.MessagesCombined
	s.InboxBytesSaved += other.InboxBytesSaved
	s.CombineFallbacks += other.CombineFallbacks
}

// Sub returns s - other, the delta between two cumulative snapshots
// (e.g. one query's cost out of a session's running totals).
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Supersteps:       s.Supersteps - other.Supersteps,
		Messages:         s.Messages - other.Messages,
		MessageBytes:     s.MessageBytes - other.MessageBytes,
		NetworkMessages:  s.NetworkMessages - other.NetworkMessages,
		NetworkBytes:     s.NetworkBytes - other.NetworkBytes,
		ComputeOps:       s.ComputeOps - other.ComputeOps,
		ActiveVisits:     s.ActiveVisits - other.ActiveVisits,
		MessagesCombined: s.MessagesCombined - other.MessagesCombined,
		InboxBytesSaved:  s.InboxBytesSaved - other.InboxBytesSaved,
		CombineFallbacks: s.CombineFallbacks - other.CombineFallbacks,
	}
}

// Paper returns the paper-facing cost measures only: the combine-plane
// bookkeeping is zeroed, so a combined run can be compared field by
// field against an uncombined one — everything else must match
// byte-for-byte.
func (s Stats) Paper() Stats {
	s.MessagesCombined = 0
	s.InboxBytesSaved = 0
	s.CombineFallbacks = 0
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("supersteps=%d msgs=%d bytes=%d netMsgs=%d netBytes=%d ops=%d visits=%d combined=%d savedB=%d fallbacks=%d",
		s.Supersteps, s.Messages, s.MessageBytes, s.NetworkMessages, s.NetworkBytes, s.ComputeOps, s.ActiveVisits,
		s.MessagesCombined, s.InboxBytesSaved, s.CombineFallbacks)
}

type outMsg struct {
	from, to VertexID
	payload  any
}

// accKey identifies one fold stream: a destination vertex, the
// combiner-assigned slot, and the sender's partition. Splitting streams
// by source partition is what makes a fold stream shippable — each
// partition's share of a stream is exactly the folded accumulator that
// partition would put on the wire as one record. At Partitions == 1
// src is always 0 and the key degenerates to (to, slot).
type accKey struct {
	to   VertexID
	slot int32
	src  int32
}

// accEntry is one running fold: the first sender (the From of the
// delivered Message), the number of logical sends folded in, and the
// accumulated payload.
type accEntry struct {
	from  VertexID
	count int32
	pay   any
}

// ctxAcc is a worker's per-destination-shard accumulator table: idx
// maps fold streams to entries, keys preserves first-send order (the
// order the shard merge folds and delivers in). All three are reused
// across supersteps. last caches the most recent stream's index —
// aggregator-bound programs send a worker's whole chunk to one
// destination, so the common case skips the map probe.
type ctxAcc struct {
	idx     map[accKey]int32
	keys    []accKey
	entries []accEntry
	last    int32 // index of the stream the previous send folded into; -1 when empty
}

// accBytes approximates the retained footprint of one fold stream
// (key + entry + its share of map buckets) and of one wire record,
// for the end-of-Run pooling budget.
const accBytes = 48

// trim drops the accumulator storage if its retained capacity outgrew
// this shard's share of the pooling budget; a warm small run keeps its
// storage (steady-state Runs stay zero-alloc), a huge run's peak goes
// back to the GC with the frontier that needed it.
func (a *ctxAcc) trim(budget int64) {
	if int64(cap(a.keys))*accBytes > budget {
		a.idx, a.keys, a.entries = nil, nil, nil
	}
}

// mergeShard is one shard of the sharded message plane. During the
// communication stage, worker w owns shard w exclusively: it is the
// only goroutine that touches the shard's inbox maps, key lists, free
// list, dedup set and stats, so the parallel merge needs no locks.
type mergeShard struct {
	// in holds the messages delivered at the last barrier, keyed by
	// destination vertex — the sparse replacement for the dense O(|V|)
	// inbox array. inKeys lists its keys in delivery order. Entries are
	// deleted (and their buffers recycled) once consumed, so resident
	// size tracks the active frontier, not the graph.
	in     map[VertexID][]Message
	inKeys []VertexID
	// next accumulates the messages sent during the current superstep;
	// the planes swap at the barrier.
	next     map[VertexID][]Message
	nextKeys []VertexID
	// free recycles message buffers across supersteps and Runs, so a
	// steady-state superstep allocates ~nothing.
	free [][]Message
	// accIdx/pend/pendKeys fold colliding per-worker accumulators at
	// the barrier (combined plane only): pend holds the surviving
	// accumulator per fold stream in first-seen (worker, send) order,
	// delivered as one Message each. Reused across supersteps.
	accIdx   map[accKey]int32
	pend     []accEntry
	pendKeys []accKey
	// encBuf is the shard's payload-encoding scratch for wire records;
	// pairStream.add copies out of it.
	encBuf []byte
	// err records a codec failure during the merge (an unregistered
	// payload type crossing a partition boundary); surfaced through
	// Engine.RunErr.
	err error
	// stats is this shard's share of the superstep's message
	// accounting; the coordinator folds it into Engine.stats at the
	// barrier.
	stats Stats
}

// msgBytes is the in-memory size of one Message (padded int32 +
// 16-byte interface) used by the footprint accounting.
const msgBytes = 24

// The adaptive combiner gate's sampling thresholds: after
// adaptiveMinSends logical sends in a run, a fold rate under
// adaptiveMinFoldPct percent drops the combiner for the rest of the
// run (Options.AdaptiveCombine).
const (
	adaptiveMinSends   = 1024
	adaptiveMinFoldPct = 10
)

// maxPooledBytes bounds the message buffers a Run leaves pooled per
// engine (split evenly across shards). Within a run the pool is
// unbounded (steady-state supersteps must not allocate); at the end of
// a run anything beyond the budget returns to the GC with the frontier
// that needed it, so a session that just ran a huge query does not
// stay huge while idle.
const maxPooledBytes = 32 << 10

// recycleIn clears the consumed inbox entries of a shard, zeroing
// payload references and returning the buffers to the free list.
func (sh *mergeShard) recycleIn() {
	for _, v := range sh.inKeys {
		buf := sh.in[v]
		for i := range buf {
			buf[i] = Message{}
		}
		sh.free = append(sh.free, buf[:0])
		delete(sh.in, v)
	}
	sh.inKeys = sh.inKeys[:0]
}

// trimFree drops pooled buffers beyond this shard's share of the
// engine's pooling budget.
func (sh *mergeShard) trimFree(budget int64) {
	var total int64
	n := 0
	for _, buf := range sh.free {
		total += int64(cap(buf)) * msgBytes
		if total > budget {
			break
		}
		n++
	}
	for i := n; i < len(sh.free); i++ {
		sh.free[i] = nil
	}
	sh.free = sh.free[:n]
}

// getBuf pops a recycled message buffer; nil means append will allocate
// a fresh one on first use.
func (sh *mergeShard) getBuf() []Message {
	if n := len(sh.free); n > 0 {
		buf := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return buf
	}
	return nil
}

// Engine executes vertex programs over a frozen graph. An Engine may run
// several programs in sequence over the same graph (as TAG-join does for
// its reduction and collection phases); Stats accumulate across runs.
//
// Concurrency contract: an Engine holds per-run mutable state (inboxes,
// stats, aggregators), so a single Engine runs one program at a time.
// Any number of Engines may run concurrently over the same *frozen*
// Graph, each serving one in-flight query — that is how internal/serve's
// session pool shares one TAG encoding across simultaneous queries. The
// graph value an engine runs over must not be thawed while any engine
// on it is running; to maintain a graph that is being served, mutate a
// copy-on-write Clone off to the side and point new engines at the
// clone (the generation scheme in internal/serve).
//
// The message plane is sharded: each worker context keeps one outbox
// per destination shard, and after the compute barrier the same worker
// pool merges them in parallel — worker w is the only writer into
// shard w. Inboxes are sparse maps keyed by active vertex, so an idle
// engine holds O(active) memory, not O(|V|), and contexts, outboxes,
// aggregator maps and message buffers are pooled across supersteps and
// Runs.
type Engine struct {
	g    *Graph
	opts Options

	stats Stats

	shards []mergeShard
	ctxs   []*Context
	active []VertexID

	// comb is the running program's message combiner (nil when the
	// program declares none or Options.NoCombine is set); fixed at the
	// start of each Run, read by worker contexts during it.
	comb Combiner

	aggs   map[string]int64
	emits  []any
	halted bool

	// localPart caches Transport.Local(): the partition this engine owns
	// as one node of a multi-node run, -1 when it owns every partition
	// (loopback).
	localPart int
	// wireStreams holds the per-(src, dst) partition-pair wire-record
	// streams of the current superstep, indexed src*Partitions+dst; nil
	// at Partitions == 1. The shard that owns dst is the only writer of
	// (·, dst) during the merge.
	wireStreams []pairStream
	// frames is the per-superstep sealed-frame scratch handed to the
	// Transport.
	frames []Frame
	// emitTags parallels emits with (step, vertex) tags when localPart
	// >= 0, so the nodes' emit streams can be allgathered back into the
	// exact single-process order.
	emitTags []emitTag
	// baggs is the local aggregator scratch a barrier frame carries.
	baggs map[string]int64
	// runErr is the first Context.Fail error of the current Run (the
	// globally agreed first, as reduced at the barrier); reset per Run.
	runErr error
	// distErr latches a transport failure: the engine is permanently
	// failed and every subsequent Run refuses immediately.
	distErr error
	// touched lists inboxes that received remote records this superstep
	// and need their delivery order restored.
	touched []VertexID

	// Profiling (Options.Profile): peak resident inbox bytes observed
	// at any barrier, and cumulative communication-stage wall time.
	peakInbox int64
	mergeNs   int64

	// wg coordinates the compute and merge fan-outs; a field rather
	// than a Run local so steady-state supersteps allocate nothing.
	wg sync.WaitGroup

	// work is the persistent per-Run worker pool: one job channel per
	// worker context, spawned once at the top of Run and shut down at
	// its end, so a superstep dispatches channel sends instead of
	// paying two goroutine spawns per barrier (compute + merge). Nil
	// between Runs and on single-worker engines.
	work []chan job

	// ctx, when non-nil, cancels the run between supersteps: once it is
	// done, Run breaks out of the superstep loop at the next barrier and
	// flows through the normal end-of-Run cleanup, so pooled engine
	// state stays reusable. Set via SetContext by the owning session;
	// read only by Run's goroutine (ctx.Err is itself safe against
	// concurrent cancellation). deadline caches ctx.Deadline so barriers
	// can compare wall clocks instead of trusting the runtime timer that
	// marks the context done (see ctxDone).
	ctx      context.Context
	deadline time.Time
}

// job is one unit dispatched to the persistent worker pool: a compute
// chunk (verts + the worker's context) or, with merge set, the
// communication stage of one shard. Sent by value, so steady-state
// supersteps still allocate nothing.
type job struct {
	verts []VertexID
	ctx   *Context
	shard int
	merge bool
}

// NewEngine prepares an engine over g. Construction is cheap — O(#workers),
// independent of the graph size — so per-generation session pools can
// create engines lazily on the serving path.
func NewEngine(g *Graph, opts Options) *Engine {
	if !g.Frozen() {
		g.Freeze()
	}
	opts = opts.withDefaults()
	e := &Engine{
		g:         g,
		opts:      opts,
		shards:    make([]mergeShard, opts.Workers),
		ctxs:      make([]*Context, opts.Workers),
		aggs:      make(map[string]int64),
		baggs:     make(map[string]int64),
		localPart: opts.Transport.Local(),
	}
	if opts.Partitions > 1 {
		e.wireStreams = make([]pairStream, opts.Partitions*opts.Partitions)
	}
	for s := range e.shards {
		e.shards[s].in = make(map[VertexID][]Message)
		e.shards[s].next = make(map[VertexID][]Message)
	}
	for w := range e.ctxs {
		e.ctxs[w] = &Context{
			eng:    e,
			worker: w,
			out:    make([][]outMsg, opts.Workers),
			acc:    make([]ctxAcc, opts.Workers),
			aggs:   make(map[string]int64),
			// Tag emits only where an allgather will need to order them.
			tagEmits: e.localPart >= 0,
		}
	}
	return e
}

// owns reports whether this engine computes vertex v: always on
// loopback, only for the local partition's vertices on a multi-node
// transport.
func (e *Engine) owns(v VertexID) bool {
	return e.localPart < 0 || e.opts.PartitionOf(v) == e.localPart
}

// stream returns the wire-record stream for the ordered partition pair
// (src, dst). Only the merge worker that owns dst's shard writes it.
func (e *Engine) stream(src, dst int) *pairStream {
	return &e.wireStreams[src*e.opts.Partitions+dst]
}

// shardOf maps a destination vertex to the merge shard that owns it.
// Under a partitioned run the shard is derived from the vertex's
// partition, so each partition's inbound wire streams are owned by
// exactly one shard — that keeps the per-(src, dst) record streams
// single-writer without locks. Otherwise vertices are striped over
// shards directly.
func (e *Engine) shardOf(v VertexID) int {
	n := len(e.shards)
	if n == 1 {
		return 0
	}
	if e.opts.Partitions > 1 {
		s := e.opts.PartitionOf(v) % n
		if s < 0 {
			s += n
		}
		return s
	}
	return int(v) % n
}

// inboxOf returns the messages delivered to v at the last barrier.
func (e *Engine) inboxOf(v VertexID) []Message {
	return e.shards[e.shardOf(v)].in[v]
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *Graph { return e.g }

// Workers returns the number of worker contexts Compute runs on.
func (e *Engine) Workers() int { return len(e.ctxs) }

// Stats returns the accumulated cost measures.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the accumulated cost measures.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// AddExternal records communication performed outside a vertex program
// (e.g. the Algorithm B Cartesian combination of component results) in
// the cost measures.
func (e *Engine) AddExternal(msgs, bytes int64) {
	e.stats.Messages += msgs
	e.stats.MessageBytes += bytes
}

// AggInt returns the value of a named integer aggregator accumulated
// during the most recent superstep.
func (e *Engine) AggInt(name string) int64 { return e.aggs[name] }

// Emitted returns values emitted via Context.Emit during the last Run, in
// deterministic (worker-, then vertex-) order. The slice is valid until
// the next Run.
func (e *Engine) Emitted() []any { return e.emits }

// Halt requests termination after the current superstep; usable from a
// MasterProgram.
func (e *Engine) Halt() { e.halted = true }

// SetContext arms (or, with nil, disarms) between-superstep
// cancellation for subsequent Runs: once ctx is done, a run stops at
// the next superstep barrier instead of computing to completion, and
// Run returns through its normal cleanup with the stats accumulated so
// far. The engine never inspects the cause — callers that need to
// distinguish a deadline from an explicit cancel check ctx.Err()
// themselves after Run returns. Call from the goroutine that owns the
// engine, like Run itself.
func (e *Engine) SetContext(ctx context.Context) {
	e.ctx = ctx
	e.deadline = time.Time{}
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			e.deadline = dl
		}
	}
}

// ctxDone reports whether the armed context calls for an abort at a
// barrier. A context's deadline is checked against the wall clock
// directly, not only via ctx.Err(): ctx.Err turns non-nil when a
// runtime timer fires, and on a single-P runtime a compute-bound
// superstep can hold the only P past the whole deadline window —
// finishing a run that should have been cut short. The deadline is a
// wall-clock fact; barriers honor it even when the timer is starved.
func (e *Engine) ctxDone() bool {
	if e.ctx == nil {
		return false
	}
	if e.ctx.Err() != nil {
		return true
	}
	return !e.deadline.IsZero() && time.Now().After(e.deadline)
}

// startWorkers spawns the persistent per-Run worker pool. Each worker
// owns one job channel; compute chunk w and merge shard w are always
// dispatched to worker w, so every Context and mergeShard keeps a
// single-goroutine-at-a-time owner exactly as the spawn-per-barrier
// scheme had.
func (e *Engine) startWorkers(prog Program) {
	e.work = make([]chan job, len(e.ctxs))
	for w := range e.work {
		ch := make(chan job, 1)
		e.work[w] = ch
		go func() {
			for j := range ch {
				if j.merge {
					e.mergeShard(j.shard)
				} else {
					for _, v := range j.verts {
						j.ctx.cur = v
						prog.Compute(j.ctx, v, e.inboxOf(v))
					}
				}
				e.wg.Done()
			}
		}()
	}
}

// stopWorkers shuts the per-Run pool down; all dispatched jobs have
// completed (every stage ends with wg.Wait), so closing the channels
// lets the workers drain and exit.
func (e *Engine) stopWorkers() {
	for _, ch := range e.work {
		close(ch)
	}
	e.work = nil
}

// InboxBytes estimates the resident memory of the sparse message plane:
// live inbox entries plus the pooled buffers kept for reuse. Compare
// with DenseInboxBytes: the dense plane held two O(|V|) slice-header
// arrays per engine before counting a single message.
func (e *Engine) InboxBytes() int64 {
	const entrySize = 40 // map key + slice header, approximate
	var total int64
	for s := range e.shards {
		sh := &e.shards[s]
		total += int64(len(sh.in)+len(sh.next)) * entrySize
		for _, buf := range sh.in {
			total += int64(cap(buf)) * msgBytes
		}
		for _, buf := range sh.next {
			total += int64(cap(buf)) * msgBytes
		}
		for _, buf := range sh.free {
			total += int64(cap(buf)) * msgBytes
		}
	}
	return total
}

// DenseInboxBytes returns what the pre-sharding dense message plane
// held resident for a graph of n vertices: two arrays of O(|V|) slice
// headers per engine, regardless of how many vertices were active.
func DenseInboxBytes(n int) int64 { return int64(n) * 48 }

// PeakInboxBytes returns the largest resident inbox footprint observed
// at any barrier since the engine was created. Requires Options.Profile;
// zero otherwise.
func (e *Engine) PeakInboxBytes() int64 { return e.peakInbox }

// MergeDuration returns the cumulative wall time of the communication
// stage (outbox merge + accumulator folding) since the engine was
// created. Requires Options.Profile; zero otherwise.
func (e *Engine) MergeDuration() time.Duration { return time.Duration(e.mergeNs) }

// Run executes prog starting from the initial active set until no vertex
// is active, the master halts, or MaxSupersteps is reached. It returns the
// stats for this run only (engine totals keep accumulating).
//
// This is the engine's one superstep loop, for every Transport. It
// touches the Transport at four seam points — the owned share of the
// initial set, the frame exchange, the barrier reduction and the
// end-of-run emit gather — and every loop-control decision (active
// count, abort, failure, the aggregators a master hook reads) comes out
// of the reduced barrier frame. On Loopback the reduction is the
// identity; on a multi-node transport it is what keeps the nodes in
// lockstep, so their Stats and Emitted() equal the loopback engine's.
func (e *Engine) Run(prog Program, initial []VertexID) Stats {
	if e.distErr != nil {
		// The transport failed earlier; the engine is permanently
		// degraded and refuses further runs (see RunErr).
		return Stats{}
	}
	before := e.stats
	e.halted = false
	e.runErr = nil
	e.emits = e.emits[:0]
	e.emitTags = e.emitTags[:0]

	// The graph may have grown since the engine was created (incremental
	// TAG maintenance adds vertices); the sparse inbox maps absorb new
	// vertex ids with no resizing, so only re-freezing matters here.
	if !e.g.Frozen() {
		e.g.Freeze()
	}

	tr := e.opts.Transport
	if err := tr.StartRun(); err != nil {
		e.distErr = err
		return Stats{}
	}

	// Seam 1: this engine activates only the vertices it owns; the other
	// nodes activate their own shares.
	active := append(e.active[:0], initial...)
	if e.localPart >= 0 {
		active = slices.DeleteFunc(active, func(v VertexID) bool { return !e.owns(v) })
	}
	slices.Sort(active)

	e.comb = nil
	if !e.opts.NoCombine {
		if cp, ok := prog.(CombinerProvider); ok {
			e.comb = cp.Combiner()
		}
	}

	master, hasMaster := prog.(MasterProgram)

	// Establish the global active count and abort flag: a node whose own
	// share is empty must still run the supersteps the others run.
	gb, err := tr.Barrier(BarrierFrame{Step: -1, Active: int64(len(active)), Abort: e.ctxDone()})
	if err != nil {
		e.distErr = err
		e.active = active[:0]
		return Stats{}
	}

	// Multi-worker engines run their supersteps through a persistent
	// worker pool spawned once here and kept alive across barriers:
	// tiny supersteps are dominated by fan-out cost, and a channel send
	// to a parked goroutine is far cheaper than spawning one (twice —
	// compute and merge) per superstep.
	if len(e.ctxs) > 1 {
		e.startWorkers(prog)
		defer e.stopWorkers()
	}

	for step := 0; step < e.opts.MaxSupersteps; step++ {
		// Loop-break decisions read only barrier-reduced state (master
		// hooks see the reduced aggregators), so every node breaks at the
		// same superstep.
		if hasMaster && !master.BeforeSuperstep(step, e) {
			break
		}
		// gb.Abort is the cancellation point: breaking here is clean — the
		// previous superstep's merge fully drained every outbox, so the
		// cleanup below leaves the pooled planes consistent for the next
		// Run.
		if gb.Active == 0 || e.halted || gb.Abort {
			break
		}
		e.stats.Supersteps++
		e.stats.ActiveVisits += gb.Active

		// Computation stage: shard the owned active vertices over the
		// pooled worker contexts (none, when only other nodes are active).
		if workers := min(len(e.ctxs), len(active)); workers > 0 {
			chunk := (len(active) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := min(w*chunk, len(active))
				hi := min(lo+chunk, len(active))
				ctx := e.ctxs[w]
				ctx.step = step
				if workers == 1 {
					for _, v := range active {
						ctx.cur = v
						prog.Compute(ctx, v, e.inboxOf(v))
					}
					break
				}
				e.wg.Add(1)
				e.work[w] <- job{verts: active[lo:hi], ctx: ctx}
			}
			e.wg.Wait()
		}

		// Communication stage: the same worker pool merges the sharded
		// outboxes, worker w writing only shard w. Delivery into any one
		// vertex's inbox happens in (worker, send) order — what a single
		// shard's merge produces — so the stage is deterministic no matter
		// how many goroutines run it.
		var mergeStart time.Time
		if e.opts.Profile {
			mergeStart = time.Now()
		}
		if len(e.shards) == 1 {
			e.mergeShard(0)
		} else {
			for s := range e.shards {
				e.wg.Add(1)
				e.work[s] <- job{shard: s, merge: true}
			}
			e.wg.Wait()
		}
		if e.opts.Profile {
			e.mergeNs += time.Since(mergeStart).Nanoseconds()
			if b := e.InboxBytes(); b > e.peakInbox {
				e.peakInbox = b
			}
		}

		// Seam 2: seal and price the pair streams this engine owns, swap
		// frames with the other nodes and deliver what they sent.
		bf := BarrierFrame{Step: step, Aggs: e.baggs}
		if err := e.exchange(step, &bf.Stats); err != nil {
			e.distErr = err
			break
		}

		// Barrier: fold per-shard accounting, swap the message planes,
		// and collect the next active set.
		active = active[:0]
		for s := range e.shards {
			sh := &e.shards[s]
			bf.Stats.Add(sh.stats)
			sh.stats = Stats{}
			if sh.err != nil {
				if e.runErr == nil {
					e.runErr = sh.err
				}
				sh.err = nil
			}
			sh.in, sh.next = sh.next, sh.in
			sh.inKeys, sh.nextKeys = sh.nextKeys, sh.inKeys
			active = append(active, sh.inKeys...)
		}
		// Per-worker outputs, in deterministic worker order.
		clear(e.baggs)
		for _, ctx := range e.ctxs {
			for k, v := range ctx.aggs {
				e.baggs[k] += v
			}
			clear(ctx.aggs)
			e.emits = append(e.emits, ctx.emits...)
			clear(ctx.emits)
			ctx.emits = ctx.emits[:0]
			e.emitTags = append(e.emitTags, ctx.emitTags...)
			ctx.emitTags = ctx.emitTags[:0]
			bf.Stats.ComputeOps += ctx.ops
			ctx.ops = 0
			if ctx.failErr != nil {
				if e.runErr == nil {
					e.runErr = ctx.failErr
				}
				ctx.failErr = nil
			}
			// Send-time accounting of combined sends (uncombined sends
			// are accounted by the shard merge).
			bf.Stats.Add(ctx.stats)
			ctx.stats = Stats{}
		}
		slices.Sort(active)

		// Seam 3: reduce the local frame and adopt the global one. The
		// aggregators of superstep S stay readable through S+1's master
		// hook, until the next barrier replaces them.
		bf.Active = int64(len(active))
		bf.Abort = e.ctxDone()
		if e.runErr != nil {
			bf.Fail = e.runErr.Error()
		}
		if gb, err = tr.Barrier(bf); err != nil {
			e.distErr = err
			break
		}
		e.stats.Add(gb.Stats)
		clear(e.aggs)
		for k, v := range gb.Aggs {
			e.aggs[k] = v
		}
		// Every node adopts the globally agreed first failure so the
		// run's outcome is identical everywhere.
		if gb.Fail != "" && (e.runErr == nil || e.runErr.Error() != gb.Fail) {
			e.runErr = errors.New(gb.Fail)
		}
		if e.runErr != nil {
			break
		}

		// Adaptive combiner gate: with enough sends observed this run and
		// almost none of them folding, the accumulator plane is pure
		// overhead — drop to the plain outbox for the rest of the run.
		// Safe exactly here: the barrier has drained every pending
		// accumulator into the inboxes, and no worker reads e.comb until
		// the next compute stage.
		if e.comb != nil && e.opts.AdaptiveCombine {
			run := e.stats.Sub(before)
			if run.Messages >= adaptiveMinSends &&
				run.MessagesCombined*100 < run.Messages*adaptiveMinFoldPct {
				e.comb = nil
				e.stats.CombineFallbacks++
			}
		}
	}

	// Drop any undelivered messages so the next Run starts clean; their
	// buffers go back to the free lists (bounded, so a huge run's peak
	// frontier is not kept resident by an idle session). The combiner's
	// fold tables, wire records and pending lists obey the same budget:
	// a warm steady-state run keeps them, a huge run's peak does not
	// stay resident.
	budget := int64(maxPooledBytes / len(e.shards))
	for s := range e.shards {
		sh := &e.shards[s]
		sh.recycleIn()
		sh.trimFree(budget)
		if int64(cap(sh.pendKeys))*accBytes > budget {
			sh.accIdx, sh.pend, sh.pendKeys = nil, nil, nil
		}
	}
	for _, ctx := range e.ctxs {
		for s := range ctx.acc {
			ctx.acc[s].trim(budget)
		}
	}
	for i := range e.wireStreams {
		ps := &e.wireStreams[i]
		if int64(cap(ps.recs))*accBytes > budget {
			ps.recs = nil
		}
		if int64(cap(ps.sealed)) > budget {
			ps.sealed = nil
		}
	}
	e.active = active

	// Seam 4: gather the nodes' emits into the global order.
	if e.distErr == nil {
		e.gatherEmits()
	}

	return e.stats.Sub(before)
}

// RunErr reports the first failure of the most recent Run: a
// Context.Fail from a vertex program, a codec error on a
// cross-partition payload — or, sticky across Runs, a transport
// failure that has permanently degraded the engine.
func (e *Engine) RunErr() error {
	if e.distErr != nil {
		return e.distErr
	}
	return e.runErr
}

// DistErr reports the sticky transport failure that has permanently
// degraded this engine, or nil while the transport is healthy (always,
// on Loopback). A program failure (Context.Fail, codec error) never
// sets it — those engines stay usable for the next Run. Orchestration
// layers use it to tell "this query failed" from "this node can no
// longer participate in the topology".
func (e *Engine) DistErr() error { return e.distErr }

// exchange seals the superstep's stream of every ordered partition pair
// whose source this engine owns into one frame (empty streams included —
// the synchronization frame crosses the wire every superstep), prices
// the sealed bytes into stepStats, hands the frames to the Transport
// and delivers the frames that come back. Loopback owns every source,
// so it prices all pairs at once, and returns nothing: delivery already
// happened in-process, the frames existed to be priced. A node prices
// its own outgoing frames and the barrier sums the nodes' shares into
// the same totals. Runs on the Run goroutine, after the merge barrier.
func (e *Engine) exchange(step int, stepStats *Stats) error {
	p := e.opts.Partitions
	e.frames = e.frames[:0]
	for src := 0; src < p; src++ {
		if e.localPart >= 0 && src != e.localPart {
			continue
		}
		for dst := 0; dst < p; dst++ {
			if src == dst {
				continue
			}
			ps := e.stream(src, dst)
			ps.sealed = sealRecords(ps.sealed[:0], step, ps.recs)
			stepStats.NetworkMessages += int64(len(ps.recs))
			stepStats.NetworkBytes += int64(frameHeaderBytes + len(ps.sealed))
			e.frames = append(e.frames, Frame{Src: src, Dst: dst, Payload: ps.sealed})
			ps.reset()
		}
	}
	in, err := e.opts.Transport.Exchange(step, e.frames)
	if err != nil {
		return err
	}
	return e.deliverFrames(step, in)
}

// mergeShard runs the communication stage for one shard: recycle the
// inbox entries this shard's vertices consumed during the superstep,
// then deliver every worker's outbox slice for this shard, in worker
// order. At Partitions > 1 every cross-partition send is also encoded
// into its (src, dst) pair stream — consecutive identical payloads from
// one sender dedup into a single record that fans out on the receiving
// side, as BSP engines' per-machine message combiners do: the payload
// crosses the interconnect once.
func (e *Engine) mergeShard(s int) {
	sh := &e.shards[s]
	sh.recycleIn()
	partitions := e.opts.Partitions
	for _, ctx := range e.ctxs {
		msgs := ctx.out[s]
		for i := range msgs {
			m := &msgs[i]
			sh.stats.Messages++
			sh.stats.MessageBytes += int64(e.opts.PayloadSize(m.payload))
			deliver := true
			if partitions > 1 {
				srcP, dstP := e.opts.PartitionOf(m.from), e.opts.PartitionOf(m.to)
				if srcP != dstP {
					e.record(sh, srcP, dstP, m.from, -1, m.payload, m.to, 1)
				}
				// A node delivers only its own partition's messages
				// locally; the rest exist as wire records.
				deliver = e.localPart < 0 || dstP == e.localPart
			}
			if deliver {
				buf, ok := sh.next[m.to]
				if !ok {
					buf = sh.getBuf()
					sh.nextKeys = append(sh.nextKeys, m.to)
				}
				sh.next[m.to] = append(buf, Message{From: m.from, Count: 1, Payload: m.payload})
			}
			msgs[i] = outMsg{} // release payload references held by the outbox
		}
		ctx.out[s] = msgs[:0]
	}
	if e.comb != nil {
		e.foldAccs(s, sh)
		if partitions > 1 {
			e.recordPend(sh)
		}
		// Loopback has every source partition's accumulators in hand. A
		// node flushes after the exchange instead (deliverFrames), once
		// the other nodes' accumulators have merged in.
		if e.localPart < 0 {
			e.flushPend(sh)
		}
	}
}

// record encodes one cross-partition send into its (src, dst) pair
// stream. A payload the codec cannot encode fails the run through
// sh.err; the send is still delivered wherever it is local.
func (e *Engine) record(sh *mergeShard, srcP, dstP int, from VertexID, slot int32, pay any, to VertexID, count int32) {
	enc, err := e.opts.Codec.Append(sh.encBuf[:0], pay)
	if err != nil {
		if sh.err == nil {
			sh.err = err
		}
		return
	}
	sh.encBuf = enc
	e.stream(srcP, dstP).add(from, slot, enc, to, count)
}

// foldAccs is the first half of the combined plane's communication
// stage: fold the workers' per-(destination, slot, source partition)
// accumulators into the shard's pending table — colliding streams merge
// in worker order, exactly the order the uncombined plane would have
// delivered in.
func (e *Engine) foldAccs(s int, sh *mergeShard) {
	for _, ctx := range e.ctxs {
		a := &ctx.acc[s]
		for i := range a.keys {
			k := a.keys[i]
			entry := &a.entries[i]
			if j, ok := sh.accIdx[k]; ok {
				tgt := &sh.pend[j]
				tgt.pay = e.comb.Merge(tgt.pay, entry.pay)
				tgt.count += entry.count
				sh.stats.MessagesCombined++
				sh.stats.InboxBytesSaved += msgBytes
			} else {
				if sh.accIdx == nil {
					sh.accIdx = make(map[accKey]int32)
				}
				sh.accIdx[k] = int32(len(sh.pend))
				sh.pend = append(sh.pend, *entry)
				sh.pendKeys = append(sh.pendKeys, k)
			}
			*entry = accEntry{} // release payload references
		}
		a.keys = a.keys[:0]
		a.entries = a.entries[:0]
		a.last = -1
		if len(a.idx) > 0 {
			clear(a.idx)
		}
	}
}

// recordPend runs between fold and flush at Partitions > 1: every
// cross-partition fold stream is encoded into its (src, dst) pair stream
// — one record carrying the folded accumulator — and the pending table
// is compacted down to what this engine delivers itself, re-keyed by
// (destination, slot). On loopback that re-merges streams split by
// source partition, keeping the first-seen entry and Merging later ones
// in, so the per-(to, slot) fold count comes out the same as the
// single-partition engine's. A node instead drops the streams it just
// shipped; the owner makes the same Merge calls when the records arrive
// (deliverRemote), so the fold trees agree.
func (e *Engine) recordPend(sh *mergeShard) {
	if len(sh.accIdx) > 0 {
		clear(sh.accIdx)
	}
	out := 0
	for i := range sh.pend {
		k := sh.pendKeys[i]
		p := sh.pend[i]
		sh.pend[i] = accEntry{}
		if dstP := e.opts.PartitionOf(k.to); int(k.src) != dstP {
			e.record(sh, int(k.src), dstP, p.from, k.slot, p.pay, k.to, p.count)
		}
		if !e.owns(k.to) {
			continue
		}
		k.src = -1
		if j, ok := sh.accIdx[k]; ok {
			tgt := &sh.pend[j]
			tgt.pay = e.comb.Merge(tgt.pay, p.pay)
			tgt.count += p.count
			tgt.from = min(tgt.from, p.from)
			sh.stats.MessagesCombined++
			sh.stats.InboxBytesSaved += msgBytes
			continue
		}
		if sh.accIdx == nil {
			sh.accIdx = make(map[accKey]int32)
		}
		sh.accIdx[k] = int32(out)
		sh.pend[out] = p
		sh.pendKeys[out] = k
		out++
	}
	sh.pend = sh.pend[:out]
	sh.pendKeys = sh.pendKeys[:out]
}

// flushPend delivers the surviving fold streams, one Message each, in
// first-seen order. Combined messages land after any plain (slot < 0)
// messages for the same destination.
func (e *Engine) flushPend(sh *mergeShard) {
	for i := range sh.pend {
		p := &sh.pend[i]
		k := sh.pendKeys[i]
		buf, ok := sh.next[k.to]
		if !ok {
			buf = sh.getBuf()
			sh.nextKeys = append(sh.nextKeys, k.to)
		}
		sh.next[k.to] = append(buf, Message{From: p.from, Count: p.count, Payload: p.pay})
		*p = accEntry{}
	}
	sh.pend = sh.pend[:0]
	sh.pendKeys = sh.pendKeys[:0]
	if len(sh.accIdx) > 0 {
		clear(sh.accIdx)
	}
}

// Context is the per-worker view handed to Compute. All methods are safe
// for the single goroutine that owns the context.
type Context struct {
	eng    *Engine
	worker int // index in [0, Engine.Workers())
	step   int
	cur    VertexID   // vertex currently computing (set by the dispatch loops)
	out    [][]outMsg // one outbox per destination merge shard
	acc    []ctxAcc   // one fold table per destination merge shard (combined plane)
	stats  Stats      // send-time accounting of combined sends
	aggs   map[string]int64
	emits  []any
	// tagEmits/emitTags record (step, vertex) per emit so a distributed
	// run can allgather the nodes' emit streams back into the exact
	// single-process order. Off outside distributed runs.
	tagEmits bool
	emitTags []emitTag
	// failErr is the first Context.Fail of the run on this worker.
	failErr error
	ops     int64
}

// Graph returns the graph being computed over.
func (c *Context) Graph() *Graph { return c.eng.g }

// Worker returns the index of the worker that owns this context, in
// [0, Engine.Workers()). No two goroutines compute on the same index at
// once, so a program may keep per-worker scratch indexed by it.
func (c *Context) Worker() int { return c.worker }

// Step returns the current superstep number (counting from 0).
func (c *Context) Step() int { return c.step }

// Send queues a message for delivery at the next superstep. Vertices may
// message any vertex whose id they know (§2). The message lands in the
// outbox of the shard that owns the destination, so the post-barrier
// merge can run shard-parallel without locks.
//
// When the running program declares a Combiner, the payload folds into
// this worker's per-(shard, destination, slot) accumulator instead of
// occupying an outbox slot: a worker emits at most one combined message
// per fold stream per superstep. The paper-facing cost measures still
// count the logical send (the message "happened"; the engine just never
// materializes it).
func (c *Context) Send(from, to VertexID, payload any) {
	s := c.eng.shardOf(to)
	if comb := c.eng.comb; comb != nil {
		if slot := comb.Slot(payload); slot >= 0 {
			c.sendCombined(comb, s, slot, from, to, payload)
			return
		}
	}
	c.out[s] = append(c.out[s], outMsg{from: from, to: to, payload: payload})
}

// sendCombined folds one logical send into the worker-local accumulator
// of its (shard, destination, slot) stream, accounting the send as if it
// had been materialized.
func (c *Context) sendCombined(comb Combiner, s, slot int, from, to VertexID, payload any) {
	entry := c.foldStream(s, slot, from, to)
	entry.pay = comb.Fold(entry.pay, from, payload)
	c.countFold(entry, c.eng.opts.PayloadSize(payload))
}

// SendFold sends one logical message to `to` whose payload fold builds
// straight into its fold stream, so a sender never materializes a
// message the combiner would only merge and drop. With a combiner
// running, fold receives this worker's accumulator for the (to, slot 0)
// stream — nil when the stream is new — and returns the new accumulator
// and the size of the logical message it folded in. That size must be
// what Options.PayloadSize gives for fold(nil)'s payload — the one the
// sender would otherwise have built and Sent — or combined and
// uncombined runs disagree on MessageBytes; a program that uses SendFold
// therefore owns its PayloadSize. The engine keeps the accumulator and
// accounts one send of that size, exactly as Send would have. Without a combiner (Options.NoCombine, the adaptive
// gate, or a program that declares none) fold(nil) is enqueued as a
// plain message and priced by PayloadSize. The combiner's Merge must
// accept what fold returns. Partition keying and the combine-plane
// bookkeeping are those of Send.
func (c *Context) SendFold(from, to VertexID, fold func(acc any) (any, int)) {
	if c.eng.comb == nil {
		pay, _ := fold(nil)
		c.Send(from, to, pay)
		return
	}
	entry := c.foldStream(c.eng.shardOf(to), 0, from, to)
	var size int
	entry.pay, size = fold(entry.pay)
	c.countFold(entry, size)
}

// foldStream returns this worker's accumulator entry for the (shard,
// destination, slot) stream of a send from `from`, starting an empty one
// (nil payload, no sends) on the stream's first send.
func (c *Context) foldStream(s, slot int, from, to VertexID) *accEntry {
	// Fold streams split by the sender's partition: each partition's
	// share of a stream is exactly the folded accumulator it would ship
	// as one wire record, so the accounting (and the distributed
	// exchange) falls out of the keying. At Partitions == 1 src stays 0.
	var src int32
	if opts := &c.eng.opts; opts.Partitions > 1 {
		src = int32(opts.PartitionOf(from))
	}
	a := &c.acc[s]
	k := accKey{to: to, slot: int32(slot), src: src}
	i := a.last
	if i < 0 || int(i) >= len(a.keys) || a.keys[i] != k {
		var ok bool
		if i, ok = a.idx[k]; !ok {
			if a.idx == nil {
				a.idx = make(map[accKey]int32)
			}
			i = int32(len(a.entries))
			a.idx[k] = i
			a.keys = append(a.keys, k)
			a.entries = append(a.entries, accEntry{from: from})
		}
	}
	a.last = i
	return &a.entries[i]
}

// countFold accounts one logical send of size bytes folded into entry:
// every send after a stream's first is one the inbox never holds.
func (c *Context) countFold(entry *accEntry, size int) {
	c.stats.Messages++
	c.stats.MessageBytes += int64(size)
	entry.count++
	if entry.count > 1 {
		c.stats.MessagesCombined++
		c.stats.InboxBytesSaved += msgBytes
	}
}

// SendAlong sends payload along every out-edge of v carrying label and
// returns the number of messages sent.
func (c *Context) SendAlong(v VertexID, label LabelID, payload any) int {
	edges := c.eng.g.EdgesWithLabel(v, label)
	for _, e := range edges {
		c.Send(v, e.To, payload)
	}
	return len(edges)
}

// AddInt accumulates into a named global integer aggregator; the merged
// value is readable by the master (Engine.AggInt) at the next barrier.
func (c *Context) AddInt(name string, delta int64) {
	c.aggs[name] += delta
}

// Emit contributes a value to the run's distributed output.
func (c *Context) Emit(v any) {
	c.emits = append(c.emits, v)
	if c.tagEmits {
		c.emitTags = append(c.emitTags, emitTag{step: int32(c.step), v: c.cur})
	}
}

// Fail aborts the run with err: the engine stops at the next barrier
// and Engine.RunErr reports the first failure (in worker order; in a
// distributed run, the globally agreed first). Compute keeps being
// called for the remainder of the current superstep — programs should
// return early once they have failed.
func (c *Context) Fail(err error) {
	if c.failErr == nil && err != nil {
		c.failErr = err
	}
}

// AddOps records n units of per-vertex computation for the cost measures.
func (c *Context) AddOps(n int) { c.ops += int64(n) }
