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
// it is a capped window of an array the engine reuses across supersteps,
// so a program that needs messages later must copy them (payload
// references may be kept — only the slice itself is reused).
type Program interface {
	Compute(ctx *Context, v VertexID, inbox []Message)
}

// MasterProgram is an optional extension: BeforeSuperstep runs at the
// barrier before each superstep (step counts from 0) and may halt the
// computation by returning false. This is where label-stack-driven
// programs (Algorithm 2) pop the next traversal step.
type MasterProgram interface {
	BeforeSuperstep(step int) bool
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
// vertex's inbox carries at most one Message per slot.
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
// Stats.MessagesCombined.
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

func (c *combinedProgram) BeforeSuperstep(step int) bool {
	if m, ok := c.prog.(MasterProgram); ok {
		return m.BeforeSuperstep(step)
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
	// Partitions hash-partitions the graph across N machines (see
	// PartitionOf): messages whose source and destination vertices live
	// on different partitions are built into wire records, sealed into
	// per-partition-pair frames and priced as network traffic. Defaults
	// to 1 (single machine). Whether those frames actually cross a socket
	// is the Transport's business — the accounting path is the same
	// either way.
	Partitions int
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
	// Profile collects message-plane profiling: the peak resident
	// inbox bytes observed at any barrier (Engine.PeakInboxBytes) and
	// the cumulative wall time of the communication stage
	// (Engine.MergeDuration). Off by default — it reads the clock and
	// sums every shard's plane footprint once per superstep.
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

// PartitionOf is the one partition function: vertex v lives on
// partition v mod parts, on the loopback simulation and on every node
// of a distributed run alike, so a partition count means the same
// thing on both paths.
func PartitionOf(v VertexID, parts int) int { return int(v) % parts }

// Stats accumulates the paper's cost measures over a run (§2 "Cost
// Measure"): total messages and computation, plus byte-level and
// cross-partition (network) accounting. Every field is a counter listed
// once, in Counters.
type Stats struct {
	Supersteps      int64
	Messages        int64 // logical sends — combining never changes this (the paper's M)
	MessageBytes    int64
	NetworkMessages int64 // messages crossing partition boundaries
	NetworkBytes    int64
	ComputeOps      int64
	ActiveVisits    int64 // total vertex activations over all supersteps

	// MessagesCombined counts logical sends folded into an existing
	// accumulator (zero when no Combiner ran). It is the only field that
	// may differ between a combined and an uncombined run of the same
	// program — compare Paper() for the rest.
	MessagesCombined int64
}

// Counters returns a pointer to every counter of s, in one fixed order:
// Add, Sub and the distributed stats frame walk this list, so a new
// counter is declared here and nowhere else.
func (s *Stats) Counters() [8]*int64 {
	return [...]*int64{&s.Supersteps, &s.Messages, &s.MessageBytes, &s.NetworkMessages,
		&s.NetworkBytes, &s.ComputeOps, &s.ActiveVisits, &s.MessagesCombined}
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	dst, src := s.Counters(), other.Counters()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// Sub returns s - other, the delta between two cumulative snapshots
// (e.g. one query's cost out of a session's running totals).
func (s Stats) Sub(other Stats) Stats {
	dst, src := s.Counters(), other.Counters()
	for i := range dst {
		*dst[i] -= *src[i]
	}
	return s
}

// InboxBytesSaved is the Message-slot bytes the folded sends never
// occupied: every fold saves one slot.
func (s Stats) InboxBytesSaved() int64 { return s.MessagesCombined * msgBytes }

// Paper returns the paper-facing cost measures only: the combine-plane
// bookkeeping is zeroed, so a combined run can be compared field by
// field against an uncombined one — everything else must match
// byte-for-byte.
func (s Stats) Paper() Stats {
	s.MessagesCombined = 0
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("supersteps=%d msgs=%d bytes=%d netMsgs=%d netBytes=%d ops=%d visits=%d combined=%d savedB=%d",
		s.Supersteps, s.Messages, s.MessageBytes, s.NetworkMessages, s.NetworkBytes, s.ComputeOps, s.ActiveVisits,
		s.MessagesCombined, s.InboxBytesSaved())
}

// Engine executes vertex programs over a frozen graph. An Engine may run
// several programs in sequence over the same graph (as TAG-join does for
// its reduction and collection phases); Stats accumulate across runs.
//
// Concurrency contract: an Engine holds per-run mutable state (inboxes,
// stats, emits), so a single Engine runs one program at a time.
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
// shard w. Each shard seals its deliveries into one flat inbox array
// sorted by destination, so an engine holds O(active) memory, not
// O(|V|), and contexts, outboxes, fold tables and the flat arrays are
// pooled across supersteps and Runs.
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

	emits []any

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
	// runErr is the first Context.Fail error of the current Run (the
	// globally agreed first, as reduced at the barrier); reset per Run.
	runErr error
	// distErr latches a transport failure: the engine is permanently
	// failed and every subsequent Run refuses immediately.
	distErr error
	// runs and mergeTmp are mergeKeys' scratch: the lists being merged
	// and the buffer its passes alternate with the active set.
	runs     [][]VertexID
	mergeTmp []VertexID

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
		localPart: opts.Transport.Local(),
	}
	if opts.Partitions > 1 {
		e.wireStreams = make([]pairStream, opts.Partitions*opts.Partitions)
	}
	for w := range e.ctxs {
		e.ctxs[w] = &Context{
			eng:    e,
			worker: w,
			out:    make([][]outMsg, opts.Workers),
			acc:    make([]ctxAcc, opts.Workers),
			pos:    make([]int, opts.Workers),
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
	return e.localPart < 0 || PartitionOf(v, e.opts.Partitions) == e.localPart
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
	if p := e.opts.Partitions; p > 1 {
		return PartitionOf(v, p) % n
	}
	return int(v) % n
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

// Emitted returns values emitted via Context.Emit during the last Run, in
// deterministic (worker-, then vertex-) order. The slice is valid until
// the next Run.
func (e *Engine) Emitted() []any { return e.emits }

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
					e.compute(prog, j.ctx, j.verts)
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
// count, abort, failure) comes out of the reduced barrier frame. On Loopback the reduction is the
// identity; on a multi-node transport it is what keeps the nodes in
// lockstep, so their Stats and Emitted() equal the loopback engine's.
func (e *Engine) Run(prog Program, initial []VertexID) Stats {
	if e.distErr != nil {
		// The transport failed earlier; the engine is permanently
		// degraded and refuses further runs (see RunErr).
		return Stats{}
	}
	before := e.stats
	e.runErr = nil
	e.emits = e.emits[:0]
	e.emitTags = e.emitTags[:0]

	// The graph may have grown since the engine was created (incremental
	// TAG maintenance adds vertices); the flat inboxes hold only the
	// vertices that received messages, so only re-freezing matters here.
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
		// Loop-break decisions read only the step and barrier-reduced
		// state, so every node breaks at the same superstep.
		if hasMaster && !master.BeforeSuperstep(step) {
			break
		}
		// gb.Abort is the cancellation point: breaking here is clean — the
		// previous superstep's merge fully drained every outbox, so the
		// cleanup below leaves the pooled planes consistent for the next
		// Run.
		if gb.Active == 0 || gb.Abort {
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
					e.compute(prog, ctx, active)
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
		bf := BarrierFrame{Step: step}
		if err := e.exchange(step, &bf.Stats); err != nil {
			e.distErr = err
			break
		}

		// Barrier: fold per-shard accounting and collect the next active
		// set from the sealed inboxes.
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
		}
		active = e.mergeKeys(active[:0])
		// Per-worker outputs, in deterministic worker order.
		for _, ctx := range e.ctxs {
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

		// Seam 3: reduce the local frame and adopt the global one.
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
		// Every node adopts the globally agreed first failure so the
		// run's outcome is identical everywhere.
		if gb.Fail != "" && (e.runErr == nil || e.runErr.Error() != gb.Fail) {
			e.runErr = errors.New(gb.Fail)
		}
		if e.runErr != nil {
			break
		}
	}

	e.trimPools()
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

// Context is the per-worker view handed to Compute. All methods are safe
// for the single goroutine that owns the context.
type Context struct {
	eng    *Engine
	worker int // index in [0, Engine.Workers())
	step   int
	cur    VertexID   // vertex currently computing (set by the dispatch loops)
	out    [][]outMsg // one outbox per destination merge shard
	acc    []ctxAcc   // one fold table per destination merge shard (combined plane)
	pos    []int      // per-shard inbox cursors of the chunk being computed
	stats  Stats      // send-time accounting of combined sends
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
// accounts one send of that size, exactly as Send would have. Without a
// combiner (Options.NoCombine, or a program that declares none) fold(nil)
// is enqueued as a plain message and priced by PayloadSize. The combiner's Merge must
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
	if p := c.eng.opts.Partitions; p > 1 {
		src = int32(PartitionOf(from, p))
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
