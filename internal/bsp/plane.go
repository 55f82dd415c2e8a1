package bsp

import (
	"math/bits"
	"slices"
)

// This file is the message plane: outboxes and fold tables in, one flat
// inbox per merge shard out, sorted by destination and read by position.

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
// only goroutine that touches the shard's staging, inbox, fold table
// and stats, so the parallel merge needs no locks.
type mergeShard struct {
	// stageTo and stageMsg hold this superstep's deliveries in delivery
	// order: plain sends in (worker, send) order, then the fold streams.
	stageTo  []VertexID
	stageMsg []Message
	// order is the sort scratch: key<<32 | staging index, so one sort of
	// uint64s is a stable sort of the staged deliveries.
	order []uint64
	// keys, offs and msgs are the inbox sealed at the last barrier: keys
	// ascend, and vertex keys[i] received msgs[offs[i]:offs[i+1]].
	keys []VertexID
	offs []int32
	msgs []Message
	// remote: another node's plain records were staged (nodes only).
	remote bool
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

// maxPooledBytes bounds the message-plane storage a Run leaves pooled
// per engine (split evenly across shards). Within a run the pool is
// unbounded (steady-state supersteps must not allocate); at the end of
// a run anything beyond the budget returns to the GC with the frontier
// that needed it, so a session that just ran a huge query does not
// stay huge while idle.
const maxPooledBytes = 32 << 10

// stage appends one delivery to the shard's staging slices.
func (sh *mergeShard) stage(to VertexID, m Message) {
	sh.stageTo = append(sh.stageTo, to)
	sh.stageMsg = append(sh.stageMsg, m)
}

// release drops the consumed inbox and anything staged, keeping storage.
func (sh *mergeShard) release() {
	clear(sh.msgs)
	clear(sh.stageMsg)
	sh.keys, sh.offs, sh.msgs = sh.keys[:0], sh.offs[:0], sh.msgs[:0]
	sh.stageTo, sh.stageMsg = sh.stageTo[:0], sh.stageMsg[:0]
}

// sortStage returns the staging indexes stably sorted by destination, or
// by sender when byFrom is set, packed under their key: the keys are
// distinct, so one plain sort of them is a stable sort of the staging.
func (sh *mergeShard) sortStage(byFrom bool) []uint64 {
	sh.order = slices.Grow(sh.order[:0], len(sh.stageTo))
	for i, to := range sh.stageTo {
		if byFrom {
			to = sh.stageMsg[i].From
		}
		sh.order = append(sh.order, uint64(to)<<32|uint64(i))
	}
	slices.Sort(sh.order)
	return sh.order
}

// sortStageByFrom stably reorders a node's staged plain deliveries by
// sender: the local ones already ascend, each remote frame's follow, and
// ties never mix the two (a sender lives on one partition), so this is
// the order a single process stages. The consumed inbox is the scratch.
func (sh *mergeShard) sortStageByFrom() {
	keys, msgs := sh.keys[:0], sh.msgs[:0]
	for _, o := range sh.sortStage(true) {
		keys = append(keys, sh.stageTo[uint32(o)])
		msgs = append(msgs, sh.stageMsg[uint32(o)])
	}
	clear(sh.stageMsg)
	sh.keys, sh.stageTo = sh.stageTo[:0], keys
	sh.msgs, sh.stageMsg = sh.stageMsg[:0], msgs
	sh.remote = false
}

// seal sorts the staging stably by destination and gathers it into the
// flat inbox, so every vertex's messages stay in delivery order.
func (sh *mergeShard) seal() {
	sh.msgs = slices.Grow(sh.msgs, len(sh.stageMsg))
	for _, o := range sh.sortStage(false) {
		if to := VertexID(o >> 32); len(sh.keys) == 0 || sh.keys[len(sh.keys)-1] != to {
			sh.keys = append(sh.keys, to)
			sh.offs = append(sh.offs, int32(len(sh.msgs)))
		}
		sh.msgs = append(sh.msgs, sh.stageMsg[uint32(o)])
	}
	sh.offs = append(sh.offs, int32(len(sh.msgs)))
	clear(sh.stageMsg)
	sh.stageTo, sh.stageMsg = sh.stageTo[:0], sh.stageMsg[:0]
}

// planeBytes is the shard's retained staging, sort and inbox storage.
func (sh *mergeShard) planeBytes() int64 {
	return int64(cap(sh.stageTo)+cap(sh.keys)+cap(sh.offs))*4 +
		int64(cap(sh.order))*8 + int64(cap(sh.stageMsg)+cap(sh.msgs))*msgBytes
}

// InboxBytes estimates the resident memory of the message plane: every
// shard's inbox, staging and sort arrays, live or pooled. Compare with
// DenseInboxBytes, the O(|V|) plane this replaced.
func (e *Engine) InboxBytes() int64 {
	var total int64
	for s := range e.shards {
		total += e.shards[s].planeBytes()
	}
	return total
}

// DenseInboxBytes returns what the pre-sharding dense message plane
// held resident for a graph of n vertices: two arrays of O(|V|) slice
// headers per engine, regardless of how many vertices were active.
func DenseInboxBytes(n int) int64 { return int64(n) * 48 }

// compute runs prog over one ascending chunk of the active set: one
// binary search per shard places a cursor, and each vertex's inbox is at
// its shard's cursor. The inbox is capped, so appending to it copies.
func (e *Engine) compute(prog Program, ctx *Context, verts []VertexID) {
	if len(verts) == 0 {
		return
	}
	for s := range e.shards {
		ctx.pos[s], _ = slices.BinarySearch(e.shards[s].keys, verts[0])
	}
	for _, v := range verts {
		s := e.shardOf(v)
		sh := &e.shards[s]
		var inbox []Message
		if c := ctx.pos[s]; c < len(sh.keys) && sh.keys[c] == v {
			lo, hi := sh.offs[c], sh.offs[c+1]
			inbox = sh.msgs[lo:hi:hi]
			ctx.pos[s] = c + 1
		}
		ctx.cur = v
		prog.Compute(ctx, v, inbox)
	}
}

// mergeKeys returns the next active set in dst's storage: the merge of
// the shards' ascending, disjoint inbox keys, two lists at a time, so
// k shards cost ceil(log2 k) linear passes and the last pass writes dst.
func (e *Engine) mergeKeys(dst []VertexID) []VertexID {
	runs, n := e.runs[:0], 0
	for s := range e.shards {
		if k := e.shards[s].keys; len(k) > 0 {
			runs, n = append(runs, k), n+len(k)
		}
	}
	passes := bits.Len(uint(max(len(runs)-1, 1)))
	if passes > 1 {
		e.mergeTmp = slices.Grow(e.mergeTmp[:0], n)[:n]
	}
	bufs := [2][]VertexID{slices.Grow(dst[:0], n)[:n], e.mergeTmp}
	for ; passes > 0; passes-- {
		out, o, next := bufs[(passes-1)%2], 0, runs[:0]
		for i := 0; i < len(runs); i += 2 {
			var b []VertexID // an odd list out is copied through
			if i+1 < len(runs) {
				b = runs[i+1]
			}
			m := mergeTwo(out[o:], runs[i], b)
			next, o = append(next, out[o:o+m]), o+m
		}
		runs = next
	}
	clear(runs[:cap(runs)])
	e.runs = runs[:0]
	return bufs[0]
}

// mergeTwo writes the merge of ascending a and b to out and returns its
// length.
func mergeTwo(out, a, b []VertexID) int {
	o := 0
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out[o], a = a[0], a[1:]
		} else {
			out[o], b = b[0], b[1:]
		}
		o++
	}
	o += copy(out[o:], a)
	return o + copy(out[o:], b)
}

// mergeShard runs the communication stage for one shard: drop the inbox
// this shard's vertices consumed during the superstep, then stage every
// worker's outbox slice for this shard, in worker order. At Partitions
// > 1 every cross-partition send is also encoded into its (src, dst)
// pair stream — consecutive identical payloads from one sender dedup
// into a single record that fans out on the receiving side, as BSP
// engines' per-machine message combiners do: the payload crosses the
// interconnect once.
func (e *Engine) mergeShard(s int) {
	sh := &e.shards[s]
	sh.release()
	n := 0
	for _, ctx := range e.ctxs {
		n += len(ctx.out[s]) + len(ctx.acc[s].keys)
	}
	sh.stageTo, sh.stageMsg = slices.Grow(sh.stageTo, n), slices.Grow(sh.stageMsg, n)
	partitions := e.opts.Partitions
	for _, ctx := range e.ctxs {
		msgs := ctx.out[s]
		for i := range msgs {
			m := &msgs[i]
			sh.stats.Messages++
			sh.stats.MessageBytes += int64(e.opts.PayloadSize(m.payload))
			deliver := true
			if partitions > 1 {
				srcP, dstP := PartitionOf(m.from, partitions), PartitionOf(m.to, partitions)
				if srcP != dstP {
					e.record(sh, srcP, dstP, m.from, -1, m.payload, m.to, 1)
				}
				// A node delivers only its own partition's messages
				// locally; the rest exist as wire records.
				deliver = e.localPart < 0 || dstP == e.localPart
			}
			if deliver {
				sh.stage(m.to, Message{From: m.from, Count: 1, Payload: m.payload})
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
	}
	// Loopback has every source partition's messages in hand. A node
	// seals after the exchange instead (deliverFrames), once the other
	// nodes' records have landed.
	if e.localPart < 0 {
		e.sealShard(sh)
	}
}

// sealShard ends a shard's communication stage: the fold streams are
// staged after the plain deliveries, and the staging becomes the inbox.
func (e *Engine) sealShard(sh *mergeShard) {
	if sh.remote {
		sh.sortStageByFrom()
	}
	if e.comb != nil {
		e.flushPend(sh)
	}
	sh.seal()
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
		for i, k := range a.keys {
			e.foldPend(sh, k, a.entries[i])
			a.entries[i] = accEntry{} // release payload references
		}
		a.keys = a.keys[:0]
		a.entries = a.entries[:0]
		a.last = -1
		if len(a.idx) > 0 {
			clear(a.idx)
		}
	}
}

// foldPend Merges one share of a fold stream into the shard's pending
// entry for k, or starts that entry. The merged entry keeps the lowest
// sender, which is also the first in (worker, send) order.
func (e *Engine) foldPend(sh *mergeShard, k accKey, p accEntry) {
	if j, ok := sh.accIdx[k]; ok {
		tgt := &sh.pend[j]
		tgt.pay = e.comb.Merge(tgt.pay, p.pay)
		tgt.count += p.count
		tgt.from = min(tgt.from, p.from)
		sh.stats.MessagesCombined++
		return
	}
	if sh.accIdx == nil {
		sh.accIdx = make(map[accKey]int32)
	}
	sh.accIdx[k] = int32(len(sh.pend))
	sh.pend = append(sh.pend, p)
	sh.pendKeys = append(sh.pendKeys, k)
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
// (deliverRemote), so the fold trees agree. The compacted table is
// rebuilt in place: entry i is read before any write reaches index i.
func (e *Engine) recordPend(sh *mergeShard) {
	if len(sh.accIdx) > 0 {
		clear(sh.accIdx)
	}
	pend, keys := sh.pend, sh.pendKeys
	sh.pend, sh.pendKeys = pend[:0], keys[:0]
	for i, k := range keys {
		p := pend[i]
		pend[i] = accEntry{}
		if dstP := PartitionOf(k.to, e.opts.Partitions); int(k.src) != dstP {
			e.record(sh, int(k.src), dstP, p.from, k.slot, p.pay, k.to, p.count)
		}
		if e.owns(k.to) {
			k.src = -1
			e.foldPend(sh, k, p)
		}
	}
}

// flushPend stages the surviving fold streams, one Message each, in
// first-seen order. They follow every plain (slot < 0) delivery in the
// staging, so combined messages land after the plain ones for the same
// destination.
func (e *Engine) flushPend(sh *mergeShard) {
	for i := range sh.pend {
		p := &sh.pend[i]
		sh.stage(sh.pendKeys[i].to, Message{From: p.from, Count: p.count, Payload: p.pay})
		*p = accEntry{}
	}
	sh.pend = sh.pend[:0]
	sh.pendKeys = sh.pendKeys[:0]
	if len(sh.accIdx) > 0 {
		clear(sh.accIdx)
	}
}

// trimPools ends a Run: undelivered messages are dropped, and every
// pooled structure keeps its storage only while it fits its shard's
// share of maxPooledBytes, so a warm steady-state run keeps everything.
func (e *Engine) trimPools() {
	budget := int64(maxPooledBytes / len(e.shards))
	for s := range e.shards {
		sh := &e.shards[s]
		sh.release()
		if sh.planeBytes() > budget {
			sh.stageTo, sh.stageMsg, sh.order = nil, nil, nil
			sh.keys, sh.offs, sh.msgs = nil, nil, nil
		}
		if int64(cap(sh.pendKeys))*accBytes > budget {
			sh.accIdx, sh.pend, sh.pendKeys = nil, nil, nil
		}
	}
	for _, ctx := range e.ctxs {
		for s := range ctx.acc {
			ctx.acc[s].trim(budget)
		}
	}
	if int64(cap(e.mergeTmp))*4 > maxPooledBytes {
		e.mergeTmp = nil
	}
	for i := range e.wireStreams {
		if ps := &e.wireStreams[i]; ps.retainedBytes() > budget {
			ps.recs, ps.sealed = nil, nil
		}
	}
}
