package bsp

import (
	"fmt"
	"slices"
)

// This file holds what only a node of a multi-node run (Transport.
// Local() >= 0) ever does: landing the other nodes' wire records in the
// local message plane, and ordering the allgathered emit streams. The
// superstep loop itself is Engine.Run, for every Transport; on Loopback
// these functions see no frames and no blobs.

// deliverFrames lands the frames the Transport returned in the local
// planes and seals every shard's inbox. Loopback sealed its shards in
// the merge and receives no frames.
func (e *Engine) deliverFrames(step int, in []Frame) error {
	if e.localPart < 0 {
		return nil
	}
	for i := range in {
		if err := decodeRecords(in[i].Payload, step, e.opts.Codec, e.comb != nil, e.deliverRemote); err != nil {
			return err
		}
	}
	for s := range e.shards {
		e.sealShard(&e.shards[s])
	}
	return nil
}

// deliverRemote lands one remote wire record in the local message
// plane. Every node of a run agrees on whether a combiner runs: with
// one, the record carries a folded accumulator and Merges into the
// pending fold table exactly as the loopback re-merge would; without,
// it stages plain inbox messages.
func (e *Engine) deliverRemote(from VertexID, pay any, to VertexID, count int32) error {
	if !e.owns(to) {
		return fmt.Errorf("bsp: remote record for vertex %d not owned by partition %d", to, e.localPart)
	}
	sh := &e.shards[e.shardOf(to)]
	if e.comb != nil {
		e.foldPend(sh, accKey{to: to, src: -1}, accEntry{from: from, count: count, pay: pay})
		return nil
	}
	for i := int32(0); i < count; i++ {
		sh.stage(to, Message{From: from, Count: 1, Payload: pay})
	}
	sh.remote = true
	return nil
}

// gatherEmits ends the run on the Transport. A node ships its tagged
// emit stream and reconstructs the global order from everyone's: a
// stable sort by (step, vertex) of the concatenated streams is exactly
// the order a single-process run emits in. Loopback already holds that
// order, so nothing is encoded and nothing comes back.
func (e *Engine) gatherEmits() {
	var blob []byte
	if e.localPart >= 0 {
		var err error
		if blob, err = appendEmits(nil, e.emitTags, e.emits, e.opts.Codec); err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			blob, _ = appendEmits(nil, nil, nil, e.opts.Codec)
		}
	}
	blobs, err := e.opts.Transport.FinishRun(blob)
	if err != nil {
		e.distErr = err
		return
	}
	if len(blobs) == 0 {
		return
	}
	e.emits = e.emits[:0]
	e.emitTags = e.emitTags[:0]
	for _, b := range blobs {
		if e.emitTags, e.emits, err = decodeEmits(b, e.emitTags, e.emits, e.opts.Codec); err != nil {
			if e.runErr == nil {
				e.runErr = err
			}
			break
		}
	}
	sortEmitsByTag(e.emitTags, e.emits)
}

// sortEmitsByTag stable-sorts the parallel tag/value slices by
// (step, vertex). Values with equal tags came from one vertex's single
// Compute call and keep their relative order.
func sortEmitsByTag(tags []emitTag, emits []any) {
	type tagged struct {
		tag emitTag
		val any
	}
	tv := make([]tagged, len(tags))
	for i := range tags {
		tv[i] = tagged{tag: tags[i], val: emits[i]}
	}
	slices.SortStableFunc(tv, func(a, b tagged) int {
		if a.tag.step != b.tag.step {
			return int(a.tag.step) - int(b.tag.step)
		}
		return int(a.tag.v) - int(b.tag.v)
	})
	for i := range tv {
		tags[i] = tv[i].tag
		emits[i] = tv[i].val
	}
}
