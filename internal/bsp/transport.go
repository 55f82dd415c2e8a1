package bsp

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the engine's communication seam: the Transport every
// Engine.Run goes through, and the wire format it carries. At
// Partitions > 1 the post-barrier shard merge does not just count
// cross-partition sends: it builds the actual wire records — already
// combined (one folded accumulator per fold stream) and already deduped
// (identical consecutive payloads from one sender fan out through a
// dest list instead of repeating) — seals them into one frame per
// ordered partition pair per superstep, accounts NetworkBytes/
// NetworkMessages from the sealed bytes, and hands the frames to a
// pluggable Transport.
//
// Two transports exist: Loopback (one process owns every partition —
// frames are costed and dropped, delivery stays in-process, and at
// Partitions == 1 there are no frames at all) and internal/dist's TCP
// transport (frames are written to sockets verbatim). Both sit behind
// the same superstep loop and the same build/seal/count path, so the
// simulated Stats.NetworkBytes and the measured bytes-on-wire are
// equal by construction, not by calibration.

// PayloadCodec encodes message payloads for the wire. The engine
// encodes every cross-partition payload (sim and real alike — the
// simulation prices the bytes a real wire would carry), so a codec must
// cover every payload type the running programs send, and every emitted
// type when the run is distributed. Append serializes pay onto dst;
// Decode reverses it, consuming the whole input.
type PayloadCodec interface {
	Append(dst []byte, pay any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// BasicCodec handles the engine's primitive payload vocabulary: nil,
// bool, int, int32, int64, float64, string, VertexID and []VertexID.
// It is the Options.Codec default; layers with richer payload types
// (internal/core) install their own registry on top.
type BasicCodec struct{}

const (
	bcNil = iota
	bcFalse
	bcTrue
	bcInt
	bcInt32
	bcInt64
	bcFloat64
	bcString
	bcVertex
	bcVertexSlice
)

// Append implements PayloadCodec.
func (BasicCodec) Append(dst []byte, pay any) ([]byte, error) {
	switch p := pay.(type) {
	case nil:
		return append(dst, bcNil), nil
	case bool:
		if p {
			return append(dst, bcTrue), nil
		}
		return append(dst, bcFalse), nil
	case int:
		return binary.AppendVarint(append(dst, bcInt), int64(p)), nil
	case int32:
		return binary.AppendVarint(append(dst, bcInt32), int64(p)), nil
	case int64:
		return binary.AppendVarint(append(dst, bcInt64), p), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, bcFloat64), math.Float64bits(p)), nil
	case string:
		dst = binary.AppendUvarint(append(dst, bcString), uint64(len(p)))
		return append(dst, p...), nil
	case VertexID:
		return binary.AppendVarint(append(dst, bcVertex), int64(p)), nil
	case []VertexID:
		dst = binary.AppendUvarint(append(dst, bcVertexSlice), uint64(len(p)))
		for _, v := range p {
			dst = binary.AppendVarint(dst, int64(v))
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("bsp: BasicCodec cannot encode %T", pay)
	}
}

// Decode implements PayloadCodec.
func (BasicCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("bsp: empty payload")
	}
	tag, rest := data[0], data[1:]
	switch tag {
	case bcNil:
		return nil, nil
	case bcFalse:
		return false, nil
	case bcTrue:
		return true, nil
	case bcInt:
		v, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("bsp: bad int payload")
		}
		return int(v), nil
	case bcInt32:
		v, n := binary.Varint(rest)
		if n <= 0 || v != int64(int32(v)) {
			return nil, fmt.Errorf("bsp: bad int32 payload")
		}
		return int32(v), nil
	case bcInt64:
		v, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("bsp: bad int64 payload")
		}
		return v, nil
	case bcFloat64:
		if len(rest) < 8 {
			return nil, fmt.Errorf("bsp: bad float64 payload")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(rest)), nil
	case bcString:
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			return nil, fmt.Errorf("bsp: bad string payload")
		}
		return string(rest[k : k+int(n)]), nil
	case bcVertex:
		v, n := binary.Varint(rest)
		if n <= 0 || v != int64(VertexID(v)) {
			return nil, fmt.Errorf("bsp: bad vertex payload")
		}
		return VertexID(v), nil
	case bcVertexSlice:
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > uint64(len(rest)) {
			return nil, fmt.Errorf("bsp: bad vertex slice payload")
		}
		rest = rest[k:]
		out := make([]VertexID, 0, n)
		for i := uint64(0); i < n; i++ {
			v, m := binary.Varint(rest)
			if m <= 0 || v != int64(VertexID(v)) {
				return nil, fmt.Errorf("bsp: bad vertex slice payload")
			}
			out = append(out, VertexID(v))
			rest = rest[m:]
		}
		return out, nil
	default:
		return nil, fmt.Errorf("bsp: unknown payload tag %d", tag)
	}
}

// Frame is one sealed block of wire records: everything partition Src
// sends partition Dst for one superstep, as a codec-framable payload
// (the 8-byte length+CRC header of internal/codec is added by the
// transport that actually writes it; the engine's byte accounting
// includes it either way).
type Frame struct {
	Src, Dst int
	Payload  []byte
}

// frameHeaderBytes is the length-prefix + CRC header internal/codec
// puts in front of every frame on a real connection. The simulated
// accounting charges it too, so loopback numbers match the wire.
const frameHeaderBytes = 8

// BarrierFrame is the per-superstep control exchange of a Run. Each
// node contributes its local view; the transport returns the global
// reduction (sums for Active and Stats, OR for Abort, first non-empty
// Fail in partition order), and the engine steers its loop by that
// alone. The Stats carry no Supersteps or ActiveVisits — every node
// derives those identically from the reduced Active count. Step -1 is
// the frame that opens a Run: just the initial Active and Abort.
type BarrierFrame struct {
	Step   int
	Active int64
	Abort  bool
	Fail   string
	Stats  Stats
}

// Transport is what an Engine.Run synchronizes through: once per Run
// StartRun and FinishRun, once per superstep Exchange (the sealed
// cross-partition frames) and Barrier (the loop-control reduction). On
// Loopback the engine owns every partition and each call hands its
// argument straight back; when Local() >= 0 the engine owns one
// partition of a multi-process run and the calls really meet the other
// nodes. All methods are called from the engine's Run goroutine.
type Transport interface {
	// Parts returns the partition count (== Options.Partitions).
	Parts() int
	// Local returns the partition this engine owns, or -1 when the
	// engine owns all partitions in-process (loopback simulation).
	Local() int
	// StartRun synchronizes the start of one Engine.Run across nodes.
	StartRun() error
	// Exchange delivers out (this node's sealed frames, one per remote
	// partition, empty frames included) and returns the frames the
	// remote partitions sealed for this node. Loopback receives every
	// ordered pair's frame and returns nothing: in-process delivery
	// already happened, the frames exist to be priced. The payloads in
	// out are engine-owned buffers, overwritten after the superstep's
	// Barrier returns; a transport that keeps one longer must copy it.
	Exchange(step int, out []Frame) ([]Frame, error)
	// Barrier reduces the nodes' local barrier frames to the global one.
	Barrier(bf BarrierFrame) (BarrierFrame, error)
	// FinishRun ends one Engine.Run, allgathering every node's encoded
	// emit stream (in partition order) so each node can reconstruct the
	// global emit order. Loopback is passed nil and returns nothing: its
	// engine's emits are already in that order.
	FinishRun(emits []byte) ([][]byte, error)
}

// ReduceBarrier folds the nodes' local barrier frames (in partition
// order) into the global frame every node applies: Active and Stats
// sum, Abort ORs, Fail keeps the first non-empty failure. Both
// the in-memory test transport and internal/dist's coordinator use
// this one reduction, so "globally agreed" means the same thing on
// every implementation.
func ReduceBarrier(bfs []BarrierFrame) BarrierFrame {
	var gb BarrierFrame
	for i, bf := range bfs {
		if i == 0 {
			gb.Step = bf.Step
		}
		gb.Active += bf.Active
		gb.Abort = gb.Abort || bf.Abort
		if gb.Fail == "" {
			gb.Fail = bf.Fail
		}
		gb.Stats.Add(bf.Stats)
	}
	return gb
}

// Loopback is the in-process Transport and the Options default: one
// engine owns all parts partitions — the cluster simulation of §8.6 at
// parts > 1, plain single-machine execution at 1 — on the same seam the
// real wire uses. Delivery stays in memory; the sealed frames are
// priced by the engine's shared accounting path and dropped here, and
// the barrier reduction is the identity.
func Loopback(parts int) Transport { return loopback{parts: parts} }

type loopback struct{ parts int }

func (l loopback) Parts() int                                  { return l.parts }
func (loopback) Local() int                                    { return -1 }
func (loopback) StartRun() error                               { return nil }
func (loopback) Exchange(int, []Frame) ([]Frame, error)        { return nil, nil }
func (loopback) Barrier(bf BarrierFrame) (BarrierFrame, error) { return bf, nil }
func (loopback) FinishRun([]byte) ([][]byte, error)            { return nil, nil }

// destRef is one fan-out target of a wire record: a destination vertex
// and the number of logical deliveries it receives (a sender that sends
// the same payload to the same vertex twice in a row crosses the wire
// once with count 2).
type destRef struct {
	to    VertexID
	count int32
}

// wireRecord is one deduped unit of cross-partition traffic: a sender,
// an encoded payload — the folded accumulator in a run with a combiner
// — and the destination vertices it fans out to on the receiving
// partition.
type wireRecord struct {
	from  VertexID
	enc   []byte
	dests []destRef
}

// pairStream accumulates one (src partition → dst partition) stream of
// wire records for the current superstep. Records are appended in the
// deterministic (worker, send) order of the sending partition — plain
// records during the shard merge, combined records at accumulator
// flush — so the stream a simulated partition builds is byte-for-byte
// the stream the same partition would build as a real node.
type pairStream struct {
	recs []wireRecord
	// sealed is the stream's frame buffer, reused every superstep (see
	// Transport.Exchange for how long a payload stays valid).
	sealed []byte
}

// add appends one send to the stream, merging into the previous record
// when sender and encoded payload both match — the run-length
// dedup that turns a fan-out (one payload, many destinations) into one
// record with a dest list. Only the immediately preceding record is a
// merge candidate, so delivery order on the receiving side is
// preserved exactly. A new record reuses the payload and dest storage
// its place in recs held in earlier supersteps.
func (ps *pairStream) add(from VertexID, enc []byte, to VertexID, count int32) {
	n := len(ps.recs)
	if n > 0 {
		last := &ps.recs[n-1]
		if last.from == from && string(last.enc) == string(enc) {
			if m := len(last.dests); m > 0 && last.dests[m-1].to == to {
				last.dests[m-1].count += count
			} else {
				last.dests = append(last.dests, destRef{to: to, count: count})
			}
			return
		}
	}
	if n < cap(ps.recs) {
		ps.recs = ps.recs[:n+1]
	} else {
		ps.recs = append(ps.recs, wireRecord{})
	}
	r := &ps.recs[n]
	r.from = from
	r.enc = append(r.enc[:0], enc...)
	r.dests = append(r.dests[:0], destRef{to: to, count: count})
}

func (ps *pairStream) reset() { ps.recs = ps.recs[:0] }

// retainedBytes is the storage the stream pools: record slots with their
// payload and dest buffers (one encoded accumulator can be large) and
// the frame buffer.
func (ps *pairStream) retainedBytes() int64 {
	n := int64(cap(ps.recs))*accBytes + int64(cap(ps.sealed))
	for _, r := range ps.recs[:cap(ps.recs)] {
		n += int64(cap(r.enc)) + int64(cap(r.dests))*8
	}
	return n
}

// frameKindRecords tags a sealed superstep frame; hostile or corrupt
// frames with any other leading byte are refused by decodeRecords. It
// names the record layout: 'R' was a layout whose records carried a
// combiner slot, so such a frame is refused rather than misparsed.
const frameKindRecords = 0x72 // 'r'

// sealRecords serializes one pair stream into a frame payload appended
// to buf: kind byte, superstep, record count, then each record as
// (from, payload length, payload, dest count, dests). An empty
// stream still seals to a (tiny) frame — synchronization frames cross
// the wire every superstep, so the accounting prices them every
// superstep.
func sealRecords(buf []byte, step int, recs []wireRecord) []byte {
	buf = append(buf, frameKindRecords)
	buf = binary.AppendUvarint(buf, uint64(step))
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		buf = binary.AppendUvarint(buf, uint64(r.from))
		buf = binary.AppendUvarint(buf, uint64(len(r.enc)))
		buf = append(buf, r.enc...)
		buf = binary.AppendUvarint(buf, uint64(len(r.dests)))
		for _, d := range r.dests {
			buf = binary.AppendUvarint(buf, uint64(d.to))
			buf = binary.AppendUvarint(buf, uint64(d.count))
		}
	}
	return buf
}

// FrameRecordCount returns the number of wire records a sealed frame
// payload carries, or -1 when the payload is not a records frame. A
// transport uses it to account shipped records (the Stats.
// NetworkMessages unit) without decoding payloads it only relays.
func FrameRecordCount(payload []byte) int64 {
	if len(payload) == 0 || payload[0] != frameKindRecords {
		return -1
	}
	rest := payload[1:]
	_, n := binary.Uvarint(rest) // step
	if n <= 0 {
		return -1
	}
	nrec, k := binary.Uvarint(rest[n:])
	if k <= 0 {
		return -1
	}
	return int64(nrec)
}

// decodeRecords parses a sealed frame payload, invoking fn once per
// (record, destination). Unless perDest is set, the payload is decoded
// once per record and shared across its fan-out, mirroring how an
// in-process fan-out shares one payload value. A combined run sets
// perDest: each destination's payload becomes that destination's
// accumulator, which later Merges change in place, so no two
// destinations may share one; a frame whose copies beyond the first
// would exceed fanOutBytes of payload is refused. A vertex or count
// that does not fit its int32 field is refused rather than narrowed
// onto another one.
func decodeRecords(payload []byte, wantStep int, codec PayloadCodec, perDest bool,
	fn func(from VertexID, pay any, to VertexID, count int32) error) error {
	if len(payload) == 0 || payload[0] != frameKindRecords {
		return fmt.Errorf("bsp: not a records frame")
	}
	rest := payload[1:]
	step, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("bsp: bad records frame step")
	}
	rest = rest[n:]
	if wantStep >= 0 && step != uint64(wantStep) {
		return fmt.Errorf("bsp: records frame for step %d, want %d", step, wantStep)
	}
	nrec, n := binary.Uvarint(rest)
	if n <= 0 || nrec > uint64(len(payload)) {
		return fmt.Errorf("bsp: bad records frame count")
	}
	rest = rest[n:]
	budget := fanOutBytes(len(payload))
	for i := uint64(0); i < nrec; i++ {
		from, encLen := uint64(0), uint64(0)
		if from, n = binary.Uvarint(rest); n <= 0 || from > math.MaxInt32 {
			return fmt.Errorf("bsp: bad record sender")
		}
		rest = rest[n:]
		if encLen, n = binary.Uvarint(rest); n <= 0 || encLen > uint64(len(rest)-n) {
			return fmt.Errorf("bsp: bad record payload length")
		}
		rest = rest[n:]
		enc := rest[:encLen]
		pay, err := codec.Decode(enc)
		if err != nil {
			return err
		}
		rest = rest[encLen:]
		ndest, n := binary.Uvarint(rest)
		if n <= 0 || ndest == 0 || ndest > uint64(len(rest)) {
			return fmt.Errorf("bsp: bad record dest count")
		}
		rest = rest[n:]
		if perDest {
			extra := (ndest - 1) * encLen
			if extra > budget {
				return fmt.Errorf("bsp: records frame of %d bytes fans out past %d payload bytes", len(payload), fanOutBytes(len(payload)))
			}
			budget -= extra
		}
		for j := uint64(0); j < ndest; j++ {
			to, n := binary.Uvarint(rest)
			if n <= 0 || to > math.MaxInt32 {
				return fmt.Errorf("bsp: bad record dest")
			}
			rest = rest[n:]
			count, n := binary.Uvarint(rest)
			if n <= 0 || count == 0 || count > math.MaxInt32 {
				return fmt.Errorf("bsp: bad record dest count")
			}
			rest = rest[n:]
			if perDest && j > 0 {
				if pay, err = codec.Decode(enc); err != nil {
					return err
				}
			}
			if err := fn(VertexID(from), pay, VertexID(to), int32(count)); err != nil {
				return err
			}
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("bsp: %d trailing bytes in records frame", len(rest))
	}
	return nil
}

// fanOutBytes bounds the payload bytes a combined run's decodeRecords
// decodes beyond one copy per record, for a frame of n bytes. Honest
// frames stay well inside it: over TPC-H at scale 10 on 2 and 3
// partitions the copies peak at 8 times the frame's length in large
// frames and 18 times in small ones.
func fanOutBytes(n int) uint64 { return 32*uint64(n) + 256<<10 }

// emitTag locates one emitted value in the global emit order: the
// superstep and vertex that emitted it. Values with equal tags came
// from one vertex's single Compute call and keep their relative order,
// so a stable sort of the allgathered stream by (step, vertex)
// reproduces the exact single-process emit order.
type emitTag struct {
	step int32
	v    VertexID
}

// appendEmits serializes a node's tagged emit stream for FinishRun.
func appendEmits(dst []byte, tags []emitTag, emits []any, codec PayloadCodec) ([]byte, error) {
	if len(tags) != len(emits) {
		return nil, fmt.Errorf("bsp: emit tag/value count mismatch (%d vs %d)", len(tags), len(emits))
	}
	dst = binary.AppendUvarint(dst, uint64(len(emits)))
	for i, e := range emits {
		dst = binary.AppendUvarint(dst, uint64(tags[i].step))
		dst = binary.AppendUvarint(dst, uint64(tags[i].v))
		enc, err := codec.Append(nil, e)
		if err != nil {
			return nil, fmt.Errorf("bsp: encoding emitted %T: %w", e, err)
		}
		dst = binary.AppendUvarint(dst, uint64(len(enc)))
		dst = append(dst, enc...)
	}
	return dst, nil
}

// decodeEmits parses one node's emit stream, appending to tags/emits.
// A step or vertex that does not fit its int32 field is refused.
func decodeEmits(data []byte, tags []emitTag, emits []any, codec PayloadCodec) ([]emitTag, []any, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("bsp: bad emit stream")
	}
	data = data[k:]
	for i := uint64(0); i < n; i++ {
		step, k := binary.Uvarint(data)
		if k <= 0 || step > math.MaxInt32 {
			return nil, nil, fmt.Errorf("bsp: bad emit step")
		}
		data = data[k:]
		v, k := binary.Uvarint(data)
		if k <= 0 || v > math.MaxInt32 {
			return nil, nil, fmt.Errorf("bsp: bad emit vertex")
		}
		data = data[k:]
		encLen, k := binary.Uvarint(data)
		if k <= 0 || encLen > uint64(len(data)-k) {
			return nil, nil, fmt.Errorf("bsp: bad emit payload length")
		}
		data = data[k:]
		pay, err := codec.Decode(data[:encLen])
		if err != nil {
			return nil, nil, err
		}
		data = data[encLen:]
		tags = append(tags, emitTag{step: int32(step), v: VertexID(v)})
		emits = append(emits, pay)
	}
	if len(data) != 0 {
		return nil, nil, fmt.Errorf("bsp: %d trailing bytes in emit stream", len(data))
	}
	return tags, emits, nil
}
