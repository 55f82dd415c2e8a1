package bsp

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

// recordsFrame hand-builds a one-record, one-destination records frame
// whose sender and destination are raw uvarints, so values no encoder
// would write can be put on the wire.
func recordsFrame(from, to uint64) []byte {
	b := []byte{frameKindRecords}
	b = binary.AppendUvarint(b, 0) // step
	b = binary.AppendUvarint(b, 1) // records
	b = binary.AppendUvarint(b, from)
	enc, _ := BasicCodec{}.Append(nil, int64(7))
	b = binary.AppendUvarint(b, uint64(len(enc)))
	b = append(b, enc...)
	b = binary.AppendUvarint(b, 1) // dests
	b = binary.AppendUvarint(b, to)
	return binary.AppendUvarint(b, 1) // count
}

// emitStream hand-builds a one-value emit stream with a raw step and
// vertex.
func emitStream(step, v uint64) []byte {
	b := binary.AppendUvarint(nil, 1)
	b = binary.AppendUvarint(b, step)
	b = binary.AppendUvarint(b, v)
	enc, _ := BasicCodec{}.Append(nil, int64(7))
	b = binary.AppendUvarint(b, uint64(len(enc)))
	return append(b, enc...)
}

// TestDecodersRefuseNarrowing: a vertex id or superstep on the wire
// that does not fit its int32 field is refused, not truncated onto a
// different value: destination 2^32+5 is not vertex 5, and emit step
// 2^32+1 does not sort as step 1. The same frames with the values in
// range decode.
func TestDecodersRefuseNarrowing(t *testing.T) {
	const big = 1 << 32
	deliver := func(payload []byte) (delivered []VertexID, err error) {
		err = decodeRecords(payload, 0, BasicCodec{}, false, func(_ VertexID, _ any, to VertexID, _ int32) error {
			delivered = append(delivered, to)
			return nil
		})
		return delivered, err
	}
	if got, err := deliver(recordsFrame(1, 5)); err != nil || len(got) != 1 || got[0] != 5 {
		t.Fatalf("in-range frame: delivered %v, err %v", got, err)
	}
	for _, tc := range []struct {
		name     string
		from, to uint64
	}{
		{"dest 2^32+5", 1, big + 5},
		{"dest 2^31", 1, math.MaxInt32 + 1},
		{"sender 2^32+1", big + 1, 5},
	} {
		if got, err := deliver(recordsFrame(tc.from, tc.to)); err == nil || len(got) != 0 {
			t.Errorf("%s: delivered %v, err %v; want refused", tc.name, got, err)
		}
	}

	if tags, _, err := decodeEmits(emitStream(1, 9), nil, nil, BasicCodec{}); err != nil || tags[0] != (emitTag{step: 1, v: 9}) {
		t.Fatalf("in-range emit stream: tags %v, err %v", tags, err)
	}
	for _, tc := range []struct {
		name    string
		step, v uint64
	}{
		{"step 2^32+1", big + 1, 9},
		{"vertex 2^32+9", 1, big + 9},
	} {
		if tags, _, err := decodeEmits(emitStream(tc.step, tc.v), nil, nil, BasicCodec{}); err == nil {
			t.Errorf("%s: decoded %v; want refused", tc.name, tags)
		}
	}

	for _, pay := range [][]byte{
		binary.AppendVarint([]byte{bcInt32}, big+1),
		binary.AppendVarint([]byte{bcVertex}, -big),
		binary.AppendVarint([]byte{bcVertexSlice, 1}, big+2),
	} {
		if v, err := (BasicCodec{}).Decode(pay); err == nil {
			t.Errorf("payload %x decoded as %v; want refused", pay, v)
		}
	}
}

// fanOutFrame seals a frame whose first record fans a string payload
// of payLen bytes out to dests destinations, padded by a one-destination
// record to about frameLen bytes.
func fanOutFrame(payLen, dests, frameLen int) []byte {
	enc, _ := BasicCodec{}.Append(nil, strings.Repeat("x", payLen))
	fan := wireRecord{from: 1, enc: enc}
	for i := range dests {
		fan.dests = append(fan.dests, destRef{to: VertexID(100 + i), count: 1})
	}
	b := sealRecords(nil, 0, []wireRecord{fan})
	if pad := frameLen - len(b) - 16; pad > 0 {
		enc, _ := BasicCodec{}.Append(nil, strings.Repeat("y", pad))
		b = sealRecords(nil, 0, []wireRecord{fan, {from: 2, enc: enc, dests: []destRef{{to: 3, count: 1}}}})
	}
	return b
}

// TestPerDestFanOutBound: a combined run decodes a record's payload once
// per destination, so a small frame fanning a large payload out widely
// would decode into many times its size. Such a frame (a 4 KB string
// to 2,000 destinations in under 10 KB, which decoded into 8 MB) is
// refused in per-destination mode, and still decodes once in shared
// mode; frames shaped like the heaviest honest ones (TPC-H scale 10 on
// 2 and 3 partitions) decode in both.
func TestPerDestFanOutBound(t *testing.T) {
	decode := func(frame []byte, perDest bool) error {
		return decodeRecords(frame, 0, BasicCodec{}, perDest, func(VertexID, any, VertexID, int32) error { return nil })
	}
	hostile := fanOutFrame(4096, 2000, 0)
	if err := decode(hostile, true); err == nil {
		t.Errorf("per-destination decode accepted a %d-byte frame fanning 4 KB out to 2,000 destinations", len(hostile))
	}
	if err := decode(hostile, false); err != nil {
		t.Errorf("shared decode refused it: %v", err)
	}
	for _, h := range []struct{ extra, frameLen, payLen int }{
		{587671, 73550, 3626}, // the most bytes fanned out
		{16678, 934, 100},     // the most fanned out per frame byte
	} {
		frame := fanOutFrame(h.payLen, h.extra/h.payLen+2, h.frameLen)
		if len(frame) > h.frameLen {
			t.Fatalf("built a %d-byte frame, want at most %d", len(frame), h.frameLen)
		}
		for _, perDest := range []bool{false, true} {
			if err := decode(frame, perDest); err != nil {
				t.Errorf("%d bytes fanned out of a %d-byte frame (perDest %v): %v", h.extra, len(frame), perDest, err)
			}
		}
	}
}

// delivery is one fn call of decodeRecords.
type delivery struct {
	from  VertexID
	pay   any
	to    VertexID
	count int32
}

// canonicalRecords re-seals what decodeRecords delivered from payload:
// consecutive deliveries with one sender and re-encoded payload become
// one record's destination list.
func canonicalRecords(payload []byte) ([]byte, error) {
	var ds []delivery
	err := decodeRecords(payload, -1, BasicCodec{}, false, func(from VertexID, pay any, to VertexID, count int32) error {
		ds = append(ds, delivery{from, pay, to, count})
		return nil
	})
	if err != nil {
		return nil, err
	}
	step, _ := binary.Uvarint(payload[1:])
	var recs []wireRecord
	for _, d := range ds {
		enc, err := BasicCodec{}.Append(nil, d.pay)
		if err != nil {
			return nil, err
		}
		if n := len(recs); n > 0 && recs[n-1].from == d.from && bytes.Equal(recs[n-1].enc, enc) {
			recs[n-1].dests = append(recs[n-1].dests, destRef{to: d.to, count: d.count})
			continue
		}
		recs = append(recs, wireRecord{from: d.from, enc: enc, dests: []destRef{{to: d.to, count: d.count}}})
	}
	return sealRecords(nil, int(step), recs), nil
}

// canonicalEmits re-encodes what decodeEmits read from data.
func canonicalEmits(data []byte) ([]byte, error) {
	tags, emits, err := decodeEmits(data, nil, nil, BasicCodec{})
	if err != nil {
		return nil, err
	}
	return appendEmits(nil, tags, emits, BasicCodec{})
}

// FuzzDecodeRecords: a distributed node feeds decodeRecords the frames
// and decodeEmits the emit streams its peers send. Every input goes to
// both, and to decodeRecords in both modes. On any input none panics,
// the shared decodes allocate at most a constant factor of the bytes
// they were given, and the per-destination decode at most that factor
// of the bytes plus the fanOutBytes it may decode beyond them. A frame
// the per-destination decode accepts is accepted shared too, and
// whatever a decoder accepts re-encodes to a canonical form that
// decodes and re-encodes to itself.
func FuzzDecodeRecords(f *testing.F) {
	payloads := []any{int64(-3), "ping", []VertexID{1, 2, 40000}, nil, true, 2.5, VertexID(12)}
	encs := make([][]byte, len(payloads))
	for i, p := range payloads {
		encs[i], _ = BasicCodec{}.Append(nil, p)
	}
	fanOut := wireRecord{from: 3, enc: encs[1], dests: []destRef{{to: 4, count: 1}, {to: 9, count: 2}, {to: 70000, count: 1}}}
	counted := wireRecord{from: 5, enc: encs[0], dests: []destRef{{to: 6, count: 3}}}
	var seeds [][]byte
	seeds = append(seeds,
		sealRecords(nil, 0, nil),
		sealRecords(nil, 7, []wireRecord{fanOut}),
		sealRecords(nil, 2, []wireRecord{counted, fanOut, {from: 1, enc: encs[2], dests: []destRef{{to: 0, count: 1}}}}),
	)
	for _, blob := range [][]any{nil, payloads} {
		tags := make([]emitTag, len(blob))
		for i := range tags {
			tags[i] = emitTag{step: int32(i / 2), v: VertexID(100 * i)}
		}
		b, err := appendEmits(nil, tags, blob, BasicCodec{})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, b := range seeds {
		for _, n := range []int{0, 1, 2, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
		f.Add(b)
	}
	f.Add(fanOutFrame(64, 300, 0))
	f.Add(fanOutFrame(4096, 2000, 0))
	f.Add(recordsFrame(1, 1<<32+5))
	f.Add(emitStream(1<<32+1, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		errR := decodeRecords(data, -1, BasicCodec{}, false, func(VertexID, any, VertexID, int32) error { return nil })
		_, _, errE := decodeEmits(data, nil, nil, BasicCodec{})
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		runtime.ReadMemStats(&before)
		errP := decodeRecords(data, -1, BasicCodec{}, true, func(VertexID, any, VertexID, int32) error { return nil })
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*(uint64(len(data))+fanOutBytes(len(data)))+1<<20 {
			t.Fatalf("decoding %d bytes per destination allocated %d", len(data), d)
		}
		if errP == nil && errR != nil {
			t.Fatalf("per-destination decode accepted a frame shared decode refuses: %v", errR)
		}
		for _, c := range []struct {
			name      string
			accepted  bool
			canonical func([]byte) ([]byte, error)
		}{
			{"records frame", errR == nil, canonicalRecords},
			{"emit stream", errE == nil, canonicalEmits},
		} {
			if !c.accepted {
				continue
			}
			canon, err := c.canonical(data)
			if err != nil {
				t.Fatalf("accepted %s does not re-encode: %v", c.name, err)
			}
			again, err := c.canonical(canon)
			if err != nil {
				t.Fatalf("canonical %s does not decode: %v", c.name, err)
			}
			if !bytes.Equal(again, canon) {
				t.Fatalf("%s re-encoding is not a fixpoint:\n got %x\nwant %x", c.name, again, canon)
			}
		}
	})
}
