package dist

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bsp"
	"repro/internal/codec"
)

// decodeBarrier reads one barrier frame payload (the bytes after the
// kind byte) the way the coordinator and the workers do: the frame must
// fill the payload exactly.
func decodeBarrier(payload []byte) (bsp.BarrierFrame, error) {
	d := codec.NewDecoder(payload)
	bf, err := decodeBarrierFrame(d)
	if err == nil {
		err = d.Finish()
	}
	return bf, err
}

// FuzzDecodeBarrierFrame: every node of a distributed run decodes the
// barrier frames its peers send (workers' local frames on the
// coordinator, the reduced release frame on every worker). On any input
// the decoder does not panic, allocates no more than a constant factor
// of the bytes it was given, and whatever it accepts re-encodes to a
// canonical form that decodes to the same frame and re-encodes to
// itself.
func FuzzDecodeBarrierFrame(f *testing.F) {
	big := bsp.Stats{
		Supersteps: math.MaxInt32, Messages: math.MaxInt64, MessageBytes: 1 << 40,
		NetworkMessages: -1, NetworkBytes: 1 << 50, ComputeOps: math.MinInt64,
		ActiveVisits: 123456789, MessagesCombined: 1 << 33,
	}
	for _, bf := range []bsp.BarrierFrame{
		{Step: -1, Active: 4},
		{Step: 0, Active: 12, Stats: bsp.Stats{Messages: 30, MessageBytes: 240, ComputeOps: 42}},
		{Step: 3, Active: 0, Fail: "sql: division by zero"},
		{Step: 7, Active: 9, Abort: true},
		{Step: math.MaxInt32, Active: math.MaxInt64, Abort: true, Fail: "x", Stats: big},
	} {
		b := appendBarrierFrame(nil, bf)
		for _, n := range []int{0, 1, 2, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bf, err := decodeBarrier(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		canon := appendBarrierFrame(nil, bf)
		again, err := decodeBarrier(canon)
		if err != nil {
			t.Fatalf("canonical frame %x does not decode: %v", canon, err)
		}
		if again != bf {
			t.Fatalf("canonical frame decodes to %+v, want %+v", again, bf)
		}
		if re := appendBarrierFrame(nil, again); !bytes.Equal(re, canon) {
			t.Fatalf("re-encoding is not a fixpoint:\n got %x\nwant %x", re, canon)
		}
	})
}

// FuzzDecodeHandshake: the coordinator decodes every JOIN a fresh
// control connection sends, and a joining worker decodes its WELCOME
// and TOPOLOGY. Every input goes to all three decoders. On any input
// none panics or allocates more than a constant factor of the bytes it
// was given, and whatever one accepts re-encodes to a canonical form
// that decodes to the same frame and re-encodes to itself.
func FuzzDecodeHandshake(f *testing.F) {
	for _, b := range [][]byte{
		appendJoin(nil, "127.0.0.1:40000"),
		appendJoin(nil, ""),
		appendWelcome(nil, welcome{part: 1, parts: 4, db: "tpch", scale: 0.1, seed: 42, token: "00ff"}),
		appendWelcome(nil, welcome{part: 3, parts: 1 << 20, scale: math.Inf(1), seed: math.MinInt64}),
		appendTopology(nil, []string{":40000", "10.0.0.2:40001", "10.0.0.3:40002"}),
		appendTopology(nil, nil),
	} {
		for _, n := range []int{0, 1, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		addr, joinErr := decodeJoin(data)
		w, welcomeErr := decodeWelcome(data)
		addrs, topoErr := decodeTopology(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if joinErr == nil {
			roundTrip(t, addr, appendJoin, decodeJoin)
		}
		if welcomeErr == nil {
			roundTrip(t, w, appendWelcome, decodeWelcome)
		}
		if topoErr == nil {
			roundTrip(t, addrs, appendTopology, decodeTopology)
		}
	})
}

// roundTrip checks that v, which a decoder accepted, re-encodes to a
// canonical form that decodes to v and re-encodes to itself. Values
// compare by their printed form, so a NaN scale equals itself.
func roundTrip[T any](t *testing.T, v T, enc func([]byte, T) []byte, dec func([]byte) (T, error)) {
	t.Helper()
	canon := enc(nil, v)
	again, err := dec(canon)
	if err != nil {
		t.Fatalf("canonical frame %x does not decode: %v", canon, err)
	}
	if got, want := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", v); got != want {
		t.Fatalf("canonical frame decodes to %s, want %s", got, want)
	}
	if re := enc(nil, again); !bytes.Equal(re, canon) {
		t.Fatalf("re-encoding is not a fixpoint:\n got %x\nwant %x", re, canon)
	}
}

// FuzzDecodeControl: a worker decodes every QUERY the coordinator
// dispatches, the coordinator every QUERYDONE a worker reports (both
// one layout, decodeQueryFrame), a node's data port the PEER frame of
// whoever dials it, before any token is checked, and a worker the
// FINISHRUN release that hands it every partition's emit blob. Every
// input goes to every decoder, the release decoder at 1, 2 and 4
// partitions. On any input none panics or allocates more than a
// constant factor of the bytes it was given, a release whose blob count
// is not the partition count is refused, and whatever a decoder accepts
// re-encodes to a canonical form that decodes to the same frame and
// re-encodes to itself.
func FuzzDecodeControl(f *testing.F) {
	for _, b := range [][]byte{
		appendQueryFrame(nil, queryFrame{id: 1, text: "SELECT COUNT(*) FROM orders"}),
		appendQueryFrame(nil, queryFrame{id: math.MaxUint64}),
		appendQueryFrame(nil, queryFrame{id: 7, text: "sql: unknown table foo"}),
		appendPeerHello(nil, peerHello{token: "00ff00ff", from: 3}),
		appendPeerHello(nil, peerHello{from: math.MaxInt32}),
		appendFinishRelease(nil, [][]byte{{1, 2, 3}, {}}),
		appendFinishRelease(nil, [][]byte{{}, {0xff}, bytes.Repeat([]byte{7}, 200), {4}}),
	} {
		for _, n := range []int{0, 1, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, queryErr := decodeQueryFrame(data)
		p, peerErr := decodePeerHello(data)
		var blobs [3][][]byte
		var blobErrs [3]error
		for i, parts := range []int{1, 2, 4} {
			blobs[i], blobErrs[i] = decodeFinishRelease(data, parts)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if queryErr == nil {
			roundTrip(t, q, appendQueryFrame, decodeQueryFrame)
		}
		if peerErr == nil {
			roundTrip(t, p, appendPeerHello, decodePeerHello)
		}
		for i, parts := range []int{1, 2, 4} {
			if blobErrs[i] != nil {
				continue
			}
			if len(blobs[i]) != parts {
				t.Fatalf("release for %d partitions decoded %d blobs", parts, len(blobs[i]))
			}
			roundTrip(t, blobs[i], appendFinishRelease, func(b []byte) ([][]byte, error) {
				return decodeFinishRelease(b, parts)
			})
			if _, err := decodeFinishRelease(data, parts+1); err == nil {
				t.Fatalf("release of %d blobs accepted for %d partitions", parts, parts+1)
			}
		}
	})
}
