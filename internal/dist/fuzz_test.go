package dist

import (
	"bytes"
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
