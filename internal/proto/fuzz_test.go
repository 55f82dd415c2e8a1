package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/serve"
)

// seedResult is a RESULT covering every relation.Value kind, NULLs in
// every column, and extreme values of each encoding.
func seedResult() *serve.Result {
	rel := relation.New("result", relation.MustSchema(
		relation.Col("i", relation.KindInt),
		relation.Col("f", relation.KindFloat),
		relation.Col("s", relation.KindString),
		relation.Col("b", relation.KindBool),
		relation.Col("d", relation.KindDate),
	))
	rel.MustAppend(relation.Int(math.MinInt64), relation.Float(math.Inf(-1)), relation.Str(""), relation.Bool(false), relation.Date(-719162))
	rel.MustAppend(relation.Int(math.MaxInt64), relation.Float(math.NaN()), relation.Str("héllo\x00"), relation.Bool(true), relation.DateOf(1998, 12, 1))
	rel.MustAppend(relation.Null, relation.Null, relation.Null, relation.Null, relation.Null)
	return &serve.Result{
		Rows:     rel,
		Epoch:    math.MaxUint64,
		Prepared: true,
		Elapsed:  1234 * time.Microsecond,
		Cost:     bsp.Stats{Messages: 77, Supersteps: 5},
		Info:     core.ExecInfo{Agg: core.AggGlobal, Acyclic: true},
	}
}

// encodeResult is appendResult's payload after the kind byte — the
// bytes decodeResult reads — for a result that decoded from the wire.
func encodeResult(t testing.TB, r *Result) []byte {
	t.Helper()
	agg := core.AggClass(-1)
	for v := uint64(0); v < 4; v++ {
		if aggName(v) == r.Agg {
			agg = core.AggClass(v)
		}
	}
	if agg < 0 {
		var v uint64
		if _, err := fmt.Sscanf(r.Agg, "agg(%d)", &v); err != nil {
			t.Fatalf("decoded aggregation class %q has no ordinal", r.Agg)
		}
		agg = core.AggClass(v)
	}
	b, err := appendResult(nil, &serve.Result{
		Rows: r.Rows, Epoch: r.Epoch, Prepared: r.Prepared, Elapsed: r.Elapsed,
		Cost: bsp.Stats{Messages: r.Messages, Supersteps: int64(r.Supersteps)},
		Info: core.ExecInfo{Agg: agg, Acyclic: r.Acyclic},
	}, r.Fingerprint)
	if err != nil {
		t.Fatalf("re-encode decoded result: %v", err)
	}
	return b[1:]
}

// FuzzDecodeResult: on any payload decodeResult never panics and never
// allocates more than a constant factor of the bytes it was given (a
// row or column count the payload cannot back is refused before any
// allocation sized by it). Every decoded result re-encodes to a
// canonical payload that decodes and re-encodes to itself, and the
// valid seed round-trips byte for byte.
func FuzzDecodeResult(f *testing.F) {
	seed, err := appendResult(nil, seedResult(), "SELECT i FROM t")
	if err != nil {
		f.Fatal(err)
	}
	seed = seed[1:]
	decoded, err := decodeResult(codec.NewDecoder(seed))
	if err != nil {
		f.Fatalf("seed does not decode: %v", err)
	}
	if got := encodeResult(f, decoded); !bytes.Equal(got, seed) {
		f.Fatalf("seed does not round-trip:\n got %x\nwant %x", got, seed)
	}
	for _, n := range []int{0, 1, 2, 10, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}
	f.Add(seed)

	// A wide schema whose row count the remaining payload backs one byte
	// per row, not one byte per cell: refused before the cell array.
	var wide []byte
	wide = binary.AppendUvarint(wide, 300)
	for i := 0; i < 300; i++ {
		wide = codec.AppendString(wide, fmt.Sprintf("c%d", i))
		wide = append(wide, byte(relation.KindNull))
	}
	wide = binary.AppendUvarint(wide, 1000)
	f.Add(append(wide, make([]byte, 1000)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := decodeResult(codec.NewDecoder(data))
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		canon := encodeResult(t, r)
		again, err := decodeResult(codec.NewDecoder(canon))
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if got := encodeResult(t, again); !bytes.Equal(got, canon) {
			t.Fatalf("re-encoding is not a fixpoint:\n got %x\nwant %x", got, canon)
		}
	})
}
