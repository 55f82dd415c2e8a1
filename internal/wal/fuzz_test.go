package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/relation"
)

// FuzzDecodePayload: boot feeds decodePayload bytes from disk that this
// process did not write. On any payload it never panics and never
// allocates more than a constant factor of the bytes it was given (a
// count the payload cannot back is refused before anything is sized by
// it), and every record it accepts re-encodes through encodePayload to
// a canonical payload that decodes and re-encodes to itself.
func FuzzDecodePayload(f *testing.F) {
	for _, rec := range sampleRecords() {
		b, err := encodePayload(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
		f.Add(b)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.log"))
	if err != nil {
		f.Fatal(err)
	}
	for br := bufio.NewReader(bytes.NewReader(golden)); ; {
		payload, _, err := codec.ReadFrame(br)
		if err != nil {
			break
		}
		f.Add(payload)
	}

	// Counts the payload backs one byte per element, at every level: many
	// empty ops, many empty rows, one wide row of NULLs, many delete ids.
	// Each decodes, and each is the worst in-memory/on-disk ratio its
	// level has.
	const n = 1 << 14
	many := func(prefix []byte, count int, elem []byte, suffix []byte) []byte {
		b := binary.AppendUvarint(append([]byte(nil), prefix...), uint64(count))
		b = append(b, bytes.Repeat(elem, count)...)
		return append(b, suffix...)
	}
	op := func(nins []byte) []byte { return append([]byte{0}, nins...) }                               // empty table name
	f.Add(many([]byte{1}, n, []byte{0, 0, 0}, nil))                                                    // n empty ops
	f.Add(many(append([]byte{1, 1}, op(nil)...), n, []byte{0}, []byte{0}))                             // one op, n empty rows
	f.Add(many(append([]byte{1, 1}, op([]byte{1})...), n, []byte{byte(relation.KindNull)}, []byte{0})) // one row of n NULLs
	f.Add(many(append([]byte{1, 1}, op([]byte{0})...), n, []byte{0}, nil))                             // n delete ids
	// The same counts, each one more than the payload holds.
	f.Add(many([]byte{1}, n+1, []byte{0, 0, 0}, nil))
	f.Add(many(append([]byte{1, 1}, op([]byte{1})...), n+1, []byte{byte(relation.KindNull)}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodePayload(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		canon, err := encodePayload(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		again, err := decodePayload(canon)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		got, err := encodePayload(nil, again)
		if err != nil {
			t.Fatalf("re-decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(got, canon) {
			t.Fatalf("re-encoding is not a fixpoint:\n got %x\nwant %x", got, canon)
		}
	})
}
