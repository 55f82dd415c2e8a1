package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// TestFrameRoundTrip: WriteFrame and FinishFrame produce identical
// bytes, and ReadFrame returns the payload with the exact frame size.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")

	var streamed bytes.Buffer
	if err := WriteFrame(&streamed, payload); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, HeaderSize, HeaderSize+len(payload))
	buf = append(buf, payload...)
	if err := FinishFrame(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), buf) {
		t.Fatalf("WriteFrame and FinishFrame disagree:\n %x\n %x", streamed.Bytes(), buf)
	}

	got, n, err := ReadFrame(bufio.NewReader(&streamed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || n != int64(HeaderSize+len(payload)) {
		t.Fatalf("ReadFrame = %q (%d bytes), want %q (%d)", got, n, payload, HeaderSize+len(payload))
	}
}

// TestFrameCorruption: a torn header, torn payload, or flipped bit all
// surface as ErrCorrupt; a clean end of input is io.EOF.
func TestFrameCorruption(t *testing.T) {
	for name, data := range damagedFrames(t) {
		if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(data))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadFrame(%s) err = %v, want ErrCorrupt", name, err)
		}
		if _, err := SkipFrame(bufio.NewReader(bytes.NewReader(data)), make([]byte, 7)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("SkipFrame(%s) err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Errorf("ReadFrame(empty) err = %v, want io.EOF", err)
	}

	// An oversized length prefix is rejected before any allocation.
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(oversizedHeader()))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadFrame(oversized) err = %v, want ErrCorrupt", err)
	}
}

// TestReadFrameAllocationFollowsBytes: a header claiming MaxFrameBytes
// with no payload behind it costs a bounded allocation, not the claim;
// a frame that fits readChunk costs one payload allocation; a frame
// several chunks long still reads back intact.
func TestReadFrameAllocationFollowsBytes(t *testing.T) {
	hdr := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(hdr, MaxFrameBytes)
	br := bufio.NewReader(bytes.NewReader(hdr))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(br)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadFrame(lying header) err = %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Errorf("lying header cost %d bytes of allocation, want < 4 MiB", d)
	}

	var stream bytes.Buffer
	small := bytes.Repeat([]byte{7}, readChunk)
	for i := 0; i < 21; i++ { // AllocsPerRun reads one warm-up frame plus one per run
		if err := WriteFrame(&stream, small); err != nil {
			t.Fatal(err)
		}
	}
	// Two allocations: the payload, and the 8-byte header array that
	// escapes through io.ReadFull.
	br = bufio.NewReader(&stream)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("ReadFrame of a %d-byte frame made %v allocations, want 2", readChunk, allocs)
	}

	big := make([]byte, 3*readChunk+5)
	for i := range big {
		big[i] = byte(i * 31)
	}
	stream.Reset()
	if err := WriteFrame(&stream, big); err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadFrame(bufio.NewReader(&stream))
	if err != nil || !bytes.Equal(got, big) || n != int64(HeaderSize+len(big)) {
		t.Fatalf("multi-chunk ReadFrame = %d bytes (%d consumed), %v; want the %d-byte payload", len(got), n, err, len(big))
	}
}

// TestScanValidPrefix: the scan stops at the first torn or corrupt
// frame and reports the byte length of the valid prefix only.
func TestScanValidPrefix(t *testing.T) {
	stream := frameStream(t)
	var want int64
	for _, n := range streamSizes {
		want += int64(HeaderSize + n)
	}
	got, err := ScanValidPrefix(bytes.NewReader(stream))
	if err != nil || got != want {
		t.Fatalf("ScanValidPrefix(clean) = %d, %v; want %d", got, err, want)
	}

	// Tear the last frame: the scan backs up to the end of frame 2.
	torn := stream[:len(stream)-5]
	got, err = ScanValidPrefix(bytes.NewReader(torn))
	if err != nil || got != want-int64(HeaderSize+streamSizes[2]) {
		t.Fatalf("ScanValidPrefix(torn) = %d, %v; want %d", got, err, want-int64(HeaderSize+streamSizes[2]))
	}
}

// damagedFrames returns one valid frame's torn and bit-flipped variants
// plus an all-zero header, keyed by the damage done.
func damagedFrames(t testing.TB) map[string][]byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload bytes here")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	return map[string][]byte{
		"torn header":  frame[:HeaderSize-2],
		"torn payload": frame[:len(frame)-3],
		"flipped bit":  append(append([]byte(nil), frame[:len(frame)-1]...), frame[len(frame)-1]^0xff),
		"zero length":  make([]byte, HeaderSize),
	}
}

// oversizedHeader is a header whose length prefix exceeds MaxFrameBytes.
func oversizedHeader() []byte {
	huge := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(huge, MaxFrameBytes+1)
	return huge
}

// streamSizes are the payload sizes of frameStream's frames; the middle
// one spans multiple SkipFrame chunks.
var streamSizes = []int{1, 100<<10 + 3, 17}

// frameStream returns back-to-back valid frames of streamSizes bytes.
func frameStream(t testing.TB) []byte {
	var buf bytes.Buffer
	for i, n := range streamSizes {
		if err := WriteFrame(&buf, bytes.Repeat([]byte{byte(i + 1)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReadFrame: on any input ReadFrame never panics, never returns a
// payload over MaxFrameBytes, and — looped until io.EOF or ErrCorrupt —
// consumes exactly the valid prefix ScanValidPrefix (built on SkipFrame)
// measures.
func FuzzReadFrame(f *testing.F) {
	for _, data := range damagedFrames(f) {
		f.Add(data)
	}
	f.Add(oversizedHeader())
	f.Add([]byte(nil))
	stream := frameStream(f)
	f.Add(stream)
	f.Add(stream[:len(stream)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var consumed int64
		for {
			payload, n, err := ReadFrame(br)
			if errors.Is(err, io.EOF) || errors.Is(err, ErrCorrupt) {
				break
			}
			if err != nil {
				t.Fatalf("ReadFrame: unexpected error %v", err)
			}
			if len(payload) > MaxFrameBytes {
				t.Fatalf("ReadFrame returned a %d-byte payload, over MaxFrameBytes", len(payload))
			}
			if n != int64(HeaderSize+len(payload)) {
				t.Fatalf("ReadFrame consumed %d bytes for a %d-byte payload", n, len(payload))
			}
			consumed += n
		}
		want, err := ScanValidPrefix(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ScanValidPrefix: %v", err)
		}
		if consumed != want {
			t.Fatalf("ReadFrame consumed %d bytes, ScanValidPrefix measured %d", consumed, want)
		}
	})
}

// TestDecoder: every accessor round-trips its encoder counterpart, and
// Finish demands exact consumption.
func TestDecoder(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = AppendString(b, "hello")
	b = append(b, 0xAB)
	b = AppendString(b, "")

	d := NewDecoder(b)
	if v, err := d.Uvarint(); err != nil || v != 300 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != -7 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if s, err := d.Str(); err != nil || s != "hello" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Finish with bytes remaining = %v, want ErrCorrupt", err)
	}
	if v, err := d.Byte(); err != nil || v != 0xAB {
		t.Fatalf("Byte = %x, %v", v, err)
	}
	if s, err := d.Str(); err != nil || s != "" {
		t.Fatalf("Str(empty) = %q, %v", s, err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish = %v", err)
	}

	// Out-of-bounds reads are ErrCorrupt, not panics.
	if _, err := d.Uvarint(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Uvarint past end = %v", err)
	}
	if _, err := d.Take(1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Take past end = %v", err)
	}
	// A length the payload cannot back is corruption.
	d2 := NewDecoder(binary.AppendUvarint(nil, 1<<40))
	if _, err := d2.Length(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Length(absurd) = %v, want ErrCorrupt", err)
	}
}

func TestCapHint(t *testing.T) {
	if CapHint(10) != 10 || CapHint(1<<30) != maxCapHint {
		t.Fatalf("CapHint miscaps: %d %d", CapHint(10), CapHint(1<<30))
	}
}

// TestWriteFileAtomic: the target appears complete, and no temp files
// survive a successful write.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	want := []byte("atomic contents")
	if err := WriteFileAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Overwrite is atomic too.
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.bin" {
		t.Fatalf("stray files after atomic writes: %v", entries)
	}
}
