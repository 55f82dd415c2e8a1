// Package codec is the shared on-disk framing and varint-decode
// substrate of the durability layer. The write-ahead log and the
// checkpoint files use the same frame discipline:
//
//	uint32  payload length (little-endian)
//	uint32  CRC-32C (Castagnoli) of the payload
//	bytes   payload
//
// A frame is valid only if it is complete and its CRC matches, so a
// crash mid-write (a torn tail) is detected, not consumed: readers
// report ErrCorrupt at the first invalid frame and trust everything
// before it. The length prefix is capacity-capped (MaxFrameBytes) and
// the payload buffer grows only as bytes arrive, so a corrupt or
// hostile header cannot demand an allocation the input does not back.
//
// The package also carries the bounds-checked payload cursor (Decoder)
// and the atomic-file helpers (temp + fsync + rename + dir fsync) that
// both consumers share. It has no dependencies inside the repo, so any
// layer may use it.
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// HeaderSize is the fixed per-frame header: payload length + CRC.
	HeaderSize = 8
	// MaxFrameBytes bounds a length prefix before the payload is read
	// into memory. One WAL record is one publish cycle and one
	// checkpoint frame is one bounded chunk; 256MB is far beyond either
	// while keeping the worst-case read of a corrupt-but-plausible
	// header modest.
	MaxFrameBytes = 256 << 20
	// readChunk bounds ReadFrame's first allocation; larger frames grow
	// only as their bytes arrive.
	readChunk = 1 << 20
	// maxCapHint caps the capacity pre-allocated from a decoded element
	// count. Counts are validated against the payload's remaining bytes,
	// but in-memory elements are up to ~64x larger than their minimal
	// encoding — so slices grow by append (bounded by the bytes actually
	// present) instead of trusting the count up front.
	maxCapHint = 4096
)

// CapHint bounds an up-front slice capacity taken from decoded input.
func CapHint(n int) int {
	if n > maxCapHint {
		return maxCapHint
	}
	return n
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks an incomplete or corrupt frame: the point where a
// crash (or bit rot) interrupted a write. Everything before it is
// trustworthy; nothing at or after it is.
var ErrCorrupt = errors.New("codec: torn or corrupt frame")

// FinishFrame fills in the HeaderSize bytes reserved at the front of
// buf, framing buf[HeaderSize:] as the payload. Writers that build
// header and payload in one buffer (the WAL) use this to emit the whole
// frame with a single write call.
func FinishFrame(buf []byte) error {
	if len(buf) < HeaderSize {
		return fmt.Errorf("codec: frame buffer of %d bytes has no header room", len(buf))
	}
	payload := buf[HeaderSize:]
	if len(payload) == 0 || len(payload) > MaxFrameBytes {
		return fmt.Errorf("codec: frame payload of %d bytes outside (0, %d]", len(payload), MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return nil
}

// WriteFrame writes one complete frame (header + payload) to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxFrameBytes {
		return fmt.Errorf("codec: frame payload of %d bytes outside (0, %d]", len(payload), MaxFrameBytes)
	}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed, CRC-checked payload. io.EOF
// means a clean end of input; ErrCorrupt means an incomplete or corrupt
// frame starts here.
func ReadFrame(br *bufio.Reader) ([]byte, int64, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, ErrCorrupt
		}
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > MaxFrameBytes {
		return nil, 0, ErrCorrupt
	}
	// The length is only a claim until the bytes arrive: read chunks that
	// double the total so far, starting at readChunk, so a lying header
	// costs at most readChunk plus twice what was actually sent. A frame
	// that needed more than one chunk is joined once at the end: one
	// extra copy.
	var stack [10][]byte // enough chunks for MaxFrameBytes
	chunks := stack[:0]
	for got := uint32(0); got < n; {
		c := make([]byte, min(n-got, max(got, readChunk)))
		if _, err := io.ReadFull(br, c); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, 0, ErrCorrupt
			}
			return nil, 0, err
		}
		chunks = append(chunks, c)
		got += uint32(len(c))
	}
	payload := chunks[0]
	if len(chunks) > 1 {
		payload = bytes.Join(chunks, nil)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, ErrCorrupt
	}
	return payload, int64(HeaderSize) + int64(n), nil
}

// SkipFrame validates one frame (length prefix + CRC) while streaming
// the payload through the reused buffer buf — measuring a large file
// never materializes its contents.
func SkipFrame(br *bufio.Reader, buf []byte) (int64, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, ErrCorrupt
		}
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > MaxFrameBytes {
		return 0, ErrCorrupt
	}
	var crc uint32
	for remaining := int(n); remaining > 0; {
		chunk := buf
		if remaining < len(chunk) {
			chunk = chunk[:remaining]
		}
		if _, err := io.ReadFull(br, chunk); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, ErrCorrupt
			}
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		remaining -= len(chunk)
	}
	if crc != want {
		return 0, ErrCorrupt
	}
	return int64(HeaderSize) + int64(n), nil
}

// ScanValidPrefix returns the byte length of the longest valid frame
// prefix of r (read from its current position). It checks frames and
// CRCs only — no payload decoding — so measuring a large file costs one
// sequential read, not a full materialization of its contents.
func ScanValidPrefix(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var off int64
	buf := make([]byte, 64<<10)
	for {
		n, err := SkipFrame(br, buf)
		switch {
		case err == nil:
			off += n
		case errors.Is(err, io.EOF), errors.Is(err, ErrCorrupt):
			return off, nil
		default:
			return 0, err
		}
	}
}

// AppendString appends a uvarint-length-prefixed string to b.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decoder is a bounds-checked cursor over one frame payload. Every
// accessor reports ErrCorrupt rather than reading past the payload; a
// CRC-valid payload that fails to decode is corruption-equivalent (only
// reachable through an encoder bug, not crash damage), so consumers
// treat the two identically.
type Decoder struct {
	b   []byte
	off int
}

// NewDecoder returns a cursor over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Uvarint decodes one unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.off += n
	return v, nil
}

// Varint decodes one signed (zigzag) varint.
func (d *Decoder) Varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.off += n
	return v, nil
}

// Take returns the next n raw bytes (aliasing the payload, not a copy).
func (d *Decoder) Take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.b) {
		return nil, ErrCorrupt
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out, nil
}

// Byte returns the next single byte.
func (d *Decoder) Byte() (byte, error) {
	b, err := d.Take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Length reads a collection length and sanity-bounds it against the
// bytes remaining — every element consumes at least one payload byte,
// so a count the payload cannot back is corruption. (Allocation is
// separately capped via CapHint: decoded elements can be ~64x larger in
// memory than on disk, so counts are never trusted for up-front make
// sizes.)
func (d *Decoder) Length() (int, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.b)-d.off) {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

// Str decodes one uvarint-length-prefixed string.
func (d *Decoder) Str() (string, error) {
	n, err := d.Length()
	if err != nil {
		return "", err
	}
	b, err := d.Take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Remaining returns the number of undecoded payload bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish reports ErrCorrupt unless the payload was consumed exactly —
// trailing garbage inside a CRC-valid frame is an encoder/decoder
// mismatch, never acceptable silently.
func (d *Decoder) Finish() error {
	if d.off != len(d.b) {
		return ErrCorrupt
	}
	return nil
}

// SyncDir fsyncs a directory, making its entries durable. fsyncing file
// data does nothing for a dirent the journal never flushed — a power
// loss could otherwise drop a just-renamed file wholesale.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic writes data so a crash leaves either no file or the
// complete one: temp file in the same dir, fsync, rename over the
// target, fsync the directory.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}
