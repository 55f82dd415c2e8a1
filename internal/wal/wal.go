// Package wal is the durability substrate of the serving layer: an
// append-only, length-prefixed, CRC-checked log of published write
// batches. The maintenance path appends one Record per publish cycle —
// every op that made it into a generation, stamped with the epoch that
// generation got — *before* the generation swap, so the on-disk log is
// always a prefix-consistent history of the served state: replaying
// records 1..k through the same maintenance path rebuilds exactly the
// state epoch k served, for every k.
//
// Framing (length prefix + CRC-32C + capacity-capped decode) comes from
// the shared internal/codec package — checkpoint files use the same
// frames — and the payload is a varint-packed encoding of the record:
// epoch, then each op's table name, insert tuples (the relation
// package's kind-tagged value codec) and delete vertex ids. A record is
// valid only if it is complete and its CRC matches, so a crash
// mid-append (a torn tail) is detected, not replayed: Open truncates
// the log back to its longest valid prefix before appending, and Replay
// stops cleanly at the first invalid record.
//
// Compaction is snapshot-then-truncate: once a checkpoint durably
// captures the state through epoch E, TruncatePrefix(E) drops the
// records a snapshot-load boot no longer replays, so the log holds a
// suffix bounded by checkpoint cadence instead of all history.
//
// Sync policy is the durability/throughput dial: SyncAlways fsyncs
// every append (no acknowledged write is ever lost), SyncInterval
// fsyncs at most once per interval (group commit — bounded loss,
// near-unsynced throughput), SyncNever leaves flushing to the OS.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/relation"
)

// Op is one logged write: rows inserted into Table and/or tuple
// vertices deleted. It mirrors serve.WriteOp (wal cannot import serve —
// serve imports wal for the sync policy).
type Op struct {
	Table  string
	Insert []relation.Tuple
	Delete []bsp.VertexID
}

// Record is one published batch: every op that shared one generation
// publish, stamped with the epoch that publish produced.
type Record struct {
	Epoch uint64
	Ops   []Op
}

// Policy selects when appended records reach stable storage.
type Policy int

const (
	// SyncInterval fsyncs at most once per Options.Interval (group
	// commit): piggybacked on appends while traffic is steady, and via a
	// one-shot background timer when it pauses — so the lag is bounded
	// even for the last write before an idle stretch. A crash loses at
	// most one interval of acknowledged writes. The default.
	SyncInterval Policy = iota
	// SyncAlways fsyncs every append before it is acknowledged.
	SyncAlways
	// SyncNever never fsyncs (except on Close); flushing is left to the
	// OS page cache. A machine crash can lose everything since the last
	// writeback, but a process crash loses nothing.
	SyncNever
)

// String returns the flag-friendly name of the policy.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a flag-friendly policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (always|interval|never)", s)
}

// Options configures a Writer.
type Options struct {
	Policy Policy
	// Interval bounds the fsync lag under SyncInterval; defaults to
	// 100ms. Ignored by the other policies.
	Interval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// WriterStats counts a Writer's activity since Open.
type WriterStats struct {
	Records     int64 // records appended
	Bytes       int64 // bytes appended (headers included)
	Fsyncs      int64 // fsyncs issued by the sync policy (and Close)
	Truncations int64 // compactions (TruncatePrefix)
}

const (
	fileName = "wal.log"
	lockName = "wal.lock"
	// maxScratchBytes bounds the encode buffer kept across appends;
	// larger one-off buffers are released after use.
	maxScratchBytes = 1 << 20
)

// errTorn marks an incomplete or corrupt record: the point where a
// crash interrupted an append. Everything before it is trustworthy;
// nothing at or after it is. It is the shared codec's corruption
// sentinel — checkpoint readers report the same condition the same way.
var errTorn = codec.ErrCorrupt

// Writer appends records to the log in dir. Open recovers first:
// the file is truncated back to its longest valid prefix, so a tail
// torn by a crash can never be followed by (and thereby corrupt) new
// records. Methods are safe for concurrent use, though the serving
// layer serializes appends under its writer lock anyway.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	lock     *os.File // flock'd wal.lock; held until Close, released by the kernel on crash
	path     string
	opts     Options
	off      int64 // end of the last fully-appended record
	lastSync time.Time
	scratch  []byte
	stats    WriterStats
	closed   bool
	// syncPending is set while a background interval fsync is armed.
	syncPending bool
	// failed poisons the writer: a partial append could not be rewound
	// (or a background fsync failed), so acknowledging further writes
	// would break the durability contract. Every later Append errors.
	failed error
}

// Open creates dir if needed, takes an exclusive advisory lock on it,
// truncates any torn tail off the log, and returns a Writer positioned
// after the last valid record. Use Replay (before appending anything)
// to rebuild state from the valid prefix.
//
// The lock (flock on wal.lock) refuses a second concurrent Writer on
// the same dir: two writers would truncate and append over each
// other's frames and silently destroy acknowledged records. A crashed
// process's lock is released by the kernel, so recovery never needs a
// manual unlock.
func Open(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("wal: dir %s already has a live writer (flock: %w)", dir, err)
	}
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	fail := func(err error) (*Writer, error) {
		f.Close()
		lock.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	valid, err := codec.ScanValidPrefix(f)
	if err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	if fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			return fail(fmt.Errorf("wal: truncating torn tail: %w", err))
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	// Make the directory entries themselves durable: fsyncing file data
	// does nothing for a dirent the journal never flushed — a power loss
	// could otherwise drop wal.log wholesale, acknowledged writes and
	// all.
	if err := codec.SyncDir(dir); err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	return &Writer{f: f, lock: lock, path: path, opts: opts, off: valid, lastSync: time.Now()}, nil
}

// Append encodes rec and writes it to the log in one write call, then
// syncs per the policy. The record is visible to Replay as soon as
// Append returns; it is durable per the sync policy.
func (w *Writer) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: writer is closed")
	}
	if w.failed != nil {
		return w.failed
	}
	if cap(w.scratch) < codec.HeaderSize {
		w.scratch = make([]byte, codec.HeaderSize, 4096)
	}
	buf, err := encodePayload(w.scratch[:codec.HeaderSize], rec)
	if err != nil {
		return err
	}
	// Reuse the encode buffer across appends, but do not let one
	// outsized record pin tens of MB for the writer's lifetime.
	if cap(buf) <= maxScratchBytes {
		w.scratch = buf[:0]
	} else {
		w.scratch = nil
	}
	if len(buf)-codec.HeaderSize > codec.MaxFrameBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(buf)-codec.HeaderSize, codec.MaxFrameBytes)
	}
	if err := codec.FinishFrame(buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if n, err := w.f.Write(buf); err != nil {
		// A short write leaves a partial frame on disk. Rewind to the
		// last good offset: appending after the garbage would put valid,
		// acknowledged records *behind* a torn one, and the next recovery
		// would silently truncate them away. If the rewind itself fails,
		// poison the writer — better to refuse every later write than to
		// acknowledge one that replay can never see.
		if n > 0 {
			if terr := w.f.Truncate(w.off); terr != nil {
				w.failed = fmt.Errorf("wal: log poisoned, partial append not rewindable: %v (during %v)", terr, err)
				return w.failed
			}
			if _, serr := w.f.Seek(w.off, io.SeekStart); serr != nil {
				w.failed = fmt.Errorf("wal: log poisoned, cannot reposition after rewind: %v (during %v)", serr, err)
				return w.failed
			}
		}
		return fmt.Errorf("wal: %w", err)
	}
	w.off += int64(len(buf))
	w.stats.Records++
	w.stats.Bytes += int64(len(buf))
	switch w.opts.Policy {
	case SyncAlways:
		return w.syncLocked()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.opts.Interval {
			return w.syncLocked()
		}
		// Bound the lag even if no further append ever arrives: arm a
		// one-shot background fsync for the rest of the interval.
		if !w.syncPending {
			w.syncPending = true
			time.AfterFunc(w.opts.Interval-time.Since(w.lastSync), w.backgroundSync)
		}
	}
	return nil
}

// backgroundSync is the deferred half of the SyncInterval contract: it
// fires once per armed interval and flushes whatever the piggybacked
// path has not. A failure poisons the writer (syncLocked does it) —
// silently dropping an fsync would break acknowledged durability with
// no one noticing — and the next Append surfaces the error.
func (w *Writer) backgroundSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncPending = false
	if w.closed || w.failed != nil {
		return
	}
	_ = w.syncLocked()
}

// Sync forces an fsync regardless of policy. A poisoned writer keeps
// reporting its failure: a later fsync succeeding does not restore
// pages the kernel already dropped, so "retry Sync until nil" must
// never be able to mask lost acknowledged records.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: writer is closed")
	}
	if w.failed != nil {
		return w.failed
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		// A failed fsync poisons the writer. The just-written frame may
		// or may not reach disk (the kernel can drop the dirty pages
		// while the bytes stay readable), so it can neither be trusted
		// nor rewound; if appends continued, the next cycle would reuse
		// this record's epoch and recovery would see two records claiming
		// it. Refusing all further appends keeps the log unambiguous: at
		// worst recovery replays one never-acknowledged record, which is
		// the same harmless artifact as a crash between append and swap.
		w.failed = fmt.Errorf("wal: log poisoned, fsync failed: %w", err)
		return w.failed
	}
	w.stats.Fsyncs++
	w.lastSync = time.Now()
	return nil
}

// TruncatePrefix drops every record with epoch <= covered, keeping the
// suffix a snapshot-load boot still needs to replay. Epochs are
// appended in increasing order, so the covered records are a byte
// prefix of the log; the suffix is copied to a temp file, fsynced, and
// renamed over the log — a crash anywhere leaves either the old log or
// the compacted one, both of which boot (paired with the checkpoint
// that made covered durable). Call it only after that checkpoint has
// been durably written: a truncated log without its snapshot is a
// history with a hole, which recovery refuses (the epoch-continuity
// check) rather than silently misapplies.
func (w *Writer) TruncatePrefix(covered uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: writer is closed")
	}
	if w.failed != nil {
		return w.failed
	}

	// Find the byte offset where the first kept record starts, peeking
	// only each frame's leading epoch uvarint.
	br := bufio.NewReaderSize(io.NewSectionReader(w.f, 0, w.off), 1<<20)
	var cut int64
	for cut < w.off {
		payload, n, err := codec.ReadFrame(br)
		if err != nil {
			// The prefix below w.off was validated at Open and written by
			// this writer; failing to re-read it is an I/O-level problem,
			// not a torn tail.
			return fmt.Errorf("wal: truncate-prefix scan at offset %d: %w", cut, err)
		}
		epoch, err := codec.NewDecoder(payload).Uvarint()
		if err != nil {
			return fmt.Errorf("wal: truncate-prefix scan at offset %d: %w", cut, err)
		}
		if epoch > covered {
			break
		}
		cut += n
	}
	if cut == 0 {
		return nil // nothing covered; the log already starts after the snapshot
	}

	// Copy the suffix to a temp file and swap it in atomically.
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-tmp-")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := io.Copy(tmp, io.NewSectionReader(w.f, cut, w.off-cut)); err != nil {
		return cleanup(fmt.Errorf("wal: copying suffix: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("wal: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("wal: %w", err))
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		return cleanup(fmt.Errorf("wal: %w", err))
	}
	// The old fd now points at the renamed-over inode; every later append
	// must go to the new file. Failing to reopen poisons the writer —
	// appending to the orphan inode would acknowledge writes no recovery
	// can ever see.
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.failed = fmt.Errorf("wal: log poisoned, cannot reopen after truncate-prefix: %w", err)
		return w.failed
	}
	newOff := w.off - cut
	if _, err := nf.Seek(newOff, io.SeekStart); err != nil {
		nf.Close()
		w.failed = fmt.Errorf("wal: log poisoned, cannot position after truncate-prefix: %w", err)
		return w.failed
	}
	w.f.Close()
	w.f = nf
	w.off = newOff
	w.stats.Truncations++
	if err := codec.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Close fsyncs and closes the log.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	syncErr := w.f.Sync()
	if syncErr == nil {
		w.stats.Fsyncs++
	}
	closeErr := w.f.Close()
	w.lock.Close() // releases the flock; a new Writer may Open the dir
	if syncErr != nil {
		return fmt.Errorf("wal: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("wal: %w", closeErr)
	}
	return nil
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	Records   int64  // valid records replayed
	Bytes     int64  // bytes they span (headers included)
	LastEpoch uint64 // epoch of the last replayed record (0 if none)
	Torn      bool   // a torn tail record was detected and ignored
}

// Replay streams every valid record of the log in dir through fn, in
// append order, stopping cleanly at the first torn record (reported in
// the stats, not as an error — a torn tail is the expected crash
// artifact, and everything before it is a consistent prefix). A missing
// log is an empty log. An error from fn aborts the replay.
func Replay(dir string, fn func(*Record) error) (ReplayStats, error) {
	var st ReplayStats
	f, err := os.Open(filepath.Join(dir, fileName))
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	for {
		rec, n, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			return st, nil
		}
		if errors.Is(err, errTorn) {
			st.Torn = true
			return st, nil
		}
		if err != nil {
			return st, err
		}
		if err := fn(rec); err != nil {
			return st, err
		}
		st.Records++
		st.Bytes += n
		st.LastEpoch = rec.Epoch
	}
}

// readRecord is a frame read plus payload decoding. A CRC-valid but
// undecodable payload is reported as torn too — a CRC pass means the
// bytes are exactly what Append wrote, so this is only reachable
// through an encoder bug, not crash damage.
func readRecord(br *bufio.Reader) (*Record, int64, error) {
	payload, n, err := codec.ReadFrame(br)
	if err != nil {
		return nil, 0, err
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return nil, 0, errTorn
	}
	return rec, n, nil
}

// encodePayload appends the varint-packed encoding of rec to b.
func encodePayload(b []byte, rec *Record) ([]byte, error) {
	b = binary.AppendUvarint(b, rec.Epoch)
	b = binary.AppendUvarint(b, uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		b = codec.AppendString(b, op.Table)
		b = binary.AppendUvarint(b, uint64(len(op.Insert)))
		for _, row := range op.Insert {
			var err error
			if b, err = relation.AppendTuple(b, row); err != nil {
				return nil, err
			}
		}
		b = binary.AppendUvarint(b, uint64(len(op.Delete)))
		for _, id := range op.Delete {
			b = binary.AppendVarint(b, int64(id))
		}
	}
	return b, nil
}

// decodePayload decodes one record, walking the payload twice: the first
// walk only checks that the bytes hold a complete record, so the second
// can size every slice exactly from counts already proven. A decoded
// value is up to 40x its smallest encoding (a one-byte NULL), so sizing
// from a count the bytes have not yet backed — or growing by append,
// which allocates several times the final size — would let a short
// payload claim far more memory than it spans; this way a record costs
// about 40x its bytes at most.
func decodePayload(b []byte) (*Record, error) {
	if err := walkPayload(codec.NewDecoder(b), nil); err != nil {
		return nil, err
	}
	rec := new(Record)
	if err := walkPayload(codec.NewDecoder(b), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// walkPayload reads one encodePayload encoding from d, filling rec when
// it is non-nil and only checking the bytes when it is nil.
func walkPayload(d *codec.Decoder, rec *Record) error {
	epoch, err := d.Uvarint()
	if err != nil {
		return err
	}
	nops, err := d.Length()
	if err != nil {
		return err
	}
	if rec != nil {
		rec.Epoch, rec.Ops = epoch, make([]Op, nops)
	}
	for i := 0; i < nops; i++ {
		var op Op
		if op.Table, err = d.Str(); err != nil {
			return err
		}
		nins, err := d.Length()
		if err != nil {
			return err
		}
		if rec != nil && nins > 0 {
			op.Insert = make([]relation.Tuple, nins)
		}
		for j := 0; j < nins; j++ {
			arity, err := d.Length()
			if err != nil {
				return err
			}
			var row relation.Tuple
			if rec != nil {
				row = make(relation.Tuple, arity)
				op.Insert[j] = row
			}
			for k := 0; k < arity; k++ {
				v, err := relation.DecodeValue(d)
				if err != nil {
					return err
				}
				if row != nil {
					row[k] = v
				}
			}
		}
		ndel, err := d.Length()
		if err != nil {
			return err
		}
		if rec != nil && ndel > 0 {
			op.Delete = make([]bsp.VertexID, ndel)
		}
		for j := 0; j < ndel; j++ {
			id, err := d.Varint()
			if err != nil {
				return err
			}
			if rec != nil {
				op.Delete[j] = bsp.VertexID(id)
			}
		}
		if rec != nil {
			rec.Ops[i] = op
		}
	}
	return d.Finish()
}
