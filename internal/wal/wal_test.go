package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// sampleRecords covers every value kind, empty sides, and coalesced
// multi-op records.
func sampleRecords() []*Record {
	return []*Record{
		{Epoch: 1, Ops: []Op{{
			Table: "items",
			Insert: []relation.Tuple{
				{relation.Int(42), relation.Str("hello"), relation.Float(3.25)},
				{relation.Null, relation.Bool(true), relation.Date(19000)},
			},
		}}},
		{Epoch: 2, Ops: []Op{
			{Delete: []bsp.VertexID{7, 9, 1024}},
			{Table: "groups", Insert: []relation.Tuple{{relation.Str("")}}, Delete: []bsp.VertexID{0}},
		}},
		{Epoch: 3, Ops: []Op{{Table: "t", Insert: []relation.Tuple{{relation.Int(-5)}}}}},
	}
}

func appendAll(t *testing.T, w *Writer, recs []*Record) {
	t.Helper()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, dir string) ([]*Record, ReplayStats) {
	t.Helper()
	var got []*Record
	st, err := Replay(dir, func(rec *Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

// TestRoundTrip: what goes in comes back, byte for byte, across every
// value kind and op shape.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, st := replayAll(t, dir)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, recs)
	}
	if st.Records != int64(len(recs)) || st.Torn || st.LastEpoch != 3 {
		t.Errorf("replay stats = %+v, want %d records, no torn tail, last epoch 3", st, len(recs))
	}
	fi, err := os.Stat(filepath.Join(dir, fileName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st.Bytes {
		t.Errorf("log holds %d bytes, replay accounted %d", fi.Size(), st.Bytes)
	}
}

// TestTornTailIgnoredAndRecovered: a record cut short by a crash is
// detected via its frame/CRC, ignored by Replay, and truncated off by
// the next Open so appends continue from a clean prefix.
func TestTornTailIgnoredAndRecovered(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: the tail record loses its last 3 bytes.
	path := filepath.Join(dir, fileName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	got, st := replayAll(t, dir)
	if len(got) != len(recs)-1 || !st.Torn {
		t.Fatalf("replay after tear: %d records torn=%v, want %d records torn=true", len(got), st.Torn, len(recs)-1)
	}
	if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
		t.Fatal("surviving prefix differs from what was appended")
	}

	// A corrupt (bit-flipped) record is equally ignored: flip the last
	// byte of the valid prefix, inside the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[st.Bytes-1] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	got, st = replayAll(t, dir)
	if len(got) != len(recs)-2 || !st.Torn {
		t.Fatalf("replay after corruption: %d records torn=%v, want %d records torn=true", len(got), st.Torn, len(recs)-2)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery: Open truncates the torn tail, and a fresh append lands
	// right after the valid prefix.
	w2, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	next := &Record{Epoch: recs[len(recs)-2].Epoch + 1, Ops: []Op{{Delete: []bsp.VertexID{1}}}}
	if err := w2.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, st = replayAll(t, dir)
	if len(got) != len(recs) || st.Torn {
		t.Fatalf("replay after recovery: %d records torn=%v, want %d records torn=false", len(got), st.Torn, len(recs))
	}
	if !reflect.DeepEqual(got[len(got)-1], next) {
		t.Error("post-recovery append did not survive")
	}
}

// TestTruncate: a checkpoint that covers every record compacts the log
// to empty and the writer keeps working.
func TestTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	appendAll(t, w, recs)
	if err := w.TruncatePrefix(recs[len(recs)-1].Epoch); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	if len(got) != 0 {
		t.Fatalf("replay after truncate returned %d records, want 0", len(got))
	}
	after := &Record{Epoch: 4, Ops: []Op{{Table: "t", Insert: []relation.Tuple{{relation.Int(1)}}}}}
	if err := w.Append(after); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if len(got) != 1 || !reflect.DeepEqual(got[0], after) || st.Torn {
		t.Fatalf("replay after post-truncate append = %d records (torn=%v), want the one new record", len(got), st.Torn)
	}
}

// TestSyncPolicies: the fsync counters reflect the policy — every
// append under always, none under never (until Close), and at most
// time/interval under interval.
func TestSyncPolicies(t *testing.T) {
	recs := sampleRecords()

	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs)
	if st := w.Stats(); st.Fsyncs != int64(len(recs)) {
		t.Errorf("always: %d fsyncs for %d appends", st.Fsyncs, len(recs))
	}
	w.Close()

	dir = t.TempDir()
	w, err = Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs)
	if st := w.Stats(); st.Fsyncs != 0 {
		t.Errorf("never: %d fsyncs before Close, want 0", st.Fsyncs)
	}
	w.Close()
	if st := w.Stats(); st.Fsyncs != 1 {
		t.Errorf("never: %d fsyncs after Close, want 1", st.Fsyncs)
	}

	dir = t.TempDir()
	w, err = Open(dir, Options{Policy: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs)
	if st := w.Stats(); st.Fsyncs != 0 {
		t.Errorf("interval(1h): %d fsyncs within the interval, want 0", st.Fsyncs)
	}
	w.Close()
}

// TestIntervalSyncBoundedLag: the last write before an idle stretch is
// still fsynced within the interval — by the background timer, not a
// later append that may never come.
func TestIntervalSyncBoundedLag(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncInterval, Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background fsync within 2s of an idle append (interval 20ms)")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEmptyAndMissingLogs: replaying a missing or empty log is a clean
// no-op, not an error.
func TestEmptyAndMissingLogs(t *testing.T) {
	got, st := replayAll(t, filepath.Join(t.TempDir(), "nonexistent"))
	if len(got) != 0 || st.Torn || st.Records != 0 {
		t.Fatalf("missing log replay = %d records %+v", len(got), st)
	}
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, st = replayAll(t, dir)
	if len(got) != 0 || st.Torn {
		t.Fatalf("empty log replay = %d records %+v", len(got), st)
	}
}
