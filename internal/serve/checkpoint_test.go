package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/checkpoint"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// copyBootDir clones the durable artifacts of a WAL dir into a fresh
// temp dir — the log and the base fingerprint, plus (optionally) the
// checkpoint files — so one crash image can boot twice under different
// conditions without the boots interfering.
func copyBootDir(t *testing.T, src string, withCheckpoints bool) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == "wal.lock" {
			continue
		}
		if !withCheckpoints && strings.HasSuffix(name, ".ckpt") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCheckpointBootMatchesReplay is the end-to-end acceptance test for
// snapshot-load boot: a server checkpoints mid-workload (without
// truncating, so the full log survives for the control boot), keeps
// writing, and crashes. The same crash image then boots twice — once
// with the checkpoint deleted (full replay) and once with it (snapshot
// + suffix replay). Both must answer all TPC-H queries identically,
// and the snapshot boot must have replayed strictly fewer records.
func TestCheckpointBootMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	build := func() *tag.Graph {
		g, err := tag.Build(tpch.Generate(0.05, 2021), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	live, err := Open(build(), Options{Sessions: 2, WALDir: dir, WALSync: wal.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	maint := live.Maintainer()
	rel := live.Graph().Catalog.Get("orders")
	templates := make([]relation.Tuple, 10)
	for i := range templates {
		templates[i] = rel.Tuples[i].Clone()
	}

	nextKey := int64(1) << 40
	var insertedIDs []bsp.VertexID
	for i := 0; i < 4; i++ {
		res, err := maint.InsertBatch("orders", synthFromTemplates(templates, 20, &nextKey))
		if err != nil {
			t.Fatal(err)
		}
		insertedIDs = append(insertedIDs, res.Inserted...)
	}
	if _, err := maint.DeleteBatch(insertedIDs[:25]); err != nil {
		t.Fatal(err)
	}

	// Checkpoint at epoch 5, keeping the full log so the control boot
	// can replay from scratch.
	ckptEpoch, err := maint.Checkpoint(false)
	if err != nil {
		t.Fatal(err)
	}
	if ckptEpoch != 5 {
		t.Fatalf("checkpoint epoch = %d, want 5", ckptEpoch)
	}

	// Post-checkpoint suffix: more inserts and a delete that spans rows
	// created both before and after the checkpoint.
	for i := 0; i < 2; i++ {
		res, err := maint.InsertBatch("orders", synthFromTemplates(templates, 20, &nextKey))
		if err != nil {
			t.Fatal(err)
		}
		insertedIDs = append(insertedIDs, res.Inserted...)
	}
	if _, err := maint.DeleteBatch(insertedIDs[70:90]); err != nil {
		t.Fatal(err)
	}
	liveStats := live.Stats()
	if liveStats.Epoch != 8 {
		t.Fatalf("live epoch = %d, want 8", liveStats.Epoch)
	}

	// Crash: the kernel would drop the flock with the process.
	if err := live.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	// Boot A (control): same image minus the checkpoint — full replay.
	dirA := copyBootDir(t, dir, false)
	bootA, err := Open(build(), Options{Sessions: 2, WALDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	stA := bootA.Stats()
	if stA.WALReplayed != 8 || stA.WALSkipped != 0 || stA.Epoch != 8 {
		t.Fatalf("full-replay boot replayed/skipped/epoch = %d/%d/%d, want 8/0/8",
			stA.WALReplayed, stA.WALSkipped, stA.Epoch)
	}

	// Boot B: checkpoint present — snapshot-load plus suffix replay only.
	bootB, err := Open(build(), Options{Sessions: 2, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stB := bootB.Stats()
	if stB.WALReplayed != 3 || stB.WALSkipped != 5 || stB.Epoch != 8 {
		t.Fatalf("snapshot boot replayed/skipped/epoch = %d/%d/%d, want 3/5/8",
			stB.WALReplayed, stB.WALSkipped, stB.Epoch)
	}
	if stB.WALReplayed >= stA.WALReplayed {
		t.Fatalf("snapshot boot replayed %d records, full replay %d — checkpoint saved nothing",
			stB.WALReplayed, stA.WALReplayed)
	}
	if stB.CheckpointEpoch != ckptEpoch {
		t.Errorf("boot CheckpointEpoch = %d, want %d", stB.CheckpointEpoch, ckptEpoch)
	}

	// The two boots are indistinguishable to every TPC-H query.
	for _, q := range tpch.Queries() {
		ra, err := bootA.Query(q.SQL)
		if err != nil {
			t.Fatalf("full-replay %s: %v", q.ID, err)
		}
		rb, err := bootB.Query(q.SQL)
		if err != nil {
			t.Fatalf("snapshot-boot %s: %v", q.ID, err)
		}
		if !relation.EqualMultiset(ra.Rows, rb.Rows) {
			t.Errorf("%s: snapshot boot answers differently from full replay", q.ID)
		}
	}

	// And writes keep landing on the same epoch chain.
	resA, err := bootA.Maintainer().InsertBatch("orders", synthFromTemplates(templates, 5, &nextKey))
	if err != nil {
		t.Fatal(err)
	}
	nextKey -= 5 // same keys on both sides
	resB, err := bootB.Maintainer().InsertBatch("orders", synthFromTemplates(templates, 5, &nextKey))
	if err != nil {
		t.Fatal(err)
	}
	if resA.Epoch != 9 || resB.Epoch != 9 {
		t.Errorf("post-boot epochs = %d/%d, want 9/9", resA.Epoch, resB.Epoch)
	}
}

// TestCheckpointTruncateCompacts: the production compaction path —
// checkpoint with truncate drops the covered log prefix, and the next
// boot loads the snapshot and replays only what remains.
func TestCheckpointTruncateCompacts(t *testing.T) {
	dir := t.TempDir()
	build := func() *tag.Graph {
		g, err := tag.Build(itemsCatalog(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	srv, err := Open(build(), Options{Sessions: 1, WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	maint := srv.Maintainer()
	for i := 0; i < 4; i++ {
		rows := []relation.Tuple{{relation.Int(int64(7000 + i)), relation.Str("g0"), relation.Int(1)}}
		if _, err := maint.InsertBatch("items", rows); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	before := fi.Size()

	if epoch, err := maint.Checkpoint(true); err != nil || epoch != 4 {
		t.Fatalf("Checkpoint = %d, %v, want 4, nil", epoch, err)
	}
	st := srv.Stats()
	if st.WALTruncations != 1 || st.Checkpoints != 1 || st.CheckpointEpoch != 4 {
		t.Fatalf("post-truncate truncations/ckpts/epoch = %d/%d/%d, want 1/1/4",
			st.WALTruncations, st.Checkpoints, st.CheckpointEpoch)
	}
	if fi, err = os.Stat(logPath); err != nil || fi.Size() != 0 {
		t.Fatalf("post-truncate log size = %d (err %v), want 0 (was %d)", fi.Size(), err, before)
	}

	// Suffix after compaction, then crash.
	if _, err := maint.InsertBatch("items",
		[]relation.Tuple{{relation.Int(8000), relation.Str("g1"), relation.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(build(), Options{Sessions: 1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rst := rec.Stats()
	if rst.WALReplayed != 1 || rst.WALSkipped != 0 || rst.Epoch != 5 {
		t.Fatalf("compacted boot replayed/skipped/epoch = %d/%d/%d, want 1/0/5",
			rst.WALReplayed, rst.WALSkipped, rst.Epoch)
	}
	res, err := rec.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 65 {
		t.Errorf("COUNT(*) = %d, want 65 (60 base + 5 inserts)", n)
	}
}

// TestCheckpointCrashAndCorruptionFallbacks covers the failure matrix:
// a kill mid-checkpoint-write leaves only a stray temp file that boot
// ignores; a bit-flipped or torn checkpoint falls back to full replay
// (the log was kept); a checkpoint stamped for a foreign base is
// refused the same way.
func TestCheckpointCrashAndCorruptionFallbacks(t *testing.T) {
	dir := t.TempDir()
	build := func() *tag.Graph {
		g, err := tag.Build(itemsCatalog(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	srv, err := Open(build(), Options{Sessions: 1, WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	maint := srv.Maintainer()
	for i := 0; i < 3; i++ {
		rows := []relation.Tuple{{relation.Int(int64(7000 + i)), relation.Str("g0"), relation.Int(1)}}
		if _, err := maint.InsertBatch("items", rows); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the log: fallbacks below require full replay to stay possible.
	if _, err := maint.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	if err := srv.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	ckptPath := filepath.Join(dir, checkpoint.FileName(3))
	good, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}

	boot := func(t *testing.T, dir string) Stats {
		t.Helper()
		s, err := Open(build(), Options{Sessions: 1, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Epoch != 3 {
			t.Fatalf("boot epoch = %d, want 3", st.Epoch)
		}
		res, err := s.Query("SELECT COUNT(*) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows.Tuples[0][0].AsInt(); n != 63 {
			t.Fatalf("COUNT(*) = %d, want 63", n)
		}
		if err := s.WAL().Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("stray temp ignored", func(t *testing.T) {
		d := copyBootDir(t, dir, true)
		if err := os.WriteFile(filepath.Join(d, ".ckpt-tmp-42"), good[:len(good)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		st := boot(t, d)
		if st.WALSkipped != 3 || st.WALReplayed != 0 || st.CheckpointErrors != 0 {
			t.Errorf("skipped/replayed/errors = %d/%d/%d, want 3/0/0 (snapshot boot, temp invisible)",
				st.WALSkipped, st.WALReplayed, st.CheckpointErrors)
		}
		if _, err := os.Stat(filepath.Join(d, ".ckpt-tmp-42")); err != nil {
			t.Errorf("boot should leave the stray temp for the next checkpoint's gc: %v", err)
		}
	})

	t.Run("bit flip falls back to full replay", func(t *testing.T) {
		d := copyBootDir(t, dir, true)
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0xff
		if err := os.WriteFile(filepath.Join(d, checkpoint.FileName(3)), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		st := boot(t, d)
		if st.WALReplayed != 3 || st.WALSkipped != 0 || st.CheckpointErrors != 1 {
			t.Errorf("replayed/skipped/errors = %d/%d/%d, want 3/0/1 (full replay)",
				st.WALReplayed, st.WALSkipped, st.CheckpointErrors)
		}
	})

	t.Run("torn checkpoint falls back to full replay", func(t *testing.T) {
		d := copyBootDir(t, dir, true)
		if err := os.WriteFile(filepath.Join(d, checkpoint.FileName(3)), good[:len(good)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		st := boot(t, d)
		if st.WALReplayed != 3 || st.CheckpointErrors != 1 {
			t.Errorf("replayed/errors = %d/%d, want 3/1", st.WALReplayed, st.CheckpointErrors)
		}
	})

	t.Run("foreign-base checkpoint refused", func(t *testing.T) {
		d := copyBootDir(t, dir, false)
		// A checkpoint whose image verifies but whose fingerprint names a
		// different base: structurally valid, semantically poison.
		g := build()
		if _, err := checkpoint.Write(d, g, 3, "not-this-base"); err != nil {
			t.Fatal(err)
		}
		st := boot(t, d)
		if st.WALReplayed != 3 || st.WALSkipped != 0 || st.CheckpointErrors != 1 {
			t.Errorf("replayed/skipped/errors = %d/%d/%d, want 3/0/1",
				st.WALReplayed, st.WALSkipped, st.CheckpointErrors)
		}
	})
}

// TestCloseWaitsForCheckpoint: Close waits for a background checkpoint
// however long it takes, so the checkpoint truncates its prefix with
// no error counted, and nothing writes the WAL dir once Close has
// released it.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Open(g, Options{Sessions: 1, WALDir: t.TempDir(), WALSync: wal.SyncAlways, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	started, finished := make(chan struct{}), make(chan struct{})
	orig := writeCheckpoint
	writeCheckpoint = func(dir string, g *tag.Graph, epoch uint64, baseFP string) (string, error) {
		close(started)
		defer close(finished)
		time.Sleep(1500 * time.Millisecond) // past any fixed wait in Close
		return orig(dir, g, epoch, baseFP)
	}
	defer func() { writeCheckpoint = orig }()
	defer func() { <-finished }() // the temp dir outlives the checkpoint

	rows := []relation.Tuple{{relation.Int(7000), relation.Str("g0"), relation.Int(1)}}
	if _, err := srv.Maintainer().InsertBatch("items", rows); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	default:
		t.Fatal("Close returned while the checkpoint was still writing the WAL dir")
	}
	if st := srv.Stats(); st.Checkpoints != 1 || st.CheckpointErrors != 0 || st.WALTruncations != 1 {
		t.Errorf("checkpoints/errors/truncations = %d/%d/%d, want 1/0/1",
			st.Checkpoints, st.CheckpointErrors, st.WALTruncations)
	}
}

// TestPeriodicCheckpoint: with CheckpointEvery or CheckpointBytes set,
// the Maintainer checkpoints in the background once the policy is due
// (truncating the covered prefix unless told not to); a crash then
// boots from the snapshot.
func TestPeriodicCheckpoint(t *testing.T) {
	build := func() *tag.Graph {
		g, err := tag.Build(itemsCatalog(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	t.Run("every", func(t *testing.T) {
		dir := t.TempDir()
		srv, err := Open(build(), Options{Sessions: 1, WALDir: dir, WALSync: wal.SyncAlways, CheckpointEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		maint := srv.Maintainer()
		for i := 0; i < 4; i++ {
			rows := []relation.Tuple{{relation.Int(int64(7000 + i)), relation.Str("g0"), relation.Int(1)}}
			if _, err := maint.InsertBatch("items", rows); err != nil {
				t.Fatal(err)
			}
		}

		// The trigger fired at epoch 3; the snapshot lands asynchronously.
		deadline := time.Now().Add(10 * time.Second)
		var st Stats
		for {
			st = srv.Stats()
			if st.Checkpoints >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no periodic checkpoint after 4 writes with CheckpointEvery=3 (stats %+v)", st)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if st.CheckpointEpoch < 3 || st.CheckpointErrors != 0 || st.WALTruncations < 1 {
			t.Fatalf("checkpoint epoch/errors/truncations = %d/%d/%d, want >=3/0/>=1",
				st.CheckpointEpoch, st.CheckpointErrors, st.WALTruncations)
		}

		if err := srv.WAL().Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(build(), Options{Sessions: 1, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rst := rec.Stats()
		if rst.Epoch != 4 || rst.WALReplayed > 4-int64(rst.CheckpointEpoch) {
			t.Fatalf("rebooted epoch/replayed = %d/%d with checkpoint at %d",
				rst.Epoch, rst.WALReplayed, rst.CheckpointEpoch)
		}
		res, err := rec.Query("SELECT COUNT(*) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows.Tuples[0][0].AsInt(); n != 64 {
			t.Errorf("COUNT(*) = %d, want 64", n)
		}
	})

	// The byte trigger: nothing until the log grows past the bound, one
	// checkpoint after; the log is kept, so the reboot skips the records
	// the checkpoint covers.
	t.Run("bytes", func(t *testing.T) {
		const bound = 200
		dir := t.TempDir()
		srv, err := Open(build(), Options{Sessions: 1, WALDir: dir, WALSync: wal.SyncAlways,
			CheckpointBytes: bound, CheckpointNoTruncate: true})
		if err != nil {
			t.Fatal(err)
		}
		maint := srv.Maintainer()
		n := 0
		for ; srv.WAL().Stats().Bytes < bound; n++ {
			if st := srv.Stats(); st.Checkpoints != 0 {
				t.Fatalf("checkpoint after %d log bytes, under the %d-byte bound", srv.WAL().Stats().Bytes, bound)
			}
			rows := []relation.Tuple{{relation.Int(int64(7000 + n)), relation.Str("g0"), relation.Int(1)}}
			if _, err := maint.InsertBatch("items", rows); err != nil {
				t.Fatal(err)
			}
		}
		if n < 2 {
			t.Fatalf("one record grew the log past the %d-byte bound", bound)
		}
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().Checkpoints < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("no checkpoint after %d log bytes (stats %+v)", srv.WAL().Stats().Bytes, srv.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if st := srv.Stats(); st.CheckpointErrors != 0 || st.WALTruncations != 0 {
			t.Fatalf("checkpoint errors/truncations = %d/%d, want 0/0", st.CheckpointErrors, st.WALTruncations)
		}

		if err := srv.WAL().Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(build(), Options{Sessions: 1, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rst := rec.Stats()
		if rst.Epoch != uint64(n) || rst.WALSkipped < 1 || rst.WALSkipped+rst.WALReplayed != int64(n) {
			t.Fatalf("rebooted epoch/skipped/replayed = %d/%d/%d after %d writes", rst.Epoch, rst.WALSkipped, rst.WALReplayed, n)
		}
		res, err := rec.Query("SELECT COUNT(*) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows.Tuples[0][0].AsInt(); got != int64(60+n) {
			t.Errorf("COUNT(*) = %d, want %d", got, 60+n)
		}
	})
}
