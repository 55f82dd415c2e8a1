package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// synthFromTemplates derives an insert batch from template rows, giving
// each row a fresh integer key in column 0 so attribute fan-in stays
// realistic.
func synthFromTemplates(templates []relation.Tuple, n int, nextKey *int64) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		row := templates[i%len(templates)].Clone()
		if len(row) > 0 && row[0].Kind == relation.KindInt {
			row[0] = relation.Int(*nextKey)
			*nextKey++
		}
		out[i] = row
	}
	return out
}

// TestWALReplayMatchesLive is the end-to-end durability test: a server
// runs a mixed insert/delete/query workload with the WAL on; a crash is
// simulated by replaying the log — without closing the live writer, as
// a kill leaves it — into a second server built from the same base
// catalog. The recovered server must reach the exact pre-crash epoch,
// answer every TPC-H query identically to the uninterrupted server,
// match its /stats row counts, and keep accepting writes.
func TestWALReplayMatchesLive(t *testing.T) {
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

	// Snapshot insert templates before the workload mutates the catalog.
	rel := live.Graph().Catalog.Get("orders")
	if rel == nil || rel.Len() < 10 {
		t.Fatal("no orders rows to derive inserts from")
	}
	templates := make([]relation.Tuple, 10)
	for i := range templates {
		templates[i] = rel.Tuples[i].Clone()
	}

	// Mixed workload: 6 insert batches with queries interleaved, then
	// 2 delete batches over rows the inserts created.
	nextKey := int64(1) << 40
	var insertedIDs []bsp.VertexID
	for i := 0; i < 6; i++ {
		res, err := maint.InsertBatch("orders", synthFromTemplates(templates, 20, &nextKey))
		if err != nil {
			t.Fatal(err)
		}
		insertedIDs = append(insertedIDs, res.Inserted...)
		if _, err := live.Query("SELECT COUNT(*) FROM orders"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := maint.DeleteBatch(insertedIDs[i*30 : (i+1)*30]); err != nil {
			t.Fatal(err)
		}
	}
	liveStats := live.Stats()
	if liveStats.Epoch != 8 || liveStats.WALRecords != 8 {
		t.Fatalf("live epoch/wal records = %d/%d, want 8/8", liveStats.Epoch, liveStats.WALRecords)
	}

	// "Crash" the writer — Close releases the dir's flock the way a real
	// kill would (the kernel drops it with the process); the unclean-
	// shutdown artifact itself, a torn tail, is covered by
	// TestWALTornTailRecovery. The live server stays up for reads.
	if err := live.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: fresh base graph, same log directory.
	recovered, err := Open(build(), Options{Sessions: 2, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recStats := recovered.Stats()
	if recStats.WALReplayed != 8 || recStats.Epoch != liveStats.Epoch {
		t.Fatalf("recovered replayed/epoch = %d/%d, want 8/%d",
			recStats.WALReplayed, recStats.Epoch, liveStats.Epoch)
	}
	if recStats.RowsInserted != liveStats.RowsInserted || recStats.RowsDeleted != liveStats.RowsDeleted {
		t.Errorf("recovered rows inserted/deleted = %d/%d, live %d/%d",
			recStats.RowsInserted, recStats.RowsDeleted, liveStats.RowsInserted, liveStats.RowsDeleted)
	}
	if recStats.Swaps != liveStats.Swaps || recStats.WriteOps != liveStats.WriteOps {
		t.Errorf("recovered swaps/writeops = %d/%d, live %d/%d",
			recStats.Swaps, recStats.WriteOps, liveStats.Swaps, liveStats.WriteOps)
	}

	// Every TPC-H query answers identically on both servers.
	for _, q := range tpch.Queries() {
		lr, err := live.Query(q.SQL)
		if err != nil {
			t.Fatalf("live %s: %v", q.ID, err)
		}
		rr, err := recovered.Query(q.SQL)
		if err != nil {
			t.Fatalf("recovered %s: %v", q.ID, err)
		}
		if !relation.EqualMultiset(lr.Rows, rr.Rows) {
			t.Errorf("%s: recovered answer differs from live", q.ID)
		}
	}

	// The recovered server keeps going: its writer appends after the
	// replayed prefix and the epoch chain continues.
	res, err := recovered.Maintainer().InsertBatch("orders", synthFromTemplates(templates, 5, &nextKey))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != liveStats.Epoch+1 {
		t.Errorf("post-recovery write landed at epoch %d, want %d", res.Epoch, liveStats.Epoch+1)
	}
	if st := recovered.Stats(); st.WALRecords != 1 {
		t.Errorf("post-recovery wal records = %d, want 1 (replay must not re-append)", st.WALRecords)
	}
}

// TestWALRefusesForeignBase: a WAL dir is bound to the base catalog it
// was recorded against; booting a different base (other workload,
// scale, or seed) against it must be refused, not silently replayed —
// logged delete ids would resolve to unrelated rows.
func TestWALRefusesForeignBase(t *testing.T) {
	dir := t.TempDir()
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Open(g, Options{Sessions: 1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Maintainer().InsertBatch("items",
		[]relation.Tuple{{relation.Int(9000), relation.Str("g0"), relation.Int(1)}}); err != nil {
		t.Fatal(err)
	}

	// While the first writer is live, any second Open — same base or
	// not — is refused by the dir's flock (two writers would corrupt
	// the log).
	g2, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(g2, Options{Sessions: 1, WALDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "live writer") {
		t.Fatalf("concurrent writer accepted (err=%v), want a lock refusal", err)
	}
	if err := srv.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	other, err := tag.Build(tpch.Generate(0.01, 2021), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(other, Options{Sessions: 1, WALDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "different base") {
		t.Fatalf("foreign base accepted (err=%v), want a fingerprint refusal", err)
	}

	// The rightful base still recovers.
	same, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Open(same, Options{Sessions: 1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.Stats(); st.WALReplayed != 1 || st.Epoch != 1 {
		t.Errorf("rightful base replayed %d epochs to %d, want 1/1", st.WALReplayed, st.Epoch)
	}
}

// TestWALTornTailRecovery: a record torn by a mid-append crash is
// dropped, and the server recovers to the longest consistent prefix.
func TestWALTornTailRecovery(t *testing.T) {
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

	// Tear the tail record, as a crash mid-append would (closing first
	// releases the flock, as the kernel does when a process dies).
	if err := srv.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	recovered, err := Open(build(), Options{Sessions: 1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := recovered.Stats()
	if st.WALReplayed != 2 || st.Epoch != 2 || st.RowsInserted != 2 {
		t.Fatalf("recovered replayed/epoch/rows = %d/%d/%d, want 2/2/2",
			st.WALReplayed, st.Epoch, st.RowsInserted)
	}
	res, err := recovered.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 62 {
		t.Errorf("COUNT(*) = %d, want 62 (60 base + the 2 surviving batches)", n)
	}
	// The epoch the torn record claimed is reusable: the next write
	// lands there and re-logs cleanly over the truncated tail.
	wres, err := recovered.Maintainer().InsertBatch("items",
		[]relation.Tuple{{relation.Int(8000), relation.Str("g1"), relation.Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if wres.Epoch != 3 {
		t.Errorf("post-recovery epoch = %d, want 3", wres.Epoch)
	}
	if err := recovered.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	check, err := Open(build(), Options{Sessions: 1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := check.Stats(); st.WALReplayed != 3 || st.Epoch != 3 || st.RowsInserted != 3 {
		t.Errorf("re-replay = %d records to epoch %d with %d rows, want 3/3/3",
			st.WALReplayed, st.Epoch, st.RowsInserted)
	}
}
