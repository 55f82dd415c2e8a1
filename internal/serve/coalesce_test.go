package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
)

// queueLen reads the pending write-queue length.
func queueLen(s *Server) int {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	return len(s.writeQ)
}

// holdLeaderUntilQueued blocks the leader path by taking writeMu, runs
// enqueue (which must start n Apply calls), waits until all n ops are
// queued, then releases the lock so one of them drains the queue.
func holdLeaderUntilQueued(t *testing.T, s *Server, n int, enqueue func()) {
	t.Helper()
	s.writeMu.Lock()
	enqueue()
	deadline := time.Now().Add(5 * time.Second)
	for queueLen(s) < n {
		if time.Now().After(deadline) {
			s.writeMu.Unlock()
			t.Fatalf("only %d/%d writes queued", queueLen(s), n)
		}
		time.Sleep(time.Millisecond)
	}
	s.writeMu.Unlock()
}

// TestMaintainerCoalesce: writers that collide share one
// clone→apply→publish cycle — one epoch, one swap, every op applied.
func TestMaintainerCoalesce(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2})
	maint := srv.Maintainer()

	const writers = 3
	results := make([]*WriteResult, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	holdLeaderUntilQueued(t, srv, writers, func() {
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = maint.InsertBatch("items", []relation.Tuple{{
					relation.Int(int64(5000 + i)), relation.Str("g0"), relation.Int(1)}})
			}(i)
		}
	})
	wg.Wait()

	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if results[i].Epoch != 1 || results[i].Coalesced != writers || len(results[i].Inserted) != 1 {
			t.Errorf("writer %d: result %+v, want epoch 1, coalesced %d, 1 id", i, results[i], writers)
		}
	}
	st := srv.Stats()
	if st.Swaps != 1 || st.WriteOps != writers || st.RowsInserted != writers {
		t.Errorf("stats swaps/ops/rows = %d/%d/%d, want 1/%d/%d",
			st.Swaps, st.WriteOps, st.RowsInserted, writers, writers)
	}
	if got := countItems(t, srv); got != 60+writers {
		t.Errorf("count after coalesced writes = %d, want %d", got, 60+writers)
	}
}

// countItems runs COUNT(*) over items and returns it as an int.
func countItems(t *testing.T, srv *Server) int {
	t.Helper()
	res, err := srv.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscan(res.Rows.Tuples[0][0].String(), &n); err != nil {
		t.Fatalf("unparseable count %v: %v", res.Rows.Tuples[0][0], err)
	}
	return n
}

// TestMaintainerCoalesceSkipsBadOp: a failing op coalesced with good
// ones is skipped — its caller gets the error, the good ops land in
// the shared publish, and the clone never tears.
func TestMaintainerCoalesceSkipsBadOp(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2})
	maint := srv.Maintainer()

	var (
		goodRes, badRes *WriteResult
		goodErr, badErr error
		wg              sync.WaitGroup
	)
	holdLeaderUntilQueued(t, srv, 2, func() {
		wg.Add(2)
		go func() {
			defer wg.Done()
			goodRes, goodErr = maint.InsertBatch("items", []relation.Tuple{{
				relation.Int(7000), relation.Str("g1"), relation.Int(2)}})
		}()
		go func() {
			defer wg.Done()
			badRes, badErr = maint.InsertBatch("nosuch", []relation.Tuple{{relation.Int(1)}})
		}()
	})
	wg.Wait()

	if badErr == nil || badRes != nil {
		t.Errorf("bad op: res=%+v err=%v, want nil result and an error", badRes, badErr)
	}
	if goodErr != nil {
		t.Fatalf("good op failed: %v", goodErr)
	}
	if goodRes.Epoch != 1 || goodRes.Coalesced != 1 {
		t.Errorf("good op result %+v, want epoch 1 coalesced 1", goodRes)
	}
	st := srv.Stats()
	if st.Swaps != 1 || st.WriteOps != 1 || st.RowsInserted != 1 {
		t.Errorf("stats swaps/ops/rows = %d/%d/%d, want 1/1/1", st.Swaps, st.WriteOps, st.RowsInserted)
	}
	if got := countItems(t, srv); got != 61 {
		t.Errorf("count = %d, want 61", got)
	}
}

// TestApplyBatchPanicReleasesWriters: a panic while applying a batch
// (simulating a latent bug in a graph operation) must surface as an
// error on the waiting writers — not a wedged writer lock or a leaked
// done channel — and the writer path must stay usable afterwards.
func TestApplyBatchPanicReleasesWriters(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 1})
	good := srv.Generation()

	// Sabotage the head so the leader's Clone panics mid-cycle.
	srv.gen.Store(&Generation{Epoch: 0, Graph: nil})
	row := []relation.Tuple{{relation.Int(8000), relation.Str("g0"), relation.Int(1)}}
	res, err := srv.Maintainer().InsertBatch("items", row)
	if err == nil || res != nil {
		t.Fatalf("panicking batch returned res=%+v err=%v, want error", res, err)
	}

	// The lock was released and the queue drained: the next write on a
	// healthy head must publish normally.
	srv.gen.Store(good)
	res, err = srv.Maintainer().InsertBatch("items", row)
	if err != nil {
		t.Fatalf("writer path wedged after panic: %v", err)
	}
	if res.Epoch != 1 || res.Coalesced != 1 {
		t.Errorf("post-panic write result %+v, want epoch 1 coalesced 1", res)
	}
}

// TestPoolLazyCreation: sessions are built on demand, never beyond the
// bound, and reused once released.
func TestPoolLazyCreation(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(g, bsp.Options{Workers: 1}, 2)
	if p.Created() != 0 {
		t.Fatalf("fresh pool built %d sessions, want 0", p.Created())
	}
	a := mustAcquire(t, p)
	if p.Created() != 1 {
		t.Errorf("after one acquire: created = %d, want 1", p.Created())
	}
	b := mustAcquire(t, p)
	if p.Created() != 2 || a == b {
		t.Errorf("after two acquires: created = %d (want 2), distinct = %v", p.Created(), a != b)
	}
	if s := tryAcquire(t, p); s != nil {
		t.Error("acquiring beyond the bound must be refused")
	}
	p.Release(a)
	if s := tryAcquire(t, p); s != a {
		t.Error("released session must be reused, not rebuilt")
	}
	if p.Created() != 2 {
		t.Errorf("reuse rebuilt a session: created = %d, want 2", p.Created())
	}
}
