package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
)

// itemsCatalog builds a small two-table catalog for maintenance tests.
func itemsCatalog() *relation.Catalog {
	cat := relation.NewCatalog()
	items := relation.New("items", relation.MustSchema(
		relation.Col("ikey", relation.KindInt),
		relation.Col("grp", relation.KindString),
		relation.Col("val", relation.KindInt)))
	for i := 0; i < 60; i++ {
		items.MustAppend(relation.Int(int64(i)), relation.Str(fmt.Sprintf("g%d", i%5)), relation.Int(int64(i%7)))
	}
	cat.MustAdd(items)
	cat.SetPrimaryKey("items", "ikey")

	groups := relation.New("groups", relation.MustSchema(
		relation.Col("gname", relation.KindString),
		relation.Col("weight", relation.KindInt)))
	for i := 0; i < 5; i++ {
		groups.MustAppend(relation.Str(fmt.Sprintf("g%d", i)), relation.Int(int64(i+1)))
	}
	cat.MustAdd(groups)
	cat.SetPrimaryKey("groups", "gname")
	cat.AddForeignKey(relation.ForeignKey{Table: "items", Column: "grp", RefTable: "groups", RefColumn: "gname"})
	return cat
}

// maintBatches builds the deterministic write stream: insert batches of
// fresh keys, then delete batches over the rows the inserts created.
type maintBatch struct {
	insert []relation.Tuple
	delRef int // index of the insert batch whose rows this batch deletes (-1 = insert)
}

func maintStream() []maintBatch {
	var out []maintBatch
	key := int64(1000)
	for b := 0; b < 12; b++ {
		var rows []relation.Tuple
		for r := 0; r < 5; r++ {
			rows = append(rows, relation.Tuple{
				relation.Int(key), relation.Str(fmt.Sprintf("g%d", key%5)), relation.Int(key % 7)})
			key++
		}
		out = append(out, maintBatch{insert: rows, delRef: -1})
	}
	for b := 0; b < 6; b++ {
		out = append(out, maintBatch{delRef: b})
	}
	return out
}

// answerKey canonicalizes a result relation for set membership checks.
func answerKey(r *relation.Relation) string {
	return strings.Join(r.SortedKeys(), "\n")
}

// TestServeWhileWrite is the serve-while-write safety test: concurrent
// readers run against a stream of insert/delete batch swaps, and every
// answer must exactly equal the serial answer of the epoch the server
// says it was answered on — i.e. a published snapshot, never a torn
// in-between state. Run with -race.
func TestServeWhileWrite(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM items",
		"SELECT grp, SUM(val) FROM items GROUP BY grp",
		"SELECT COUNT(*) FROM items, groups WHERE items.grp = groups.gname AND groups.weight > 2",
	}
	batches := maintStream()

	// Serial reference: replay the stream on a private clone, recording
	// each epoch's answers and the vertex ids each insert batch got
	// (vertex assignment is deterministic, so the live run must match).
	base, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	replay := base.Clone()
	refSrv := New(replay, Options{Sessions: 1})
	expected := make([]map[string]string, len(batches)+1) // epoch -> query -> canonical answer
	record := func(epoch int) {
		expected[epoch] = map[string]string{}
		for _, q := range queries {
			res, err := refSrv.Query(q)
			if err != nil {
				t.Fatalf("replay epoch %d: %v", epoch, err)
			}
			expected[epoch][q] = answerKey(res.Rows)
		}
	}
	record(0)
	insertIDs := make([][]bsp.VertexID, 0, len(batches))
	for i, b := range batches {
		if b.delRef < 0 {
			ids, err := replay.InsertBatch("items", b.insert)
			if err != nil {
				t.Fatal(err)
			}
			insertIDs = append(insertIDs, ids)
		} else {
			if err := replay.DeleteBatch(insertIDs[b.delRef]); err != nil {
				t.Fatal(err)
			}
		}
		// The replay graph is mutated in place between these runs; that is
		// fine because refSrv is used strictly serially here.
		record(i + 1)
	}

	// Live run: four readers vs. one writer publishing the same stream.
	srv := New(base, Options{Sessions: 4})
	maint := srv.Maintainer()
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i, b := range batches {
			var res *WriteResult
			var err error
			if b.delRef < 0 {
				res, err = maint.InsertBatch("items", b.insert)
			} else {
				res, err = maint.DeleteBatch(insertIDs[b.delRef])
			}
			if err != nil {
				errs <- fmt.Errorf("batch %d: %w", i, err)
				return
			}
			if res.Epoch != uint64(i+1) {
				errs <- fmt.Errorf("batch %d published epoch %d, want %d", i, res.Epoch, i+1)
				return
			}
			if b.delRef < 0 {
				for j, id := range res.Inserted {
					if id != insertIDs[idxOfInsert(batches, i)][j] {
						errs <- fmt.Errorf("batch %d: nondeterministic vertex id", i)
						return
					}
				}
			}
			time.Sleep(500 * time.Microsecond) // let readers overlap each epoch
		}
	}()

	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				q := queries[(i+c)%len(queries)]
				res, err := srv.Query(q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", c, err)
					return
				}
				if res.Epoch > uint64(len(batches)) {
					errs <- fmt.Errorf("reader %d: epoch %d out of range", c, res.Epoch)
					return
				}
				if got, want := answerKey(res.Rows), expected[res.Epoch][q]; got != want {
					errs <- fmt.Errorf("reader %d: torn answer at epoch %d for %q", c, res.Epoch, q)
					return
				}
				if writerDone.Load() {
					break
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After quiescing, the head must be the final epoch, fully drained
	// down to one live generation, and answering the final serial answer.
	st := srv.Stats()
	if st.Swaps != int64(len(batches)) || st.Epoch != uint64(len(batches)) {
		t.Errorf("swaps/epoch = %d/%d, want %d/%d", st.Swaps, st.Epoch, len(batches), len(batches))
	}
	if st.GenerationsLive != 1 {
		t.Errorf("generations live = %d, want 1", st.GenerationsLive)
	}
	if st.RowsInserted != 60 || st.RowsDeleted != 30 {
		t.Errorf("rows inserted/deleted = %d/%d, want 60/30", st.RowsInserted, st.RowsDeleted)
	}
	for _, q := range queries {
		res, err := srv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if answerKey(res.Rows) != expected[len(batches)][q] {
			t.Errorf("final answer for %q differs from serial replay", q)
		}
	}
}

// idxOfInsert maps a batch index to its position among insert batches.
func idxOfInsert(batches []maintBatch, i int) int {
	n := 0
	for j := 0; j < i; j++ {
		if batches[j].delRef < 0 {
			n++
		}
	}
	return n
}

// TestGenerationPinAndDrain exercises the refcount protocol directly: a
// pinned old generation must survive a swap and drain only after its
// last reader releases.
func TestGenerationPinAndDrain(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2})
	g0 := srv.Generation()
	if g0.Epoch != 0 || g0.Refs() != 1 {
		t.Fatalf("fresh generation: epoch=%d refs=%d, want 0/1", g0.Epoch, g0.Refs())
	}

	g0.acquire() // simulate an in-flight query pinning epoch 0
	if _, err := srv.Maintainer().InsertBatch("items",
		[]relation.Tuple{{relation.Int(9999), relation.Str("g1"), relation.Int(3)}}); err != nil {
		t.Fatal(err)
	}
	if srv.Generation() == g0 {
		t.Fatal("swap did not replace the head generation")
	}
	if srv.Generation().Epoch != 1 {
		t.Errorf("head epoch = %d, want 1", srv.Generation().Epoch)
	}
	select {
	case <-g0.Drained():
		t.Fatal("pinned generation drained early")
	default:
	}
	if live := srv.Stats().GenerationsLive; live != 2 {
		t.Errorf("generations live = %d, want 2", live)
	}

	// Queries issued now must run on epoch 1 even while epoch 0 is pinned.
	res, err := srv.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Errorf("query epoch = %d, want 1", res.Epoch)
	}

	g0.release()
	select {
	case <-g0.Drained():
	case <-time.After(time.Second):
		t.Fatal("generation did not drain after last release")
	}
	if live := srv.Stats().GenerationsLive; live != 1 {
		t.Errorf("generations live after drain = %d, want 1", live)
	}
}

// TestPreparedLRU: the cache evicts the least-recently-used statement,
// not the whole map.
func TestPreparedLRU(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 1, PreparedLimit: 2})
	qa := "SELECT COUNT(*) FROM items"
	qb := "SELECT COUNT(*) FROM groups"
	qc := "SELECT COUNT(*) FROM items WHERE val > 3"

	mustPrepared := func(q string, want bool) {
		t.Helper()
		res, err := srv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prepared != want {
			t.Errorf("query %q prepared=%v, want %v", q, res.Prepared, want)
		}
	}
	mustPrepared(qa, false)
	mustPrepared(qb, false)
	mustPrepared(qa, true)  // touch A: B becomes LRU
	mustPrepared(qc, false) // evicts B
	mustPrepared(qa, true)  // A survived
	mustPrepared(qb, false) // B was evicted
	if n := srv.Stats().PreparedSize; n != 2 {
		t.Errorf("prepared cache holds %d entries, want 2", n)
	}
}

// TestHTTPWrite drives the /write endpoint end to end: insert, query at
// the new epoch, delete by returned vertex id, and the read-only guard.
func TestHTTPWrite(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/write", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	count := func() float64 {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/query?sql=SELECT%20COUNT(*)%20FROM%20items")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr.Rows[0][0].(float64)
	}

	if n := count(); n != 60 {
		t.Fatalf("initial count = %v, want 60", n)
	}
	code, body := post(`{"table": "items", "insert": [[2000, "g0", 4], [2001, "g1", 5]]}`)
	if code != 200 {
		t.Fatalf("/write status = %d (%s)", code, body)
	}
	var wr WriteResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Epoch != 1 || len(wr.Inserted) != 2 {
		t.Fatalf("write response = %+v, want epoch 1 and 2 ids", wr)
	}
	if n := count(); n != 62 {
		t.Errorf("count after insert = %v, want 62", n)
	}

	code, body = post(fmt.Sprintf(`{"delete": [%d]}`, wr.Inserted[0]))
	if code != 200 {
		t.Fatalf("/write delete status = %d (%s)", code, body)
	}
	if n := count(); n != 61 {
		t.Errorf("count after delete = %v, want 61", n)
	}

	// Bad writes are rejected without publishing a generation.
	before := srv.Stats().Swaps
	for _, bad := range []string{
		`{"table": "nosuch", "insert": [[1]]}`,
		`{"table": "items", "insert": [[1, 2]]}`,
		`{"table": "items", "insert": [["x", "g0", 1]]}`,
		`{"table": "items", "insert": [[1.5, "g0", 1]]}`,
		`{"delete": [999999999]}`,
		`{"delete": [4294967301]}`,
		`{"delete": [-1]}`,
		`{}`,
	} {
		if code, _ := post(bad); code != 422 {
			t.Errorf("bad write %s: status %d, want 422", bad, code)
		}
	}
	if after := srv.Stats().Swaps; after != before {
		t.Errorf("bad writes published %d generations", after-before)
	}

	// Read-only handler refuses writes but still serves queries.
	ro := httptest.NewServer(ReadOnlyHandler(srv))
	defer ro.Close()
	resp, err := ro.Client().Post(ro.URL+"/write", "application/json",
		strings.NewReader(`{"delete": [1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Errorf("read-only /write status = %d, want 403", resp.StatusCode)
	}
}
