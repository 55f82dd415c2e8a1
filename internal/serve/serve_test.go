package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpch"
)

func buildTPCH(t testing.TB, scale float64) *tag.Graph {
	t.Helper()
	cat := tpch.Generate(scale, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// workload is a mixed slice of the TPC-H-like queries: every aggregation
// class, a correlated query, and a cyclic one.
func workload() []tpch.Query {
	want := map[string]bool{"q1": true, "q3": true, "q4": true, "q5": true, "q6": true, "q10": true}
	var out []tpch.Query
	for _, q := range tpch.Queries() {
		if want[q.ID] {
			out = append(out, q)
		}
	}
	return out
}

// TestConcurrentMatchesSerial is the core safety test: many goroutines
// fire the workload at one shared graph through the session pool, and
// every answer must equal the serial single-session answer. Run with
// -race to catch sharing violations in the Session refactor.
func TestConcurrentMatchesSerial(t *testing.T) {
	g := buildTPCH(t, 0.1)
	queries := workload()

	// Serial reference on a single private session.
	ref := make(map[string]*relation.Relation)
	serial := core.NewSession(g, bsp.Options{Workers: 1})
	for _, q := range queries {
		out, err := serial.Query(q.SQL)
		if err != nil {
			t.Fatalf("serial %s: %v", q.ID, err)
		}
		ref[q.ID] = out
	}

	srv := New(g, Options{Sessions: 8})
	const clients = 16
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*len(queries))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the order so different queries overlap in flight.
				for i := range queries {
					q := queries[(i+c+r)%len(queries)]
					res, err := srv.Query(q.SQL)
					if err != nil {
						errs <- fmt.Errorf("%s: %w", q.ID, err)
						return
					}
					if !relation.EqualMultiset(res.Rows, ref[q.ID]) {
						errs <- fmt.Errorf("%s: concurrent result differs from serial", q.ID)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	wantQueries := int64(clients * rounds * len(queries))
	if st.Queries != wantQueries {
		t.Errorf("stats.Queries = %d, want %d", st.Queries, wantQueries)
	}
	if st.Errors != 0 || st.InFlight != 0 {
		t.Errorf("stats errors/inflight = %d/%d, want 0/0", st.Errors, st.InFlight)
	}
	// Every query is either a hit or a miss. Prepare deliberately lets
	// concurrent first requests for the same statement both miss (they
	// race to the write lock and the loser adopts the winner's Analysis),
	// so misses can exceed the distinct-query count by a few — but the
	// cache itself must end up with exactly one entry per statement.
	if st.PreparedHits+st.PreparedMisses != wantQueries {
		t.Errorf("hits+misses = %d, want %d", st.PreparedHits+st.PreparedMisses, wantQueries)
	}
	if st.PreparedMisses < int64(len(queries)) {
		t.Errorf("prepared misses = %d, want >= %d", st.PreparedMisses, len(queries))
	}
	if n := st.PreparedSize; n != int64(len(queries)) {
		t.Errorf("prepared cache holds %d entries, want %d", n, len(queries))
	}
}

// TestPreparedCacheNormalization: reformatted queries share one cache
// entry via the fingerprint.
func TestPreparedCacheNormalization(t *testing.T) {
	g := buildTPCH(t, 0.05)
	srv := New(g, Options{Sessions: 2})
	variants := []string{
		"SELECT COUNT(*) FROM orders WHERE o_orderkey < 100",
		"select count(*)  from  ORDERS\n where o_orderkey < 100",
		"select COUNT( * ) from orders where O_ORDERKEY < 100",
	}
	var first *relation.Relation
	for i, q := range variants {
		res, err := srv.Query(q)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if i == 0 {
			first = res.Rows
			if res.Prepared {
				t.Error("first run should be a cache miss")
			}
		} else {
			if !res.Prepared {
				t.Errorf("variant %d should hit the prepared cache", i)
			}
			if !relation.EqualMultiset(res.Rows, first) {
				t.Errorf("variant %d differs", i)
			}
		}
	}
	if n := srv.Stats().PreparedSize; n != 1 {
		t.Errorf("prepared cache holds %d entries, want 1", n)
	}
}

func TestPoolBlocksAtCapacity(t *testing.T) {
	g := buildTPCH(t, 0.01)
	p := NewPool(g, bsp.Options{Workers: 1}, 2)
	a, b := mustAcquire(t, p), mustAcquire(t, p)
	if a == b {
		t.Fatal("pool must hand out distinct sessions")
	}
	if s := tryAcquire(t, p); s != nil {
		t.Fatal("acquire must be refused on an exhausted pool")
	}
	p.Release(a)
	if s := tryAcquire(t, p); s != a {
		t.Fatal("released session should be reacquired")
	}
}

func TestHTTPQueryAndStats(t *testing.T) {
	g := buildTPCH(t, 0.05)
	srv := New(g, Options{Sessions: 2})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	// POST /query
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT COUNT(*) FROM nation"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 1 || len(qr.Rows) != 1 {
		t.Fatalf("rows = %+v", qr.Rows)
	}
	if n, ok := qr.Rows[0][0].(float64); !ok || n != 25 {
		t.Errorf("COUNT(*) over nation = %v, want 25", qr.Rows[0][0])
	}

	// Malformed SQL surfaces as a JSON error, not a 500.
	resp2, err := ts.Client().Get(ts.URL + "/query?sql=SELEKT")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 422 {
		t.Errorf("bad query status = %d, want 422", resp2.StatusCode)
	}

	// GET /stats reflects the one successful and one failed query.
	st := fetchStats(t, ts)
	if statInt(t, st, "queries") != 1 || statInt(t, st, "errors") != 1 {
		t.Errorf("stats = %+v, want 1 query and 1 error", st)
	}
	// The scalar COUNT funnels every nation row's partial into the
	// aggregator vertex; the combined message plane must have folded
	// those sends and surfaced the counters through /stats.
	combined, saved := statInt(t, st, "bsp_messages_combined"), statInt(t, st, "bsp_inbox_bytes_saved")
	if combined <= 0 {
		t.Errorf("stats report no combined messages: %+v", st)
	}
	if saved < combined*24 {
		t.Errorf("saved bytes %d below the Message-slot floor for %d folds", saved, combined)
	}
}
