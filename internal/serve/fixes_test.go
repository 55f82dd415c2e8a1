package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

// TestPanickingQueryLeavesCleanStats is the regression test for the
// InFlight leak: a query that panics inside Run (net/http recovers
// handler panics, so in production the server lives on) must leave
// InFlight at 0, count an error, and release its generation pin and
// pool slot so the server keeps serving.
func TestPanickingQueryLeavesCleanStats(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2})

	orig := runSession
	runSession = func(sess *core.Session, ctx context.Context, an *sql.Analysis) (*relation.Relation, error) {
		panic("injected query panic")
	}
	defer func() { runSession = orig }()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected query did not panic")
			}
		}()
		srv.Query("SELECT COUNT(*) FROM items")
	}()

	st := srv.Stats()
	if st.InFlight != 0 {
		t.Errorf("InFlight after panic = %d, want 0", st.InFlight)
	}
	if st.Errors != 1 || st.Queries != 0 {
		t.Errorf("errors/queries after panic = %d/%d, want 1/0", st.Errors, st.Queries)
	}
	if refs := srv.Generation().Refs(); refs != 1 {
		t.Errorf("generation refs after panic = %d, want 1 (the publisher's)", refs)
	}

	// The pool slot came back and the server still serves.
	runSession = orig
	res, err := srv.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 {
		t.Fatalf("post-panic query returned %d rows", res.Rows.Len())
	}
	st = srv.Stats()
	if st.InFlight != 0 || st.Queries != 1 || st.Errors != 1 {
		t.Errorf("stats after recovery = inflight %d queries %d errors %d, want 0/1/1",
			st.InFlight, st.Queries, st.Errors)
	}
}

// TestCoalescedBatchNotTornByInsertFailure is the torn-op regression
// test: an op carrying both deletes and inserts whose insert fails
// *after* validation (injected through the insertBatch seam) must leave
// the shared clone untouched — its deletes must not leak into the
// generation the rest of the drain publishes.
func TestCoalescedBatchNotTornByInsertFailure(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2})
	maint := srv.Maintainer()

	// Seed a row whose vertex the failing op will try to delete.
	seed, err := maint.InsertBatch("items",
		[]relation.Tuple{{relation.Int(5000), relation.Str("g0"), relation.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	victim := seed.Inserted[0]

	orig := insertBatch
	insertBatch = func(g *tag.Graph, table string, rows []relation.Tuple) ([]bsp.VertexID, error) {
		if len(rows) > 0 && rows[0][0] == relation.Int(666666) {
			return nil, fmt.Errorf("injected post-validation insert failure")
		}
		return orig(g, table, rows)
	}
	defer func() { insertBatch = orig }()

	// Coalesce a good op and the failing op into one drain.
	var (
		goodRes, badRes *WriteResult
		goodErr, badErr error
		wg              sync.WaitGroup
	)
	holdLeaderUntilQueued(t, srv, 2, func() {
		wg.Add(2)
		go func() {
			defer wg.Done()
			goodRes, goodErr = maint.InsertBatch("items",
				[]relation.Tuple{{relation.Int(5001), relation.Str("g1"), relation.Int(2)}})
		}()
		go func() {
			defer wg.Done()
			badRes, badErr = maint.Apply(WriteOp{
				Table:  "items",
				Insert: []relation.Tuple{{relation.Int(666666), relation.Str("g2"), relation.Int(3)}},
				Delete: []bsp.VertexID{victim},
			})
		}()
	})
	wg.Wait()

	if badErr == nil || !strings.Contains(badErr.Error(), "injected") {
		t.Fatalf("failing op returned %v (res %+v), want the injected error", badErr, badRes)
	}
	if goodErr != nil {
		t.Fatalf("good op failed alongside: %v", goodErr)
	}
	if goodRes.Epoch != 2 || goodRes.Coalesced != 1 {
		t.Errorf("good op epoch/coalesced = %d/%d, want 2/1", goodRes.Epoch, goodRes.Coalesced)
	}

	// 60 base + seed + good insert; the failing op's insert AND delete
	// both absent. Before the fix the delete had already mutated the
	// shared clone and was published with the drain (count 61).
	res, err := srv.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 62 {
		t.Errorf("COUNT(*) = %d, want 62 (failed op must not publish its deletes)", n)
	}
	res, err = srv.Query("SELECT COUNT(*) FROM items WHERE ikey = 5000")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 1 {
		t.Errorf("victim row count = %d, want 1 (delete of the failed op leaked)", n)
	}

	// The victim vertex is still live: deleting it now must succeed.
	if _, err := maint.DeleteBatch([]bsp.VertexID{victim}); err != nil {
		t.Errorf("victim vertex unusable after failed op: %v", err)
	}
}

// TestHTTPMethodNotAllowed: unsupported methods get 405 with an Allow
// header instead of being silently treated as GET.
func TestHTTPMethodNotAllowed(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 1})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	cases := []struct {
		method, path, allow string
	}{
		{"DELETE", "/query?sql=SELECT%20COUNT(*)%20FROM%20items", "GET, POST"},
		{"PUT", "/query", "GET, POST"},
		{"POST", "/stats", "GET, HEAD"},
		{"DELETE", "/stats", "GET, HEAD"},
		{"POST", "/healthz", "GET, HEAD"},
		{"GET", "/write", "POST"},
		{"PUT", "/write", "POST"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
	}

	// A DELETE /query with valid SQL must not have executed the query —
	// the old handler fell through to the GET path and ran it.
	if st := srv.Stats(); st.Queries != 0 {
		t.Errorf("%d queries executed through rejected methods, want 0", st.Queries)
	}

	// The supported method sets still work, including HEAD probes.
	for _, probe := range []struct{ method, path string }{
		{"HEAD", "/healthz"}, {"HEAD", "/stats"}, {"GET", "/healthz"}, {"GET", "/stats"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d, want 200", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestHTTPMillisecondParams: a deadline_ms or wait_ms too large for a
// time.Duration is clamped (to no deadline, and to maxWait) instead of
// wrapping negative, and a non-finite one answers 400.
func TestHTTPMillisecondParams(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 1})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()
	sub, err := srv.Subscribe("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	const query = "/query?sql=SELECT%20COUNT(*)%20FROM%20items&deadline_ms="
	poll := "/subscribe?fp=" + url.QueryEscape(sub.FP) + "&wait_ms="
	cases := []struct {
		method, path, body string
		status             int
	}{
		{http.MethodGet, query + "1e13", "", http.StatusOK},
		{http.MethodGet, query + "1e300", "", http.StatusOK},
		{http.MethodPost, "/query", `{"sql": "SELECT COUNT(*) FROM items", "deadline_ms": 1e13}`, http.StatusOK},
		{http.MethodGet, query + "Inf", "", http.StatusBadRequest},
		{http.MethodGet, query + "-Inf", "", http.StatusBadRequest},
		{http.MethodGet, query + "NaN", "", http.StatusBadRequest},
		{http.MethodGet, poll + "NaN", "", http.StatusBadRequest},
		{http.MethodGet, poll + "Inf", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.status)
			continue
		}
		if c.status == http.StatusOK && (err != nil || out.RowCount != 1 || len(out.Rows) != 1) {
			t.Errorf("%s %s: %d rows (%v), want 1", c.method, c.path, out.RowCount, err)
		}
	}
	if d, err := clampWait(1e13); err != nil || d != maxWait {
		t.Errorf("clampWait(1e13) = %v, %v; want %v", d, err, maxWait)
	}
}

// TestJSONLargeInts: INT cells a float64-backed JSON client would
// round are emitted as strings; everything in the exact range stays a
// number.
func TestJSONLargeInts(t *testing.T) {
	exact := int64(1) << 53
	cases := []struct {
		in   relation.Value
		want any
	}{
		{relation.Int(42), int64(42)},
		{relation.Int(-42), int64(-42)},
		{relation.Int(exact), exact},
		{relation.Int(-exact), -exact},
		{relation.Int(exact + 1), "9007199254740993"},
		{relation.Int(-exact - 1), "-9007199254740993"},
		{relation.Int(1 << 60), "1152921504606846976"},
	}
	for _, c := range cases {
		if got := JSONValue(c.in); got != c.want {
			t.Errorf("JSONValue(%v) = %v (%T), want %v (%T)", c.in, got, got, c.want, c.want)
		}
	}

	// The string form round-trips back through /write's row decoder.
	schema := relation.MustSchema(relation.Col("k", relation.KindInt))
	row, err := decodeRow(schema, []any{"9007199254740993"})
	if err != nil {
		t.Fatalf("decodeRow rejected the string form JSONValue emits: %v", err)
	}
	if row[0] != relation.Int(exact+1) {
		t.Errorf("round-tripped value = %v, want %d", row[0], exact+1)
	}
	if _, err := decodeRow(schema, []any{"not-a-number"}); err == nil {
		t.Error("decodeRow accepted a non-numeric string for an INT column")
	}
}

// TestJSONNonFiniteFloats: FLOAT cells JSON has no number for are
// rendered as strings, /query answers them with a full body, and the
// string form round-trips back through /write's row decoder.
func TestJSONNonFiniteFloats(t *testing.T) {
	schema := relation.MustSchema(relation.Col("f", relation.KindFloat))
	for _, c := range []struct {
		in   float64
		want string
	}{{math.NaN(), "NaN"}, {math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}} {
		got := JSONValue(relation.Float(c.in))
		if got != c.want {
			t.Errorf("JSONValue(%v) = %v (%T), want %q", c.in, got, got, c.want)
		}
		row, err := decodeRow(schema, []any{got})
		if err != nil {
			t.Fatalf("decodeRow rejected the string form JSONValue emits: %v", err)
		}
		if f := row[0].F; row[0].Kind != relation.KindFloat || !(f == c.in || math.IsNaN(f) && math.IsNaN(c.in)) {
			t.Errorf("round-tripped value = %v, want %v", row[0], c.in)
		}
	}
	for _, bad := range []string{"inf", "Infinity", "nan", "1.5", ""} {
		if _, err := decodeRow(schema, []any{bad}); err == nil {
			t.Errorf("decodeRow accepted %q for a FLOAT column", bad)
		}
	}

	g := buildTPCH(t, 0.02)
	ts := httptest.NewServer(Handler(New(g, Options{Sessions: 1})))
	defer ts.Close()
	q := "SELECT SUM(9" + strings.Repeat("0", 307) + ".0) FROM nation"
	body, _ := json.Marshal(QueryRequest{SQL: q})
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("status %d, undecodable body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || len(qr.Rows) != 1 || qr.Rows[0][0] != "+Inf" {
		t.Errorf("status %d rows %v, want 200 and [[+Inf]]", resp.StatusCode, qr.Rows)
	}

	// A body JSON cannot encode answers 500 with an error, not 200 and
	// nothing.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, []float64{math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("unencodable body: status %d body %q, want 500 with an error", rec.Code, rec.Body)
	}
}
