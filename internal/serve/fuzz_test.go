package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestHTTPFuzzRejections fires a table of hostile and malformed
// requests at the HTTP layer. The contract under attack: every bad
// input answers with a 4xx carrying a JSON {"error": ...} body — never
// a 500, never a panic, never a half-applied write. The serving
// process is a long-lived multi-tenant boundary; this is its input
// validation regression net.
func TestHTTPFuzzRejections(t *testing.T) {
	g := buildTPCH(t, 0.02)
	srv := New(g, Options{Sessions: 2})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	cases := []struct {
		name       string
		method     string // default POST
		path       string
		body       string
		wantStatus int // 0 = any 4xx
	}{
		// /query: malformed envelopes
		{name: "query empty sql", path: "/query", body: `{"sql": ""}`, wantStatus: 400},
		{name: "query missing sql", path: "/query", body: `{}`, wantStatus: 400},
		{name: "query sql wrong type", path: "/query", body: `{"sql": 42}`, wantStatus: 400},
		{name: "query truncated json", path: "/query", body: `{"sql": "SELECT`, wantStatus: 400},
		{name: "query body not json", path: "/query", body: `SELECT COUNT(*) FROM nation`, wantStatus: 400},
		{name: "query get without sql", method: http.MethodGet, path: "/query", wantStatus: 400},
		// /query: hostile SQL
		{name: "sql bare keyword", path: "/query", body: `{"sql": "SELECT"}`, wantStatus: 422},
		{name: "sql unknown table", path: "/query", body: `{"sql": "SELECT COUNT(*) FROM no_such_table"}`, wantStatus: 422},
		{name: "sql unknown column", path: "/query", body: `{"sql": "SELECT no_such_column FROM nation"}`, wantStatus: 422},
		{name: "sql unterminated literal", path: "/query", body: `{"sql": "SELECT COUNT(*) FROM nation WHERE n_comment = 'oops"}`, wantStatus: 422},
		{name: "sql paren bomb", path: "/query", body: `{"sql": "SELECT ((((((((((((((( FROM nation"}`, wantStatus: 422},
		{name: "sql ddl statement", path: "/query", body: `{"sql": "DROP TABLE nation"}`, wantStatus: 422},
		{name: "sql stacked statements", path: "/query", body: `{"sql": "SELECT n_name FROM nation; SELECT n_name FROM nation"}`, wantStatus: 422},
		{name: "sql null bytes", path: "/query", body: "{\"sql\": \"SELECT \\u0000 \\u0000 FROM nation\"}", wantStatus: 422},
		{name: "sql long garbage", path: "/query", body: `{"sql": "SELECT ` + strings.Repeat("garbage ", 4096) + `"}`, wantStatus: 422},
		// /write: malformed envelopes
		{name: "write truncated json", path: "/write", body: `{"table": "nation", "insert": [[`, wantStatus: 400},
		{name: "write body not json", path: "/write", body: `nation,1,A`, wantStatus: 400},
		{name: "write empty", path: "/write", body: `{}`, wantStatus: 422},
		{name: "write insert without table", path: "/write", body: `{"insert": [[1, "A", 1, "c"]]}`, wantStatus: 422},
		// /write: schema violations
		{name: "write unknown table", path: "/write", body: `{"table": "no_such_table", "insert": [[1, "A", 1, "c"]]}`, wantStatus: 422},
		{name: "write arity short", path: "/write", body: `{"table": "nation", "insert": [[1, "A"]]}`, wantStatus: 422},
		{name: "write arity long", path: "/write", body: `{"table": "nation", "insert": [[1, "A", 1, "c", "extra"]]}`, wantStatus: 422},
		// /write: cell type violations
		{name: "write string into int", path: "/write", body: `{"table": "nation", "insert": [["x", "A", 1, "c"]]}`, wantStatus: 422},
		{name: "write fractional int", path: "/write", body: `{"table": "nation", "insert": [[1.5, "A", 1, "c"]]}`, wantStatus: 422},
		{name: "write bool cell", path: "/write", body: `{"table": "nation", "insert": [[1, true, 1, "c"]]}`, wantStatus: 422},
		{name: "write nested array cell", path: "/write", body: `{"table": "nation", "insert": [[1, "A", 1, ["c"]]]}`, wantStatus: 422},
		{name: "write object cell", path: "/write", body: `{"table": "nation", "insert": [[1, "A", 1, {"k": "v"}]]}`, wantStatus: 422},
		{name: "write int overflow string", path: "/write", body: `{"table": "nation", "insert": [["999999999999999999999999", "A", 1, "c"]]}`, wantStatus: 422},
		// /write: hostile deletes
		{name: "write delete negative", path: "/write", body: `{"delete": [-1]}`, wantStatus: 422},
		{name: "write delete huge", path: "/write", body: `{"delete": [99999999999]}`, wantStatus: 422},
		{name: "write delete missing vertex", path: "/write", body: `{"delete": [123456789]}`, wantStatus: 422},
		// method discipline
		{name: "query delete method", method: http.MethodDelete, path: "/query", body: `{"sql": "SELECT n_name FROM nation"}`, wantStatus: 405},
		{name: "write get method", method: http.MethodGet, path: "/write", wantStatus: 405},
		{name: "stats post method", method: http.MethodPost, path: "/stats", wantStatus: 405},
		{name: "healthz post method", method: http.MethodPost, path: "/healthz", wantStatus: 405},
	}

	epochBefore := currentEpoch(t, ts)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			if rd != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("request died (crashed handler?): %v", err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantStatus != 0 && resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("status = %d, want a 4xx client error (body %s)", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("no JSON error body: %s", body)
			}
		})
	}

	// Nothing in the barrage may have mutated the graph...
	if after := currentEpoch(t, ts); after != epochBefore {
		t.Errorf("epoch moved %d -> %d during rejection-only traffic", epochBefore, after)
	}
	// ...and the server must still answer real queries.
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT COUNT(*) FROM nation"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthy query after fuzz: status = %d", resp.StatusCode)
	}
}

// TestHTTPWriteRejectionIsAtomic sends one /write whose first row is
// valid and second row is garbage: the whole batch must be refused and
// no partial state may leak into query results.
func TestHTTPWriteRejectionIsAtomic(t *testing.T) {
	g := buildTPCH(t, 0.02)
	srv := New(g, Options{Sessions: 2})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/write", "application/json",
		strings.NewReader(`{"table": "nation", "insert": [[900, "OK", 1, "atomic-probe"], ["bad", "NO", 1, "atomic-probe"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 422 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("mixed batch status = %d, want 422 (body %s)", resp.StatusCode, body)
	}

	q, err := ts.Client().Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT COUNT(*) FROM nation WHERE n_comment = 'atomic-probe'"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) == 0 || qr.Rows[0][0].(float64) != 0 {
		t.Errorf("rejected batch leaked rows: %+v", qr.Rows)
	}
}

// currentEpoch reads the served epoch off /stats.
func currentEpoch(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	return uint64(statInt(t, fetchStats(t, ts), "epoch"))
}

// FuzzDecodeWrite: /write hands decodeWrite whatever JSON a client
// sends. On any body it never panics and never allocates more than a
// constant factor of the bytes it was given, and every row it accepts,
// rendered cell by cell as /query renders it and decoded again, is the
// row it was.
func FuzzDecodeWrite(f *testing.F) {
	srv := New(buildTPCH(f, 0.02), Options{Sessions: 1})
	cat := srv.Graph().Catalog
	for _, name := range cat.Names() {
		rel := cat.Get(name)
		if rel.Len() == 0 {
			continue
		}
		row := make([]any, len(rel.Tuples[0]))
		for i, v := range rel.Tuples[0] {
			row[i] = JSONValue(v)
		}
		b, err := json.Marshal(WriteRequest{Table: name, Insert: [][]any{row}, Delete: []int64{1}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"table": "nation", "insert": [["9007199254740993", "A", 1, "c"], [1, null, 1.5, ""]]}`,
		`{"table": "customer", "insert": [[1, "c", 1, "s", "NaN", "x"], [2, "c", 1, "s", "-Inf", "x"], [3, "c", 1, "s", -0, "x"]]}`,
		`{"table": "orders", "insert": [[1, 1, "O", 1.5, "1995-01-31", "1", 0, "c"], [2, 1, "O", "+Inf", 9000, "1", 0, "c"]]}`,
		`{"table": "orders", "insert": [[3, 1, "O", 1e308, 9000000, "1", 0, "c"], [4, 1, "O", 0, -800000, "1", 0, "c"]]}`,
		`{"table": "orders", "insert": [[5, 1, "O", 0, -719528, "1", 0, "c"], [6, 1, "O", 0, 2932896, "1", 0, "c"]]}`,
		`{"table": "nation", "insert": [[1.5, "A", 1, "c"]], "delete": [-1, 99999999999]}`,
		`{"table": "nation", "insert": [[1, "A", 1, [[[[1, 2, {"k": "v"}]]]]]]}`,
		`{"insert": [[]], "delete": [0]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req WriteRequest
		err := json.Unmarshal(body, &req)
		var op WriteOp
		if err == nil {
			op, err = decodeWrite(srv, req)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(body))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(body), d)
		}
		if err != nil {
			return
		}
		rel := cat.Get(op.Table)
		for _, row := range op.Insert {
			cells := make([]any, len(row))
			for i, v := range row {
				cells[i] = JSONValue(v)
			}
			b, err := json.Marshal(cells)
			if err != nil {
				t.Fatalf("row %v does not render: %v", row, err)
			}
			var raw []any
			if err := json.Unmarshal(b, &raw); err != nil {
				t.Fatal(err)
			}
			again, err := decodeRow(rel.Schema, raw)
			if err != nil {
				t.Fatalf("row %v renders as %s, which does not decode: %v", row, b, err)
			}
			for i := range row {
				if !sameValue(row[i], again[i]) {
					t.Fatalf("row %v renders as %s, which decodes to %v", row, b, again)
				}
			}
		}
	})
}

// sameValue reports whether two values are the same cell, NaN
// included.
func sameValue(a, b relation.Value) bool {
	if a.Kind == relation.KindFloat && b.Kind == relation.KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}
