package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fetchStats GETs /stats and decodes it by key. Numbers stay
// json.Number so a uint64 epoch or a large counter compares exactly.
func fetchStats(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status = %d, want 200", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var st map[string]any
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return st
}

// statInt reads one integer /stats key, failing the test if it is
// absent or not an integer.
func statInt(t *testing.T, st map[string]any, key string) int64 {
	t.Helper()
	n, ok := st[key].(json.Number)
	if !ok {
		t.Fatalf("/stats[%q] = %#v, want a number", key, st[key])
	}
	v, err := n.Int64()
	if err != nil {
		t.Fatalf("/stats[%q] = %s, want an integer", key, n)
	}
	return v
}

// canonical renders a decoded /stats value in one comparable form:
// integers in decimal, other numbers as the shortest float, bools as
// true/false.
func canonical(v any) string {
	if n, ok := v.(json.Number); ok {
		if i, err := n.Int64(); err == nil {
			return strconv.FormatInt(i, 10)
		}
		if u, err := strconv.ParseUint(n.String(), 10, 64); err == nil {
			return strconv.FormatUint(u, 10)
		}
		f, _ := n.Float64()
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// goldenMetrics is every counter and gauge line /metrics served for the
// scripted sequence before /stats and /metrics shared one declaration.
// Each must survive byte for byte.
const goldenMetrics = `# HELP tagserve_queries_total Queries completed successfully.
# TYPE tagserve_queries_total counter
tagserve_queries_total 2
# HELP tagserve_query_errors_total Queries that failed (parse, analyze, or execution).
# TYPE tagserve_query_errors_total counter
tagserve_query_errors_total 1
# HELP tagserve_queries_canceled_total Queries aborted by deadline or client cancellation.
# TYPE tagserve_queries_canceled_total counter
tagserve_queries_canceled_total 0
# HELP tagserve_admission_rejected_total Queries refused by admission control (session pool exhausted past the bounded wait).
# TYPE tagserve_admission_rejected_total counter
tagserve_admission_rejected_total 0
# HELP tagserve_write_rejected_total Writes refused by admission control (write queue full past the bounded wait).
# TYPE tagserve_write_rejected_total counter
tagserve_write_rejected_total 0
# HELP tagserve_prepared_hits_total Queries served from the prepared-statement cache.
# TYPE tagserve_prepared_hits_total counter
tagserve_prepared_hits_total 1
# HELP tagserve_prepared_misses_total Queries analyzed afresh.
# TYPE tagserve_prepared_misses_total counter
tagserve_prepared_misses_total 2
# HELP tagserve_generation_swaps_total Graph generations published since startup.
# TYPE tagserve_generation_swaps_total counter
tagserve_generation_swaps_total 1
# HELP tagserve_write_ops_total Write ops applied through the Maintainer.
# TYPE tagserve_write_ops_total counter
tagserve_write_ops_total 1
# HELP tagserve_rows_inserted_total Rows inserted through the Maintainer.
# TYPE tagserve_rows_inserted_total counter
tagserve_rows_inserted_total 1
# HELP tagserve_rows_deleted_total Rows deleted through the Maintainer.
# TYPE tagserve_rows_deleted_total counter
tagserve_rows_deleted_total 0
# HELP tagserve_wal_records_total WAL records appended since boot.
# TYPE tagserve_wal_records_total counter
tagserve_wal_records_total 0
# HELP tagserve_wal_bytes_total WAL bytes appended since boot.
# TYPE tagserve_wal_bytes_total counter
tagserve_wal_bytes_total 0
# HELP tagserve_wal_fsyncs_total Fsyncs issued by the WAL sync policy.
# TYPE tagserve_wal_fsyncs_total counter
tagserve_wal_fsyncs_total 0
# HELP tagserve_checkpoints_total Checkpoints written since boot.
# TYPE tagserve_checkpoints_total counter
tagserve_checkpoints_total 0
# HELP tagserve_incremental_hits_total Pinned-query epoch advances folded incrementally from the write delta.
# TYPE tagserve_incremental_hits_total counter
tagserve_incremental_hits_total 0
# HELP tagserve_incremental_fallbacks_total Pinned-query epoch advances that re-ran the query cold.
# TYPE tagserve_incremental_fallbacks_total counter
tagserve_incremental_fallbacks_total 0
# HELP tagserve_incremental_mismatches_total Verified folds that diverged from the cold run (cold answer won).
# TYPE tagserve_incremental_mismatches_total counter
tagserve_incremental_mismatches_total 0
# HELP tagserve_bsp_messages_total BSP messages sent by all queries (the paper's M).
# TYPE tagserve_bsp_messages_total counter
tagserve_bsp_messages_total 120
# HELP tagserve_bsp_supersteps_total BSP supersteps run by all queries.
# TYPE tagserve_bsp_supersteps_total counter
tagserve_bsp_supersteps_total 6
# HELP tagserve_sessions_in_flight Queries currently executing.
# TYPE tagserve_sessions_in_flight gauge
tagserve_sessions_in_flight 0
# HELP tagserve_write_queue_depth Writes queued or applying.
# TYPE tagserve_write_queue_depth gauge
tagserve_write_queue_depth 0
# HELP tagserve_generations_live Published but not yet drained graph generations.
# TYPE tagserve_generations_live gauge
tagserve_generations_live 1
# HELP tagserve_epoch Epoch of the currently served generation.
# TYPE tagserve_epoch gauge
tagserve_epoch 1
# HELP tagserve_prepared_statements Cached prepared statements.
# TYPE tagserve_prepared_statements gauge
tagserve_prepared_statements 1
# HELP tagserve_pinned_queries Currently pinned (subscribed) queries.
# TYPE tagserve_pinned_queries gauge
tagserve_pinned_queries 0
`

// TestStatsViewsGolden drives a fixed sequence (two successful queries,
// one parse error, one /write) and pins both operator views of it:
// every /stats key and value, and every counter/gauge line /metrics
// has always served.
func TestStatsViewsGolden(t *testing.T) {
	srv := admissionServer(t, Options{Sessions: 1})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	send := func(method, path, body string, wantStatus int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(resp)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s status = %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
	}
	send("GET", "/query?sql=SELECT%20COUNT(*)%20FROM%20items", "", http.StatusOK)
	send("GET", "/query?sql=SELECT%20COUNT(*)%20FROM%20items", "", http.StatusOK)
	send("GET", "/query?sql=SELEKT", "", http.StatusUnprocessableEntity)
	send("POST", "/write", `{"table":"items","insert":[[9000,"g1",4]]}`, http.StatusOK)

	// The two latency keys depend on the clock; everything else is fixed
	// by the sequence. No dist_* keys: this server is local.
	snap := srv.Stats()
	want := map[string]string{
		"queries": "2", "errors": "1", "canceled": "0", "rejected": "0",
		"write_rejected": "0", "write_queue_depth": "0", "in_flight": "0",
		"prepared_hits": "1", "prepared_misses": "2", "prepared_size": "1",
		"avg_ms": strconv.FormatFloat(ms(snap.TotalTime)/2, 'g', -1, 64),
		"max_ms": strconv.FormatFloat(ms(snap.MaxTime), 'g', -1, 64),
		"epoch":  "1", "swaps": "1", "write_ops": "1", "generations_live": "1",
		"rows_inserted": "1", "rows_deleted": "0",
		"bsp_supersteps": "6", "bsp_messages": "120", "bsp_message_bytes": "5760",
		"bsp_compute_ops": "480", "bsp_messages_combined": "118", "bsp_inbox_bytes_saved": "2832",
		"wal_records": "0", "wal_bytes": "0", "wal_fsyncs": "0",
		"wal_replayed_epochs": "0", "wal_skipped_epochs": "0", "wal_truncations": "0",
		"checkpoints": "0", "checkpoint_epoch": "0", "checkpoint_errors": "0",
		"pinned_queries": "0", "incremental_hits": "0",
		"incremental_fallbacks": "0", "incremental_mismatches": "0",
	}
	got := map[string]string{}
	for k, v := range fetchStats(t, ts) {
		got[k] = canonical(v)
	}
	if !reflect.DeepEqual(got, want) {
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("/stats[%q] = %q, want %q", k, got[k], want[k])
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("/stats has unexpected key %q = %q", k, got[k])
			}
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]bool{}
	for _, line := range strings.Split(met, "\n") {
		served[line] = true
	}
	for _, line := range strings.Split(strings.TrimSuffix(goldenMetrics, "\n"), "\n") {
		if !served[line] {
			t.Errorf("/metrics lost line %q", line)
		}
	}

	// Parity: every /stats key has exactly one unlabelled /metrics series
	// carrying the same value, and every unlabelled series is a /stats
	// key. (Labelled series are the latency histogram and quantiles.)
	samples := map[string][]string{}
	for _, line := range strings.Split(met, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		samples[name] = append(samples[name], metricValue(val))
	}
	promOf := map[string]string{}
	for _, r := range statRows {
		promOf[r.key] = r.prom
	}
	for key, v := range fetchStats(t, ts) {
		prom, ok := promOf[key]
		if !ok {
			t.Errorf("/stats key %q has no statRows row", key)
			continue
		}
		want := canonical(v)
		if b, ok := v.(bool); ok {
			want = map[bool]string{false: "0", true: "1"}[b]
		}
		if got := samples[prom]; len(got) != 1 || got[0] != want {
			t.Errorf("/stats[%q] = %s but /metrics %s = %v, want exactly one series with that value", key, want, prom, got)
		}
		delete(samples, prom)
	}
	for name := range samples {
		t.Errorf("/metrics series %s has no /stats key", name)
	}
}

// metricValue renders a /metrics sample value in canonical's form.
func metricValue(s string) string {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return strconv.FormatInt(i, 10)
	}
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return strconv.FormatUint(u, 10)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return "unparsable " + s
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// TestStatRowsDeclareEachCounterOnce: no two rows share a JSON key or a
// Prometheus name, every row names a known metric type, and the
// distributed gauges keep /stats' omit-when-zero shape in both views.
func TestStatRowsDeclareEachCounterOnce(t *testing.T) {
	keys, proms := map[string]bool{}, map[string]bool{}
	for _, r := range statRows {
		if keys[r.key] || proms[r.prom] {
			t.Errorf("row %q/%q declared twice", r.key, r.prom)
		}
		keys[r.key], proms[r.prom] = true, true
		if r.typ != "counter" && r.typ != "gauge" {
			t.Errorf("row %q has metric type %q", r.key, r.typ)
		}
		if strings.HasSuffix(r.prom, "_total") != (r.typ == "counter") {
			t.Errorf("row %q: %s is a %s; only counters end in _total", r.key, r.prom, r.typ)
		}
	}

	for _, tc := range []struct {
		name string
		st   Stats
		want map[string]any
	}{
		{"local", Stats{}, map[string]any{}},
		{"healthy topology", Stats{DistParts: 2}, map[string]any{"dist_parts": int64(2)}},
		{"degraded topology", Stats{DistParts: 2, DistDegraded: true},
			map[string]any{"dist_parts": int64(2), "dist_degraded": true}},
	} {
		got := statsJSON(tc.st)
		for _, k := range []string{"dist_parts", "dist_degraded"} {
			if got[k] != tc.want[k] {
				t.Errorf("%s: /stats[%q] = %#v, want %#v", tc.name, k, got[k], tc.want[k])
			}
		}
	}
}
