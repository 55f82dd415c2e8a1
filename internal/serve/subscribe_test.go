package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
)

// currentAnswer is a subscription's answer and epoch right now: a
// long-poll whose wait is already over.
func currentAnswer(srv *Server, fp string) (*relation.Relation, uint64, bool) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return srv.WaitAnswer(ctx, fp, math.MaxUint64)
}

// TestSubscribeIncrementalMaintenance pins a mix of incrementally
// eligible and ineligible queries, drives a write stream through the
// Maintainer, and asserts after every epoch that each pinned answer is
// byte-identical to a cold run on the same generation — with
// VerifyIncremental on, so the server itself also cross-checks every
// fold and counts divergences.
func TestSubscribeIncrementalMaintenance(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2, VerifyIncremental: true})
	maint := srv.Maintainer()

	queries := []struct {
		sql     string
		wantInc bool
	}{
		{"SELECT grp, SUM(val) FROM items GROUP BY grp", true},
		{"SELECT COUNT(*) FROM items", true},
		{"SELECT COUNT(*) FROM items, groups WHERE items.grp = groups.gname AND groups.weight > 2", true},
		// Subquery: pinned, but maintained by cold re-runs.
		{"SELECT gname FROM groups WHERE weight > (SELECT COUNT(*) FROM items WHERE grp = gname)", false},
	}
	fps := make([]string, len(queries))
	for i, q := range queries {
		res, err := srv.Subscribe(q.sql)
		if err != nil {
			t.Fatalf("subscribe %q: %v", q.sql, err)
		}
		if res.Eligible != q.wantInc {
			t.Errorf("subscribe %q: incremental=%v (%s), want %v", q.sql, res.Eligible, res.Reason, q.wantInc)
		}
		if res.Epoch != 0 {
			t.Errorf("subscribe %q: epoch %d, want 0", q.sql, res.Epoch)
		}
		fps[i] = res.FP
	}
	if n := srv.Stats().PinnedQueries; n != int64(len(queries)) {
		t.Fatalf("pinned = %d, want %d", n, len(queries))
	}

	// Re-pinning the same statement (reformatted) shares the subscription.
	res, err := srv.Subscribe("select   grp, sum(val) from items group by grp")
	if err != nil {
		t.Fatal(err)
	}
	if res.FP != fps[0] || res.Pins != 2 {
		t.Errorf("re-pin: fp %s pins %d, want %s / 2", res.FP, res.Pins, fps[0])
	}
	if n := srv.Stats().PinnedQueries; n != int64(len(queries)) {
		t.Errorf("pinned after re-pin = %d, want %d", n, len(queries))
	}

	checkAll := func(epoch uint64) {
		t.Helper()
		for i, q := range queries {
			answer, gotEpoch, ok := currentAnswer(srv, fps[i])
			if !ok {
				t.Fatalf("subscription %s vanished", fps[i])
			}
			if gotEpoch != epoch {
				t.Fatalf("%q: answer at epoch %d, want %d", q.sql, gotEpoch, epoch)
			}
			cold, err := srv.Query(q.sql)
			if err != nil {
				t.Fatalf("cold %q: %v", q.sql, err)
			}
			if cold.Epoch != epoch {
				t.Fatalf("cold run answered on epoch %d, want %d", cold.Epoch, epoch)
			}
			if !bytes.Equal(core.CanonicalBytes(answer), core.CanonicalBytes(cold.Rows)) {
				t.Fatalf("%q epoch %d: pinned answer diverges from cold run\npinned: %v\ncold:   %v",
					q.sql, epoch, answer.Tuples, cold.Rows.Tuples)
			}
		}
	}
	checkAll(0)

	// Insert-only epochs: every eligible subscription must fold.
	var inserted []int64
	for e := 1; e <= 3; e++ {
		var rows []relation.Tuple
		for r := 0; r < 4; r++ {
			k := int64(5000 + e*10 + r)
			rows = append(rows, relation.Tuple{
				relation.Int(k), relation.Str(fmt.Sprintf("g%d", k%5)), relation.Int(k % 7)})
		}
		wr, err := maint.InsertBatch("items", rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range wr.Inserted {
			inserted = append(inserted, int64(id))
		}
		checkAll(wr.Epoch)
	}
	st := srv.Stats()
	// 3 insert epochs x 3 eligible pins fold; the subquery pin re-runs.
	if st.IncrementalHits != 9 {
		t.Errorf("IncrementalHits = %d, want 9", st.IncrementalHits)
	}
	if st.IncrementalFallbacks != 3 {
		t.Errorf("IncrementalFallbacks = %d, want 3", st.IncrementalFallbacks)
	}

	// A delete epoch: the retraction forces eligible pins to fall back
	// too — and the rebuilt answers must still match cold.
	wr, err := maint.DeleteBatch([]bsp.VertexID{bsp.VertexID(inserted[0]), bsp.VertexID(inserted[1])})
	if err != nil {
		t.Fatal(err)
	}
	checkAll(wr.Epoch)

	st = srv.Stats()
	if st.PinnedQueries != int64(len(queries)) {
		t.Errorf("PinnedQueries = %d, want %d", st.PinnedQueries, len(queries))
	}
	if st.IncrementalFallbacks != 7 {
		t.Errorf("IncrementalFallbacks = %d, want 7", st.IncrementalFallbacks)
	}
	if st.IncrementalMismatches != 0 {
		t.Errorf("IncrementalMismatches = %d, want 0 — a fold diverged from its cold verify run", st.IncrementalMismatches)
	}

	// Unpin: the shared subscription survives its first unpin, dies on
	// the second; the rest unpin cleanly.
	if rem, ok := srv.Unsubscribe(fps[0]); !ok || rem != 1 {
		t.Errorf("first unpin: remaining=%d ok=%v, want 1/true", rem, ok)
	}
	if rem, ok := srv.Unsubscribe(fps[0]); !ok || rem != 0 {
		t.Errorf("second unpin: remaining=%d ok=%v, want 0/true", rem, ok)
	}
	if _, ok := srv.Unsubscribe(fps[0]); ok {
		t.Error("unpinning a dead subscription reported ok")
	}
	if n := srv.Stats().PinnedQueries; n != int64(len(queries))-1 {
		t.Errorf("pinned after unpins = %d, want %d", n, len(queries)-1)
	}
}

// TestSubscribeHTTP drives the /subscribe endpoints end to end: pin,
// long-poll across a write, metrics exposure, unpin, and the 4xx error
// contract for hostile inputs (never a 500, epoch never moved).
func TestSubscribeHTTP(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 2, VerifyIncremental: true})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	status, out := post("/subscribe", `{"sql": "SELECT grp, COUNT(*) FROM items GROUP BY grp"}`)
	if status != http.StatusOK {
		t.Fatalf("subscribe: status %d (%v)", status, out)
	}
	fp, _ := out["fp"].(string)
	if fp == "" || out["incremental"] != true {
		t.Fatalf("subscribe response: %v", out)
	}
	if rc, _ := out["row_count"].(float64); rc != 5 {
		t.Fatalf("subscribe row_count = %v, want 5", out["row_count"])
	}

	// Long-poll for the next epoch while a write lands.
	type pollResult struct {
		status int
		body   map[string]any
	}
	poll := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/subscribe?after=0&wait_ms=5000&fp=" + url.QueryEscape(fp))
		if err != nil {
			poll <- pollResult{status: -1}
			return
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		poll <- pollResult{status: resp.StatusCode, body: body}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	if status, out := post("/write", `{"table": "items", "insert": [[9001, "g1", 3]]}`); status != http.StatusOK {
		t.Fatalf("write: status %d (%v)", status, out)
	}
	select {
	case pr := <-poll:
		if pr.status != http.StatusOK {
			t.Fatalf("long-poll: status %d", pr.status)
		}
		if epoch, _ := pr.body["epoch"].(float64); epoch != 1 {
			t.Fatalf("long-poll epoch = %v, want 1", pr.body["epoch"])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke after the write")
	}

	// The refreshed answer matches a cold /query byte-for-byte via the
	// exported metrics' mismatch counter (verify mode is on) and directly.
	answer, epoch, ok := currentAnswer(srv, fp)
	if !ok || epoch != 1 {
		t.Fatalf("current answer: epoch %d ok %v", epoch, ok)
	}
	cold, err := srv.Query("SELECT grp, COUNT(*) FROM items GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(core.CanonicalBytes(answer), core.CanonicalBytes(cold.Rows)) {
		t.Fatal("pinned answer diverges from cold /query")
	}

	// Metrics expose the subscription gauges and counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := readAll(resp)
	for _, want := range []string{
		"tagserve_pinned_queries 1",
		"tagserve_incremental_hits_total 1",
		"tagserve_incremental_fallbacks_total 0",
		"tagserve_incremental_mismatches_total 0",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// /stats carries the same counters.
	stats := fetchStats(t, ts)
	pinned, hits, mismatches := statInt(t, stats, "pinned_queries"),
		statInt(t, stats, "incremental_hits"), statInt(t, stats, "incremental_mismatches")
	if pinned != 1 || hits != 1 || mismatches != 0 {
		t.Errorf("/stats pinned/hits/mismatches = %d/%d/%d, want 1/1/0", pinned, hits, mismatches)
	}

	// Hostile inputs: every one a 4xx, never a 5xx, and the epoch must
	// not move (subscription handling is read-only on the graph).
	epochBefore := srv.Generation().Epoch
	hostile := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/subscribe", `{"sql": ""}`},
		{http.MethodPost, "/subscribe", `{`},
		{http.MethodPost, "/subscribe", `{"sql": "SELECT FROM WHERE"}`},
		{http.MethodPost, "/subscribe", `{"sql": "SELECT nope FROM missing_table"}`},
		{http.MethodGet, "/subscribe", ""},
		{http.MethodGet, "/subscribe?fp=deadbeef&wait_ms=1", ""},
		{http.MethodGet, "/subscribe?after=notanumber&fp=" + url.QueryEscape(fp), ""},
		{http.MethodGet, "/subscribe?wait_ms=-5&fp=" + url.QueryEscape(fp), ""},
		{http.MethodDelete, "/subscribe", ""},
		{http.MethodDelete, "/subscribe?fp=deadbeef", ""},
		{http.MethodPut, "/subscribe", `{}`},
	}
	for _, h := range hostile {
		req, err := http.NewRequest(h.method, ts.URL+h.path, strings.NewReader(h.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s %s %q: status %d, want 4xx", h.method, h.path, h.body, resp.StatusCode)
		}
	}
	if got := srv.Generation().Epoch; got != epochBefore {
		t.Errorf("hostile subscribe traffic moved the epoch %d -> %d", epochBefore, got)
	}

	// Unpin over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/subscribe?fp="+url.QueryEscape(fp), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unsubscribe: status %d", resp.StatusCode)
	}
	if n := srv.Stats().PinnedQueries; n != 0 {
		t.Errorf("pinned after DELETE = %d, want 0", n)
	}
}

// TestSubscribeConcurrentWithWrites races subscribers, long-pollers and
// writers; run with -race. Every observed answer must match a cold run
// of the epoch it claims (VerifyIncremental enforces the fold side; the
// reader side checks the served pair is internally consistent).
func TestSubscribeConcurrentWithWrites(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{Sessions: 4, VerifyIncremental: true})
	maint := srv.Maintainer()

	res, err := srv.Subscribe("SELECT grp, SUM(val) FROM items GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	fp := res.FP

	var work, poll sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)

	// Writers: continuous small insert batches.
	for w := 0; w < 2; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			for i := 0; i < 10; i++ {
				k := int64(7000 + w*100 + i)
				_, err := maint.InsertBatch("items", []relation.Tuple{
					{relation.Int(k), relation.Str(fmt.Sprintf("g%d", k%5)), relation.Int(k % 7)}})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Pollers: ride the epoch chain.
	for p := 0; p < 2; p++ {
		poll.Add(1)
		go func() {
			defer poll.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				answer, epoch, ok := srv.WaitAnswer(ctx, fp, last)
				cancel()
				if !ok {
					errs <- fmt.Errorf("subscription vanished")
					return
				}
				if epoch < last {
					errs <- fmt.Errorf("epoch went backwards: %d -> %d", last, epoch)
					return
				}
				if answer == nil {
					errs <- fmt.Errorf("nil answer at epoch %d", epoch)
					return
				}
				last = epoch
			}
		}()
	}
	// Churners: pin/unpin another statement concurrently.
	work.Add(1)
	go func() {
		defer work.Done()
		for i := 0; i < 5; i++ {
			r, err := srv.Subscribe("SELECT COUNT(*) FROM items")
			if err != nil {
				errs <- err
				return
			}
			srv.Unsubscribe(r.FP)
		}
	}()

	// Writers and churner finish on their own; stop the pollers then.
	// There is no swap count to wait for: group commit may publish the
	// 20 ops in fewer than 20 swaps.
	workDone := make(chan struct{})
	go func() { work.Wait(); close(workDone) }()
	var failed error
	select {
	case failed = <-errs:
	case <-workDone:
	case <-time.After(30 * time.Second):
		st := srv.Stats()
		failed = fmt.Errorf("writers not done after 30s: epoch %d, swaps %d, write ops %d",
			st.Epoch, st.Swaps, st.WriteOps)
	}
	close(stop)
	poll.Wait() // bounded: each WaitAnswer call carries a 200ms timeout
	if failed != nil {
		t.Fatal(failed)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.IncrementalMismatches != 0 {
		t.Errorf("IncrementalMismatches = %d, want 0", st.IncrementalMismatches)
	}
	if st.IncrementalHits == 0 {
		t.Errorf("no incremental hit across %d insert-only epochs", st.Epoch)
	}
	// Every op was applied; coalesced ops share an epoch, so the epoch
	// the pin must have reached is the served one, not the op count.
	if st.WriteOps != 20 || st.Epoch != uint64(st.Swaps) {
		t.Errorf("write ops %d, epoch %d, swaps %d; want 20 ops and epoch == swaps", st.WriteOps, st.Epoch, st.Swaps)
	}
	answer, epoch, ok := currentAnswer(srv, fp)
	if !ok || epoch != st.Epoch {
		t.Fatalf("final answer: epoch %d ok %v, want %d", epoch, ok, st.Epoch)
	}
	cold, err := srv.Query("SELECT grp, SUM(val) FROM items GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(core.CanonicalBytes(answer), core.CanonicalBytes(cold.Rows)) {
		t.Fatal("final pinned answer diverges from cold run")
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
