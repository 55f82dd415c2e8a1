package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
)

// mustAcquire takes a session the pool has idle or can still build.
func mustAcquire(t *testing.T, p *Pool) *core.Session {
	t.Helper()
	s, err := p.AcquireContext(context.Background(), 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	return s
}

// tryAcquire is mustAcquire that returns nil on an exhausted pool.
func tryAcquire(t *testing.T, p *Pool) *core.Session {
	t.Helper()
	s, err := p.AcquireContext(context.Background(), 0)
	if err != nil && !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire: %v", err)
	}
	return s
}

// admissionServer builds a server over the items catalog with a short
// admission bound, suitable for deterministic overload drills.
func admissionServer(t *testing.T, opts Options) *Server {
	t.Helper()
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(g, opts)
}

// TestCanceledQueryReleasesCleanly: a query whose context expires
// mid-execution counts Canceled (not Errors), leaves InFlight at 0,
// and returns its pooled session — the very next query reuses it.
func TestCanceledQueryReleasesCleanly(t *testing.T) {
	srv := admissionServer(t, Options{Sessions: 1})

	orig := runSession
	runSession = func(sess *core.Session, ctx context.Context, an *sql.Analysis) (*relation.Relation, error) {
		<-ctx.Done() // park mid-execution until the deadline fires
		return nil, fmt.Errorf("core: query aborted: %w", ctx.Err())
	}
	defer func() { runSession = orig }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := srv.QueryContext(ctx, "SELECT COUNT(*) FROM items"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined query returned %v, want DeadlineExceeded", err)
	}

	st := srv.Stats()
	if st.Canceled != 1 || st.Errors != 0 || st.Rejected != 0 {
		t.Errorf("canceled/errors/rejected = %d/%d/%d, want 1/0/0", st.Canceled, st.Errors, st.Rejected)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d, want 0 (canceled query leaked its slot)", st.InFlight)
	}

	// The session came back to the pool: the next query reuses it rather
	// than building a second one.
	runSession = orig
	if _, err := srv.Query("SELECT COUNT(*) FROM items"); err != nil {
		t.Fatal(err)
	}
	if created := srv.Generation().Pool().Created(); created != 1 {
		t.Errorf("pool built %d sessions, want 1 (canceled query's session not reused)", created)
	}
}

// TestAdmissionRejectsWhenPoolExhausted: with the only session held
// past the bounded wait, queries are refused with ErrOverloaded and
// counted as Rejected; HTTP turns the refusal into 429 + Retry-After;
// a deadline shorter than the wait surfaces as cancellation (408)
// instead. Releasing the session restores service.
func TestAdmissionRejectsWhenPoolExhausted(t *testing.T) {
	srv := admissionServer(t, Options{Sessions: 1, AdmitWait: 25 * time.Millisecond})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	pool := srv.Generation().Pool()
	sess := mustAcquire(t, pool)

	if _, err := srv.Query("SELECT COUNT(*) FROM items"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query on exhausted pool returned %v, want ErrOverloaded", err)
	}

	resp, err := ts.Client().Get(ts.URL + "/query?sql=SELECT%20COUNT(*)%20FROM%20items")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overloaded /query status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	// A client deadline tighter than the admission wait gives up first:
	// that is a cancellation (408), not an overload refusal.
	resp, err = ts.Client().Get(ts.URL + "/query?sql=SELECT%20COUNT(*)%20FROM%20items&deadline_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Errorf("deadlined /query status = %d, want 408", resp.StatusCode)
	}

	st := srv.Stats()
	if st.Rejected != 2 || st.Canceled != 1 {
		t.Errorf("rejected/canceled = %d/%d, want 2/1", st.Rejected, st.Canceled)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d, want 0", st.InFlight)
	}

	pool.Release(sess)
	resp, err = ts.Client().Get(ts.URL + "/query?sql=SELECT%20COUNT(*)%20FROM%20items")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release /query status = %d, want 200", resp.StatusCode)
	}
}

// pastDeadline is a context whose deadline has passed but whose Done
// channel never closes: the state a context.WithTimeout is in between
// its deadline and the runtime timer that cancels it.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestAdmissionWaitPastDeadlineIsTimeout: when the admission wait and
// the caller's deadline have both expired, the caller timed out; the
// refusal is not an overload, even if the context has not noticed yet.
func TestAdmissionWaitPastDeadlineIsTimeout(t *testing.T) {
	g, err := tag.Build(itemsCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(g, bsp.Options{Workers: 1}, 1)
	mustAcquire(t, p)
	if _, err := p.AcquireContext(pastDeadline{context.Background()}, time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire past the deadline returned %v, want context.DeadlineExceeded", err)
	}
	if _, err := p.AcquireContext(context.Background(), time.Millisecond); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire without a deadline returned %v, want ErrOverloaded", err)
	}
}

// TestRetryAfterRoundsUp: the retry hint is the admission bound rounded
// up to whole seconds, never under one.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, c := range []struct{ wait, want time.Duration }{
		{25 * time.Millisecond, time.Second},
		{time.Second, time.Second},
		{1500 * time.Millisecond, 2 * time.Second},
		{3 * time.Second, 3 * time.Second},
	} {
		srv := admissionServer(t, Options{AdmitWait: c.wait})
		if got := srv.RetryAfter(); got != c.want {
			t.Errorf("AdmitWait %v: RetryAfter = %v, want %v", c.wait, got, c.want)
		}
	}
}

// TestWriteQueueRejectsWhenFull: with the single write-queue slot held
// by a write parked inside its publish cycle, a second write is refused
// with ErrOverloaded after the bounded wait (WriteRejected counts it,
// and HTTP answers 429 + Retry-After); the parked write then completes
// untouched.
func TestWriteQueueRejectsWhenFull(t *testing.T) {
	srv := admissionServer(t, Options{Sessions: 1, WriteQueue: 1, AdmitWait: 25 * time.Millisecond})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()
	maint := srv.Maintainer()

	release := make(chan struct{})
	orig := insertBatch
	insertBatch = func(g *tag.Graph, table string, rows []relation.Tuple) ([]bsp.VertexID, error) {
		<-release
		return orig(g, table, rows)
	}
	defer func() { insertBatch = orig }()

	var (
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, firstErr = maint.InsertBatch("items",
			[]relation.Tuple{{relation.Int(7000), relation.Str("g0"), relation.Int(1)}})
	}()
	// Wait for the first write to occupy the queue slot (it parks inside
	// its publish cycle holding it).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().WriteQueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first write never occupied the queue slot")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := maint.InsertBatch("items",
		[]relation.Tuple{{relation.Int(7001), relation.Str("g1"), relation.Int(2)}}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("write on full queue returned %v, want ErrOverloaded", err)
	}

	body := strings.NewReader(`{"table":"items","insert":[[7002,"g2",3]]}`)
	resp, err := ts.Client().Post(ts.URL+"/write", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overloaded /write status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	close(release)
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("parked write failed: %v", firstErr)
	}
	if st := srv.Stats(); st.WriteRejected != 2 {
		t.Errorf("WriteRejected = %d, want 2", st.WriteRejected)
	}

	res, err := srv.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows.Tuples[0][0].AsInt(); n != 61 {
		t.Errorf("COUNT(*) = %d, want 61 (only the parked write landed)", n)
	}
}

// TestMetricsEndpoint: /metrics serves Prometheus text (content type
// pinned to the 0.0.4 exposition format) carrying the serving
// counters, the admission/queue gauges, and the per-protocol latency
// histograms with quantile gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv := admissionServer(t, Options{Sessions: 1, AdmitWait: 10 * time.Millisecond})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if _, err := srv.Query("SELECT COUNT(*) FROM items"); err != nil {
			t.Fatal(err)
		}
	}
	// One admission refusal so the rejected counter is visibly nonzero.
	pool := srv.Generation().Pool()
	sess := mustAcquire(t, pool)
	if _, err := srv.Query("SELECT COUNT(*) FROM items"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected overload, got %v", err)
	}
	pool.Release(sess)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition format", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE tagserve_queries_total counter",
		"tagserve_queries_total 2",
		"tagserve_admission_rejected_total 1",
		"tagserve_write_rejected_total 0",
		"tagserve_queries_canceled_total 0",
		"# TYPE tagserve_sessions_in_flight gauge",
		"tagserve_sessions_in_flight 0",
		"tagserve_write_queue_depth 0",
		"# TYPE tagserve_query_duration_seconds histogram",
		`tagserve_query_duration_seconds_bucket{protocol="http",le="+Inf"} 2`,
		`tagserve_query_duration_seconds_bucket{protocol="binary",le="+Inf"} 0`,
		`tagserve_query_duration_seconds_count{protocol="http"} 2`,
		`tagserve_query_latency_seconds{protocol="http",quantile="0.5"}`,
		`tagserve_query_latency_seconds{protocol="http",quantile="0.99"}`,
		`tagserve_query_latency_seconds{protocol="binary",quantile="0.999"}`,
		"tagserve_epoch 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Two sub-second queries must have landed in a finite bucket, not
	// only +Inf: at least one le line short of +Inf carries count 2.
	if !strings.Contains(body, `le="10"} 2`) {
		t.Errorf("/metrics histogram did not accumulate http observations into finite buckets:\n%s", body)
	}

	// HEAD works for probes.
	req, _ := http.NewRequest("HEAD", ts.URL+"/metrics", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /metrics status = %d, want 200", resp.StatusCode)
	}
}

// TestConcurrentCancellationUnderRace hammers real engine executions
// with contexts that expire at arbitrary points (including before
// admission and mid-superstep) from several goroutines at once. Run
// under -race in CI, it is the evidence that a canceled query releases
// its pooled session without corrupting the engine state the next
// query inherits: after the storm, InFlight is exactly 0 and a fresh
// query on every pooled session computes the right answer.
func TestConcurrentCancellationUnderRace(t *testing.T) {
	srv := admissionServer(t, Options{
		Sessions:  2,
		AdmitWait: 50 * time.Millisecond,
		Engine:    bsp.Options{Workers: 2}, // exercise the persistent worker pool under cancellation
	})
	queries := []string{
		"SELECT grp, SUM(val) FROM items GROUP BY grp",
		"SELECT gname, COUNT(*) FROM items, groups WHERE grp = gname GROUP BY gname",
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var ctx context.Context
				var cancel context.CancelFunc
				switch i % 3 {
				case 0: // already expired at submit
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				case 1: // expires mid-run (or mid-admission)
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
				default: // runs to completion
					ctx, cancel = context.WithCancel(context.Background())
				}
				res, err := srv.QueryContext(ctx, queries[(c+i)%len(queries)])
				cancel()
				// Whatever the interleaving, the outcome must be coherent:
				// either rows or a typed abort/overload error.
				if err == nil && res == nil {
					t.Error("nil result with nil error")
				}
				if err != nil && !errors.Is(err, context.Canceled) &&
					!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrOverloaded) {
					t.Errorf("unexpected error class: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()

	st := srv.Stats()
	if st.InFlight != 0 {
		t.Fatalf("InFlight after cancellation storm = %d, want 0", st.InFlight)
	}
	if st.Errors != 0 {
		t.Errorf("Errors after cancellation storm = %d, want 0 (aborts must count Canceled)", st.Errors)
	}

	// Drive one query through every pooled session: a canceled run that
	// left torn engine state behind would poison one of them.
	want, err := srv.Query("SELECT grp, SUM(val) FROM items GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*srv.Generation().Pool().Size(); i++ {
		res, err := srv.Query("SELECT grp, SUM(val) FROM items GROUP BY grp")
		if err != nil {
			t.Fatalf("post-storm query %d: %v", i, err)
		}
		if res.Rows.Len() != want.Rows.Len() {
			t.Fatalf("post-storm query %d returned %d rows, want %d", i, res.Rows.Len(), want.Rows.Len())
		}
	}
}
