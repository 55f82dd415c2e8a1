package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/proto"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// The two pinned queries of serve_write: the first is maintained by
// folding write deltas, the second (it has a subquery) is re-run cold on every
// epoch.
const (
	pinFoldSQL = "SELECT COUNT(*) FROM orders"
	pinColdSQL = "SELECT COUNT(*) FROM lineitem WHERE l_quantity > (SELECT AVG(l_quantity) FROM lineitem)"
)

// webFront is a server's JSON API on loopback TCP with one client for it.
type webFront struct {
	web *http.Server
	url string
	hc  *http.Client
}

func startWeb(srv *serve.Server) (*webFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &webFront{web: &http.Server{Handler: serve.Handler(srv)}, url: "http://" + ln.Addr().String(), hc: &http.Client{}}
	go f.web.Serve(ln) // returns when stop shuts the server down
	return f, nil
}

// stop shuts the listener down and waits for the handlers in flight.
func (f *webFront) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.web.Shutdown(ctx)
	f.hc.CloseIdleConnections()
}

// post sends one JSON request and decodes the JSON answer.
func (f *webFront) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	res, err := f.hc.Post(f.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, res.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, resp)
}

// writeEnv is serve_write's set-up: a durable server (WAL and
// checkpoints in dir) with its HTTP API for the writer and the binary
// protocol for the reader, both on loopback TCP.
type writeEnv struct {
	cat  *relation.Catalog
	g    *tag.Graph
	srv  *serve.Server
	wire *proto.Server
	*webFront
	reader *proto.Client
}

// writeOptions is readOptions plus durability under the benchmark's one
// flush policy.
func writeOptions(p params, dir string) serve.Options {
	o := readOptions(p)
	o.WALDir = dir
	o.WALSync = wal.SyncInterval
	o.WALSyncInterval = time.Duration(p.WALSyncMS * float64(time.Millisecond))
	o.CheckpointEvery = p.CheckpointEvery
	return o
}

// newWriteEnv boots a server on dir. On an empty dir that is a fresh
// start; on the dir an earlier server left behind it is a recovery:
// newest checkpoint, then the WAL records past it. Either way it
// returns once a first query has been answered over the wire.
func newWriteEnv(scale float64, seed int64, p params, dir string) (*writeEnv, error) {
	cat := tpch.Generate(scale, seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, fmt.Errorf("tag.Build: %w", err)
	}
	srv, err := serve.Open(g, writeOptions(p, dir))
	if err != nil {
		return nil, fmt.Errorf("serve.Open: %w", err)
	}
	e := &writeEnv{cat: cat, g: g, srv: srv}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e.wire = proto.Serve(pln, srv)
	if e.webFront, err = startWeb(srv); err != nil {
		e.close()
		return nil, err
	}
	if e.reader, err = proto.Dial(e.wire.Addr().String()); err != nil {
		e.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	if _, err := e.reader.Query(countSQL("nation")); err != nil {
		e.close()
		return nil, fmt.Errorf("first query: %w", err)
	}
	return e, nil
}

// close stops both listeners, waits for their goroutines, and closes
// the server, which settles any background checkpoint and syncs the WAL.
func (e *writeEnv) close() error {
	if e.reader != nil {
		e.reader.Close()
	}
	if e.webFront != nil {
		e.stop()
	}
	if e.wire != nil {
		e.wire.Close()
	}
	return e.srv.Close()
}

func jsonRows(rows []relation.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			out[i][j] = serve.JSONValue(v)
		}
	}
	return out
}

// ledger is the exact row count of orders and lineitem at every
// acknowledged epoch, kept by the writer from what it sent and what was
// acknowledged, never from what the server says it holds.
type ledger struct {
	mu     sync.Mutex
	counts map[uint64][2]int64 // epoch → {orders, lineitem}
	last   uint64
}

func newLedger(cat *relation.Catalog) *ledger {
	return &ledger{counts: map[uint64][2]int64{0: {int64(cat.Get("orders").Len()), int64(cat.Get("lineitem").Len())}}}
}

// ack records an acknowledged write and reports whether its epoch
// directly follows the previous one (one writer: no epoch may be
// skipped or shared).
func (l *ledger) ack(epoch uint64, dOrders, dLines int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.counts[l.last]
	inOrder := epoch == l.last+1
	l.counts[epoch] = [2]int64{prev[0] + dOrders, prev[1] + dLines}
	l.last = epoch
	return inOrder
}

func (l *ledger) at(epoch uint64, table string) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.counts[epoch]
	if table == "orders" {
		return c[0], ok
	}
	return c[1], ok
}

func (l *ledger) lastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// batchWriter is serve_write's single writer: closed loop over HTTP
// POST /write. One batch is two acknowledged writes, the orders rows
// (carrying, once LiveBatches batches are live, the delete of the
// oldest batch's rows) and then their lineitems, so the live row count
// stays within a fixed band.
type batchWriter struct {
	env  *writeEnv
	p    params
	gen  *batchGen
	led  *ledger
	live [][]int64 // tuple-vertex ids of each live batch, oldest first
}

func (w *batchWriter) write(req serve.WriteRequest, dOrders, dLines int64, tr *tracer, n int64) ([]int64, error) {
	var resp serve.WriteResponse
	sp := tr.start(0, n, "http.write")
	err := w.env.post("/write", req, &resp)
	if err == nil {
		tr.derived(sp, n, "serve.apply", time.Duration(resp.Millis*float64(time.Millisecond)))
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if len(resp.Inserted) != len(req.Insert) || resp.Deleted != len(req.Delete) {
		return nil, fmt.Errorf("write acknowledged %d inserts and %d deletes, sent %d and %d",
			len(resp.Inserted), resp.Deleted, len(req.Insert), len(req.Delete))
	}
	if !w.led.ack(resp.Epoch, dOrders, dLines) {
		return nil, fmt.Errorf("write landed on epoch %d, not the one after the previous write", resp.Epoch)
	}
	return resp.Inserted, nil
}

// batch writes one batch and returns how long both acknowledgements
// took.
func (w *batchWriter) batch(tr *tracer, n int64) (time.Duration, error) {
	orders, lines := w.gen.next()
	first := serve.WriteRequest{Table: "orders", Insert: jsonRows(orders)}
	dOrders, dLines := int64(len(orders)), int64(0)
	if len(w.live) >= w.p.LiveBatches {
		first.Delete = w.live[0]
		w.live = w.live[1:]
		dOrders -= int64(w.p.BatchOrders)
		dLines -= int64(w.p.BatchOrders * w.p.LinesPerOrder)
	}
	t0 := time.Now()
	ids, err := w.write(first, dOrders, dLines, tr, n)
	if err != nil {
		return 0, err
	}
	more, err := w.write(serve.WriteRequest{Table: "lineitem", Insert: jsonRows(lines)}, 0, int64(len(lines)), tr, n)
	if err != nil {
		return 0, err
	}
	w.live = append(w.live, append(ids, more...))
	return time.Since(t0), nil
}

// observation is a COUNT(*) the reader got, to be held against the
// ledger once the writer's acknowledgements are all in.
type observation struct {
	epoch uint64
	table string
	count int64
}

// writePhase runs the writer and the reader side by side for the
// window and returns the batch times, the reader's latencies (ms), its
// correct answers and the wall time.
func writePhase(env *writeEnv, w *batchWriter, rs stream, window time.Duration, tr *tracer, c *checker) (batchMS, readMS []float64, correct int64, wall time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := int64(0); time.Since(start) < window; n++ {
			d, err := w.batch(tr, n)
			if !c.ok(err == nil, "write batch: %v", err) {
				return // the ledger is no longer exact
			}
			batchMS = append(batchMS, ms(d))
		}
	}()
	var t tally
	var seen []observation
	for n := int64(0); time.Since(start) < window; n++ {
		s := rs.next()
		res, d, err := tracedQuery(env.reader, s, tr, 1<<40|n)
		if t.check(s, res, err) {
			correct++
			if s.Kind == "count" {
				seen = append(seen, observation{res.Epoch, s.Table, res.Rows.Tuples[0][0].AsInt()})
			}
		}
		readMS = append(readMS, ms(d))
	}
	wg.Wait()
	wall = time.Since(start)
	c.add(t.attempted, t.failed, t.first)
	for _, o := range seen {
		want, known := w.led.at(o.epoch, o.table)
		c.ok(known && want == o.count, "reader saw %d %s rows at epoch %d, ledger has %d (known=%v)", o.count, o.table, o.epoch, want, known)
	}
	return batchMS, readMS, correct, wall
}

// checkLedger asks the server for both counts and holds them against
// the ledger's last acknowledged epoch.
func checkLedger(env *writeEnv, led *ledger, when string, c *checker) {
	for _, table := range []string{"orders", "lineitem"} {
		res, err := env.reader.Query(countSQL(table))
		if !c.ok(err == nil, "%s: count of %s: %v", when, table, err) {
			continue
		}
		want, _ := led.at(led.lastEpoch(), table)
		got := res.Rows.Tuples[0][0].AsInt()
		c.ok(res.Epoch == led.lastEpoch() && got == want, "%s: %s has %d rows at epoch %d, ledger has %d at epoch %d",
			when, table, got, res.Epoch, want, led.lastEpoch())
	}
}

// settle leaves the directory in a state whose recovery cost does not
// depend on where the window happened to end: a checkpoint of the
// current epoch with the log truncated to it, then RecoverBatches more
// batches in the log.
func settle(env *writeEnv, w *batchWriter, c *checker) error {
	// Checkpoint refuses while a periodic one is in flight, which takes
	// milliseconds; serve has no error value to tell that refusal from a
	// real failure, so any error is retried for a second before it counts.
	var err error
	for i := 0; i < 100; i++ {
		if _, err = env.srv.Maintainer().Checkpoint(true); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("checkpoint before close: %w", err)
	}
	for i := 0; i < w.p.RecoverBatches; i++ {
		_, err := w.batch(nil, 0)
		if !c.ok(err == nil, "write batch before close: %v", err) {
			return err
		}
	}
	return nil
}

// runServeWrite is the serve_write workload: one HTTP writer and one
// binary-protocol reader on a durable server, then restarts from the
// directory the run left behind.
func runServeWrite(cfg runConfig, r *report, c *checker) error {
	p := cfg.p
	small, err := newEngineEnv(p.OracleScale, cfg.seed, bsp.Options{Workers: 1})
	if err != nil {
		return err
	}
	checkOracle(small.cat, small.g, classQueries("all"), 1, c)

	dir, err := os.MkdirTemp(cfg.tmp, "serve_write-")
	if err != nil {
		return err
	}
	t0 := time.Now()
	env, err := newWriteEnv(p.WriteScale, cfg.seed, p, dir)
	if err != nil {
		return err
	}
	freshSecs := time.Since(t0).Seconds()
	open := true
	defer func() {
		if open {
			env.close()
		}
	}()

	fold, err := env.srv.Subscribe(pinFoldSQL)
	c.ok(err == nil && fold.Eligible, "pinning %q: err=%v, want a fold-eligible subscription", pinFoldSQL, err)
	cold, err := env.srv.Subscribe(pinColdSQL)
	c.ok(err == nil && !cold.Eligible, "pinning %q: err=%v, want a subscription that is not fold-eligible", pinColdSQL, err)

	w := &batchWriter{env: env, p: p, gen: newBatchGen(env.cat, cfg.seed, p), led: newLedger(env.cat)}
	rs := newWriteReadStream(cfg.seed, p.ZipfS)
	writePhase(env, w, rs, secondsOf(p.Seconds*p.WarmupShare), nil, c)

	if cfg.trace {
		return traceServeWrite(cfg, env, w, rs, r, c)
	}

	env.srv.ResetStats()
	batchMS, readMS, correct, wall := writePhase(env, w, rs, secondsOf(p.Seconds), nil, c)
	st := env.srv.Stats()
	checkLedger(env, w.led, "after the window", c)
	if err := settle(env, w, c); err != nil {
		return err
	}
	open = false
	if err := env.close(); err != nil {
		return fmt.Errorf("closing the server: %w", err)
	}

	// Restart from what the run left on disk. Every restart does the same
	// work (nothing is written in between), so their median is the
	// set-up time of a durable server.
	var restartSecs []float64
	for i := 0; i < p.Setups; i++ {
		t0 := time.Now()
		re, err := newWriteEnv(p.WriteScale, cfg.seed, p, dir)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		checkLedger(re, w.led, "after restart", c)
		restartSecs = append(restartSecs, time.Since(t0).Seconds())
		if i == p.Setups-1 {
			rst := re.srv.Stats()
			r.info("recover_wal_replayed", "count", "lower", float64(rst.WALReplayed))
			r.info("recover_checkpoint_epoch", "count", "higher", float64(rst.CheckpointEpoch))
			checkRecovered(re, c)
		}
		if err := re.close(); err != nil {
			return fmt.Errorf("closing restart %d: %w", i+1, err)
		}
	}

	rows := float64(len(batchMS) * p.rowsPerBatch())
	r.metric("op_ms", batchMS...)
	r.info("tail_ms", "ms", "lower", pctOf(readMS, 95))
	r.metric("qps", float64(correct)/wall.Seconds())
	r.metric("peak_rss_mb", peakRSSMB())
	r.metric("setup_s", restartSecs...)
	r.info("setup_fresh_s", "s", "lower", freshSecs)
	r.info("write_rows_per_s", "1/s", "higher", rows/wall.Seconds())
	r.info("write_batches", "count", "higher", float64(len(batchMS)))
	r.info("reader_ms", "ms", "lower", readMS...)
	r.info("tail_percentile", "%", "higher", 95)
	r.info("tail_supported_percentile", "%", "higher", supportedTail(len(readMS)))
	r.info("fold_ratio", "ratio", "higher", ratio(st.IncrementalHits, st.IncrementalHits+st.IncrementalFallbacks))
	r.info("coalesce_ratio", "ratio", "higher", ratio(st.WriteOps, st.Swaps))
	r.info("checkpoints", "count", "higher", float64(st.Checkpoints))
	r.info("checkpoint_errors", "count", "lower", float64(st.CheckpointErrors))
	r.info("wal_fsyncs", "count", "lower", float64(st.WALFsyncs))
	r.info("wal_bytes", "B", "lower", float64(st.WALBytes))
	r.info("incremental_mismatches", "count", "lower", float64(st.IncrementalMismatches))
	return nil
}

// checkRecovered holds every TPC-H answer of a recovered server against
// the baseline engine run over the recovered catalog.
func checkRecovered(env *writeEnv, c *checker) {
	ref := baseline.New(env.srv.Graph().Catalog)
	for _, s := range classQueries("all") {
		res, err := env.reader.Query(s.SQL)
		if !c.ok(err == nil, "recovered server: %s: %v", s.ID, err) {
			continue
		}
		want, err := ref.Query(s.SQL)
		c.ok(err == nil && relation.EqualMultisetFuzzy(res.Rows, want), "recovered server: %s differs from the baseline engine (err=%v)", s.ID, err)
	}
}

// traceServeWrite is the traced run of serve_write: the same phase
// untraced and traced, then the layer probes on the base catalog and
// graph (which writes never touch: every write works on a clone).
func traceServeWrite(cfg runConfig, env *writeEnv, w *batchWriter, rs stream, r *report, c *checker) error {
	p := cfg.p
	tr := newTracer(1 << 20)
	quarter := secondsOf(p.Seconds / 4)
	plainBatch, _, plainOK, plainWall := writePhase(env, w, rs, quarter, nil, c)
	tracedBatch, _, tracedOK, tracedWall := writePhase(env, w, rs, quarter, tr, c)
	checkLedger(env, w.led, "after the traced window", c)
	reportTraceShares(tr, r, median(tracedBatch)/median(plainBatch))
	r.info("untraced_op_ms", "ms", "lower", plainBatch...)
	r.info("traced_op_ms", "ms", "lower", tracedBatch...)
	r.info("untraced_qps", "1/s", "higher", float64(plainOK)/plainWall.Seconds())
	r.info("traced_qps", "1/s", "higher", float64(tracedOK)/tracedWall.Seconds())

	in := probeInput{cfg: cfg, cat: env.cat, g: env.g, scale: p.WriteScale, stmts: classQueries("all")}
	if err := runLayerProbes(in, r, c, tr); err != nil {
		return err
	}
	return tr.write(traceFile(cfg, r.Workload))
}
