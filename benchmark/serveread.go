package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bsp"
	"repro/internal/proto"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// readEnv is serve_read's set-up: a memory-only server behind the
// binary protocol on loopback TCP, with one connection per client.
type readEnv struct {
	cat     *relation.Catalog
	g       *tag.Graph
	srv     *serve.Server
	wire    *proto.Server
	clients []*proto.Client
}

// readOptions is how every server of the benchmark is configured for
// reading: one pooled session per client, each running one worker (under
// concurrent serving parallelism comes from running queries side by side).
func readOptions(p params) serve.Options {
	return serve.Options{Sessions: p.Clients, Engine: bsp.Options{Workers: 1}, PreparedLimit: p.PreparedLimit}
}

func newReadEnv(scale float64, seed int64, p params) (*readEnv, error) {
	cat := tpch.Generate(scale, seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, fmt.Errorf("tag.Build: %w", err)
	}
	e := &readEnv{cat: cat, g: g}
	e.srv = serve.New(g, readOptions(p))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.wire = proto.Serve(ln, e.srv)
	for i := 0; i < p.Clients; i++ {
		cl, err := proto.Dial(e.wire.Addr().String())
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, cl)
	}
	if _, err := e.clients[0].Query(countSQL("nation")); err != nil {
		e.close()
		return nil, fmt.Errorf("first query: %w", err)
	}
	return e, nil
}

func (e *readEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.wire.Close()
}

// tally is one client goroutine's private count of checked requests.
type tally struct {
	attempted, failed int64
	first             string
}

func (t *tally) check(s stmt, res *proto.Result, err error) bool {
	t.attempted++
	ok := err == nil && checkAnswer(s, res.Rows)
	if !ok {
		t.failed++
		if t.first == "" {
			t.first = fmt.Sprintf("%s statement %q: err=%v", s.Kind, s.SQL, err)
		}
	}
	return ok
}

// tracedQuery sends one statement on a connection. Traced, the round
// trip is a root span and the time the server reports in the RESULT
// trailer a derived child, so the root's self time is the wire and the
// dispatch around the execution.
func tracedQuery(cl *proto.Client, s stmt, tr *tracer, req int64) (*proto.Result, time.Duration, error) {
	sp := tr.start(0, req, "proto.roundtrip")
	t0 := time.Now()
	res, err := cl.Query(s.SQL)
	d := time.Since(t0)
	if err == nil {
		tr.derived(sp, req, "serve.execute", res.Elapsed)
	}
	tr.end(sp)
	return res, d, err
}

// closedLoop runs one goroutine per connection, each sending its next
// statement as soon as the previous answer arrived, for the window. It
// returns every request's latency in ms, the correct answers and the
// wall time they took.
func closedLoop(clients []*proto.Client, streams []stream, window time.Duration, tr *tracer, c *checker) (lat []float64, correct int64, wall time.Duration) {
	per := make([][]float64, len(clients))
	good := make([]int64, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var t tally
			for n := int64(0); time.Since(start) < window; n++ {
				s := streams[i].next()
				res, d, err := tracedQuery(clients[i], s, tr, int64(i)<<40|n)
				if t.check(s, res, err) {
					good[i]++
				}
				per[i] = append(per[i], ms(d))
			}
			c.add(t.attempted, t.failed, t.first)
		}(i)
	}
	wg.Wait()
	wall = time.Since(start)
	for i := range per {
		lat = append(lat, per[i]...)
		correct += good[i]
	}
	return lat, correct, wall
}

// openResult is one open-loop phase at one fixed rate.
type openResult struct {
	rate      float64
	lat, late []float64 // ms, in schedule order
	backlog   bool
}

func (o openResult) p(pct float64) float64 { return pctOf(o.lat, pct) }

// openLoop offers requests at a fixed rate for the window, whatever the
// server's pace.
func openLoop(clients []*proto.Client, streams []stream, rate float64, window time.Duration, c *checker) openResult {
	tallies := make([]tally, len(clients))
	sched := newSchedule(time.Now(), rate, window)
	samples := runOpenLoop(wallClock{}, sched, len(clients), func(w int, i int64) bool {
		s := streams[w].next()
		res, err := clients[w].Query(s.SQL)
		return tallies[w].check(s, res, err)
	})
	for _, t := range tallies {
		c.add(t.attempted, t.failed, t.first)
	}
	out := openResult{rate: rate}
	for _, s := range samples {
		out.lat = append(out.lat, ms(s.Latency))
		out.late = append(out.late, ms(s.Late))
	}
	out.backlog = backlogGrew(out.lat)
	return out
}

func clientStreams(mix *readMix, seed int64, n int) []stream {
	out := make([]stream, n)
	for i := range out {
		out[i] = newReadStream(mix, seed*1000+int64(i))
	}
	return out
}

// runServeRead is the serve_read workload: short statements through the
// binary protocol, where parsing, the prepared cache, the session pool
// and the wire carry the cost and the engine almost none.
func runServeRead(cfg runConfig, r *report, c *checker) error {
	p := cfg.p

	// Oracle: the mix's statements, drawn on a small catalog, answered by
	// TAG and by the baseline engine.
	small, err := newEngineEnv(p.OracleScale, cfg.seed, bsp.Options{Workers: 1})
	if err != nil {
		return err
	}
	smallMix, err := newReadMix(small.cat, cfg.seed, p.ZipfS)
	if err != nil {
		return err
	}
	checkOracle(small.cat, small.g, sample(newReadStream(smallMix, cfg.seed), 60), 1, c)

	env, setupSecs, err := timedSetups(cfg.setups(), func() (*readEnv, error) {
		return newReadEnv(p.ReadScale, cfg.seed, p)
	}, (*readEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	mix, err := newReadMix(env.cat, cfg.seed, p.ZipfS)
	if err != nil {
		return err
	}
	streams := clientStreams(mix, cfg.seed, p.Clients)
	closedLoop(env.clients, streams, secondsOf(p.Seconds*p.WarmupShare), nil, c)

	if cfg.trace {
		return traceServeRead(cfg, env, mix, streams, r, c)
	}

	env.srv.ResetStats()
	closedLat, correct, wall := closedLoop(env.clients, streams, secondsOf(p.Seconds*p.ClosedShare), nil, c)
	open := openLoop(env.clients, streams, p.OpenRate, secondsOf(p.Seconds*(1-p.ClosedShare)), c)
	st := env.srv.Stats()

	r.metric("op_ms", open.lat...)
	r.info("tail_ms", "ms", "lower", open.p(99))
	r.metric("qps", float64(correct)/wall.Seconds())
	r.metric("peak_rss_mb", peakRSSMB())
	r.metric("setup_s", setupSecs...)
	r.info("closed_ms", "ms", "lower", closedLat...)
	r.info("closed_p99_ms", "ms", "lower", pctOf(closedLat, 99))
	r.info("open_rate", "1/s", "higher", open.rate)
	r.info("open_requests", "count", "higher", float64(len(open.lat)))
	r.info("gen_late_ms", "ms", "lower", open.late...)
	r.info("open_backlog_grew", "bool", "lower", b2f(open.backlog))
	r.info("tail_percentile", "%", "higher", 99)
	r.info("tail_supported_percentile", "%", "higher", supportedTail(len(open.lat)))
	r.info("prepared_hit_ratio", "ratio", "higher", ratio(st.PreparedHits, st.PreparedHits+st.PreparedMisses))
	r.info("rejected", "count", "lower", float64(st.Rejected))
	r.info("distinct_order_keys", "count", "higher", float64(len(mix.keys)))
	return nil
}

// traceServeRead is the traced run of serve_read: the closed loop
// untraced and traced for the overhead, the open loop at three fixed
// rates for the rate the latency limit allows, then the layer probes.
func traceServeRead(cfg runConfig, env *readEnv, mix *readMix, streams []stream, r *report, c *checker) error {
	p := cfg.p
	tr := newTracer(1 << 20)
	quarter := secondsOf(p.Seconds / 4)
	_, plainOK, plainWall := closedLoop(env.clients, streams, quarter, nil, c)
	_, tracedOK, tracedWall := closedLoop(env.clients, streams, quarter, tr, c)
	plainQPS, tracedQPS := float64(plainOK)/plainWall.Seconds(), float64(tracedOK)/tracedWall.Seconds()
	reportTraceShares(tr, r, plainQPS/tracedQPS)
	r.info("untraced_qps", "1/s", "higher", plainQPS)
	r.info("traced_qps", "1/s", "higher", tracedQPS)

	maxOK := 0.0
	for _, rate := range p.TraceRates {
		o := openLoop(env.clients, streams, rate, secondsOf(p.Seconds/6), c)
		tag := fmt.Sprintf("open_%g", rate)
		r.info(tag+".p50_ms", "ms", "lower", o.p(50))
		r.info(tag+".p99_ms", "ms", "lower", o.p(99))
		r.info(tag+".gen_late_ms", "ms", "lower", o.late...)
		r.info(tag+".backlog_grew", "bool", "lower", b2f(o.backlog))
		if o.p(99) <= p.LatencyLimit && !o.backlog {
			maxOK = rate
		}
	}
	r.info("max_rate_ok", "1/s", "higher", maxOK)

	in := probeInput{cfg: cfg, cat: env.cat, g: env.g, scale: p.ReadScale,
		stmts: sample(newReadStream(mix, cfg.seed), p.ProbeOps)}
	if err := runLayerProbes(in, r, c, tr); err != nil {
		return err
	}
	return tr.write(traceFile(cfg, r.Workload))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
