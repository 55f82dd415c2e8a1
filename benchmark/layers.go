package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// probeInput is what the layer probes of a traced run work on: the
// workload's own catalog, graph and statements. The probes time calls
// into each layer's public functions from outside, so the same probe
// gives every workload its own number for every layer.
type probeInput struct {
	cfg   runConfig
	cat   *relation.Catalog
	g     *tag.Graph
	scale float64
	stmts []stmt // the workload's statement list; one lap is "a pass"
}

// distinct returns the statements with each SQL text once.
func distinct(stmts []stmt) []stmt {
	seen := map[string]bool{}
	var out []stmt
	for _, s := range stmts {
		if !seen[s.SQL] {
			seen[s.SQL] = true
			out = append(out, s)
		}
	}
	return out
}

func runLayerProbes(in probeInput, r *report, c *checker, tr *tracer) error {
	probes := []struct {
		name string
		run  func(probeInput, *report, *checker) error
	}{
		{"sql", probeSQL},
		{"core+bsp", probeEngine},
		{"tag", probeTag},
		{"serve+proto+http", probeServe},
		{"serve.write+checkpoint", probeWrites},
		{"wal", probeWAL},
		{"baseline", probeBaseline},
	}
	for i, p := range probes {
		sp := tr.start(0, int64(i), "probe."+p.name)
		t0 := time.Now()
		err := p.run(in, r, c)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		r.info("probe_s."+p.name, "s", "lower", time.Since(t0).Seconds())
	}
	return nil
}

// probeSQL times what the serving layer does to a statement it has not
// seen: fingerprint, parse, analyze.
func probeSQL(in probeInput, r *report, c *checker) error {
	byKind := map[string][]float64{}
	var all []float64
	for _, s := range distinct(in.stmts) {
		var reps []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			_, ferr := sql.Fingerprint(s.SQL)
			_, aerr := sql.AnalyzeString(in.cat, s.SQL)
			reps = append(reps, us(time.Since(t0)))
			if !c.ok(ferr == nil && aerr == nil, "sql: preparing %q: %v %v", s.SQL, ferr, aerr) {
				break
			}
		}
		all = append(all, median(reps))
		byKind[s.Kind] = append(byKind[s.Kind], median(reps))
	}
	r.metric("sql.prepare_us", all...)
	for kind, v := range byKind {
		r.info("sql.prepare_us."+kind, "us", "lower", v...)
	}
	return nil
}

func analyzeAll(cat *relation.Catalog, stmts []stmt) ([]*sql.Analysis, error) {
	out := make([]*sql.Analysis, len(stmts))
	for i, s := range stmts {
		an, err := sql.AnalyzeString(cat, s.SQL)
		if err != nil {
			return nil, fmt.Errorf("analyzing %q: %w", s.SQL, err)
		}
		out[i] = an
	}
	return out, nil
}

// runAnalyses runs every prepared statement once and returns the wall
// time and the answers.
func runAnalyses(sess *core.Session, ans []*sql.Analysis) (time.Duration, []*relation.Relation, error) {
	answers := make([]*relation.Relation, len(ans))
	var wall time.Duration
	for i, an := range ans {
		t0 := time.Now()
		rows, err := sess.Run(an)
		wall += time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		answers[i] = rows
	}
	return wall, answers, nil
}

// passesOf runs n passes and returns their wall times in ms and the
// last pass's answers.
func passesOf(sess *core.Session, ans []*sql.Analysis, n int) ([]float64, []*relation.Relation, error) {
	var walls []float64
	var answers []*relation.Relation
	for i := 0; i < n; i++ {
		d, a, err := runAnalyses(sess, ans)
		if err != nil {
			return nil, nil, err
		}
		walls, answers = append(walls, ms(d)), a
	}
	return walls, answers, nil
}

// sameAnswers compares two passes' answers: bit for bit when exact,
// else as multisets with float tolerance (partitions change the order
// in which partial sums are added).
func sameAnswers(a, b []*relation.Relation, exact bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if exact && hashAnswer(a[i]) != hashAnswer(b[i]) {
			return false
		}
		if !exact && !relation.EqualMultisetFuzzy(a[i], b[i]) {
			return false
		}
	}
	return true
}

// probeEngine measures core and bsp on the workload's graph: steady
// and first-pass time, allocations, the engine's own cost counters
// (which must repeat exactly), the merge stage's share, and what a
// second worker and a second partition do to a pass.
func probeEngine(in probeInput, r *report, c *checker) error {
	p := in.cfg.p
	stmts := distinct(in.stmts)
	ans, err := analyzeAll(in.cat, stmts)
	if err != nil {
		return err
	}
	nq := float64(len(ans))

	sess := core.NewSession(in.g, bsp.Options{Workers: p.Clients})
	first, want, err := runAnalyses(sess, ans)
	if err != nil {
		return err
	}
	steady, _, err := passesOf(sess, ans, p.ProbePasses)
	if err != nil {
		return err
	}
	r.metric("core.run_ms", steady...)
	r.metric("core.first_run_ms", ms(first)-median(steady))

	// One more pass for the counters, and one more to see them repeat.
	var m0, m1 runtime.MemStats
	s0 := sess.Stats()
	runtime.ReadMemStats(&m0)
	if _, _, err := runAnalyses(sess, ans); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	cost := sess.Stats().Sub(s0)
	s0 = sess.Stats()
	if _, _, err := runAnalyses(sess, ans); err != nil {
		return err
	}
	again := sess.Stats().Sub(s0)
	c.ok(cost == again, "bsp: cost counters differ between two passes: %v vs %v", cost, again)
	r.metric("core.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/nq)
	r.metric("bsp.supersteps", float64(cost.Supersteps))
	r.metric("bsp.messages", float64(cost.Messages))
	r.metric("bsp.message_bytes", float64(cost.MessageBytes))
	r.metric("bsp.combined_ratio", ratio(cost.MessagesCombined, cost.Messages))
	r.info("bsp.compute_ops", "count", "lower", float64(cost.ComputeOps))
	r.info("bsp.active_visits", "count", "lower", float64(cost.ActiveVisits))

	prof := core.NewSession(in.g, bsp.Options{Workers: p.Clients, Profile: true})
	if _, _, err := runAnalyses(prof, ans); err != nil {
		return err
	}
	merge0 := prof.MergeDuration()
	profWalls, _, err := passesOf(prof, ans, 2)
	if err != nil {
		return err
	}
	r.metric("bsp.merge_share", ms(prof.MergeDuration()-merge0)/(profWalls[0]+profWalls[1]))
	r.metric("bsp.peak_inbox_bytes", float64(prof.PeakInboxBytes()))

	one, oneAnswers, err := passesOf(core.NewSession(in.g, bsp.Options{Workers: 1}), ans, 2)
	if err != nil {
		return err
	}
	c.ok(sameAnswers(oneAnswers, want, true), "core: a Workers=1 session answered differently from Workers=%d", p.Clients)
	r.metric("bsp.worker_speedup", median(one)/median(steady))

	parted := core.NewSession(in.g, bsp.Options{Workers: p.Clients, Partitions: 2})
	if _, _, err := runAnalyses(parted, ans); err != nil {
		return err
	}
	s0 = parted.Stats()
	two, twoAnswers, err := passesOf(parted, ans, 2)
	if err != nil {
		return err
	}
	c.ok(sameAnswers(twoAnswers, want, false), "core: a Partitions=2 session answered differently from a single partition")
	r.metric("bsp.partition_tax", median(two)/median(steady))
	r.metric("bsp.network_bytes", float64(parted.Stats().Sub(s0).NetworkBytes)/2)

	// The same statements on a graph too small for the data to matter:
	// what is left is planning, compiling and the superstep barriers.
	tiny, err := newEngineEnv(p.FixedScale, in.cfg.seed, bsp.Options{Workers: 1})
	if err != nil {
		return err
	}
	tinyAns, err := analyzeAll(tiny.cat, stmts)
	if err != nil {
		return err
	}
	var fixed []float64
	for _, an := range tinyAns {
		var reps []float64
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			if _, err := tiny.sess.Run(an); err != nil {
				return err
			}
			reps = append(reps, us(time.Since(t0)))
		}
		fixed = append(fixed, median(reps))
	}
	r.metric("core.fixed_us", fixed...)
	return nil
}

// probeTag measures the graph itself: build, size against the user's
// bytes (the paper's Figure 14), and the three things the write path
// does to it.
func probeTag(in probeInput, r *report, c *checker) error {
	p := in.cfg.p
	var builds []float64
	for i := 0; i < 3; i++ {
		cat := tpch.Generate(in.scale, in.cfg.seed)
		t0 := time.Now()
		if _, err := tag.Build(cat, nil); err != nil {
			return err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	r.metric("tag.build_s", builds...)
	r.metric("tag.bytes_per_user_byte", float64(in.g.ByteSize())/float64(in.cat.TotalBytes()))
	r.info("tag.vertices", "count", "lower", float64(in.g.G.NumVertices()))
	r.info("tag.edges", "count", "lower", float64(in.g.G.NumEdges()))

	var clones []float64
	var clone *tag.Graph
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		clone = in.g.Clone()
		clones = append(clones, ms(time.Since(t0)))
	}
	r.metric("tag.clone_ms", clones...)

	gen := newBatchGen(in.cat, in.cfg.seed, p)
	var rates []float64
	for i := 0; i < 10; i++ {
		orders, lines := gen.next()
		t0 := time.Now()
		_, oerr := clone.InsertBatch("orders", orders)
		_, lerr := clone.InsertBatch("lineitem", lines)
		d := time.Since(t0)
		if !c.ok(oerr == nil && lerr == nil, "tag: insert batch: %v %v", oerr, lerr) {
			return fmt.Errorf("insert batch: %v %v", oerr, lerr)
		}
		rates = append(rates, float64(len(orders)+len(lines))/d.Seconds())
	}
	r.metric("tag.insert_rows_per_s", rates...)

	var speeds []float64
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := in.g.WriteSnapshot(&buf); err != nil {
			return err
		}
		speeds = append(speeds, float64(buf.Len())/1e6/time.Since(t0).Seconds())
	}
	r.metric("tag.snapshot_mb_per_s", speeds...)
	return nil
}

// probeServe measures the serving layer's own cost per statement
// (Server.QueryOn's wall time minus the execution it reports, apart for
// prepared-cache hits and misses) and what each wire adds on top
// (client round trip minus the execution the answer reports).
func probeServe(in probeInput, r *report, c *checker) error {
	p := in.cfg.p
	ctx := context.Background()
	uniq := distinct(in.stmts)
	var hit, miss []float64
	began := time.Now()
	for rep := 0; rep < 10 && len(miss) < 50 && time.Since(began) < 3*time.Second; rep++ {
		srv := serve.New(in.g, readOptions(p))
		for pass := 0; pass < 2; pass++ {
			for _, s := range uniq {
				t0 := time.Now()
				res, _, err := srv.QueryOn(ctx, s.SQL, serve.ProtoBinary)
				d := time.Since(t0)
				if !c.ok(err == nil && checkAnswer(s, res.Rows), "serve: %q: %v", s.SQL, err) {
					continue
				}
				if res.Prepared {
					hit = append(hit, us(d-res.Elapsed))
				} else {
					miss = append(miss, us(d-res.Elapsed))
				}
			}
		}
	}
	r.metric("serve.dispatch_hit_us", hit...)
	r.metric("serve.dispatch_miss_us", miss...)

	// Both wires in front of one server: two laps over the workload's
	// statements (the second lap finds them prepared), at least twenty
	// requests each.
	ops := sample(&cycle{stmts: in.stmts}, max(2*len(in.stmts), 20))
	srv := serve.New(in.g, readOptions(p))
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	wire := proto.Serve(pln, srv)
	defer wire.Close()
	cl, err := proto.Dial(wire.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	var pw []float64
	for _, s := range ops {
		t0 := time.Now()
		res, err := cl.Query(s.SQL)
		d := time.Since(t0)
		if c.ok(err == nil && checkAnswer(s, res.Rows), "proto: %q: %v", s.SQL, err) {
			pw = append(pw, us(d-res.Elapsed))
		}
	}
	r.metric("proto.wire_us", pw...)
	st := srv.Stats()
	r.metric("serve.prepared_hit_ratio", ratio(st.PreparedHits, st.PreparedHits+st.PreparedMisses))
	r.metric("serve.rejected", float64(st.Rejected))

	web, err := startWeb(srv)
	if err != nil {
		return err
	}
	defer web.stop()
	var hw []float64
	for _, s := range ops {
		var resp serve.QueryResponse
		t0 := time.Now()
		err := web.post("/query", serve.QueryRequest{SQL: s.SQL}, &resp)
		d := time.Since(t0)
		if c.ok(err == nil && (s.Rows < 0 || resp.RowCount == s.Rows), "http: %q: %v (%d rows)", s.SQL, err, resp.RowCount) {
			hw = append(hw, us(d)-resp.Millis*1e3)
		}
	}
	r.metric("http.wire_us", hw...)
	return nil
}

// probeWrites measures the write path on the workload's graph: a burst
// of writes into a durable server with the two pinned queries, then
// checkpoints of the result beside a reader.
func probeWrites(in probeInput, r *report, c *checker) error {
	dir, err := os.MkdirTemp(in.cfg.tmp, "probe-writes-")
	if err != nil {
		return err
	}
	opts := writeOptions(in.cfg.p, dir)
	opts.CheckpointEvery = 0 // checkpoints are taken by hand in probeCheckpoints
	srv, err := serve.Open(in.g, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, q := range []string{pinFoldSQL, pinColdSQL} {
		if _, err := srv.Subscribe(q); err != nil {
			return fmt.Errorf("pinning %q: %w", q, err)
		}
	}
	writeBurst(in, srv, r, c)
	return probeCheckpoints(srv, dir, r, c)
}

// writeBurst has one writer per client apply ten insert batches each,
// every batch paired with the delete of the writer's previous one, and
// reports what the server made of them: rows per second, how many ops
// shared a publish, how many pinned-query refreshes were folds.
func writeBurst(in probeInput, srv *serve.Server, r *report, c *checker) {
	p := in.cfg.p
	const batches = 10
	var wg sync.WaitGroup
	done := make(chan struct{})
	start := time.Now()
	for w := 0; w < p.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := newBatchGen(in.cat, in.cfg.seed+int64(w), p)
			gen.nextKey += int64(w) << 32
			maint := srv.Maintainer()
			var prev []bsp.VertexID
			for i := 0; i < batches; i++ {
				orders, lines := gen.next()
				ores, oerr := maint.Apply(serve.WriteOp{Table: "orders", Insert: orders, Delete: prev})
				lres, lerr := maint.Apply(serve.WriteOp{Table: "lineitem", Insert: lines})
				if !c.ok(oerr == nil && lerr == nil, "serve: write batch: %v %v", oerr, lerr) {
					return
				}
				prev = append(ores.Inserted, lres.Inserted...)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	liveMax := int64(1)
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			if live := srv.Stats().GenerationsLive; live > liveMax {
				liveMax = live
			}
		}
	}
	wall := time.Since(start)
	st := srv.Stats()
	r.metric("serve.write_rows_per_s", float64(st.RowsInserted)/wall.Seconds())
	r.metric("serve.coalesce_ratio", ratio(st.WriteOps, st.Swaps))
	r.metric("serve.fold_ratio", ratio(st.IncrementalHits, st.IncrementalHits+st.IncrementalFallbacks))
	r.metric("serve.generations_live_max", float64(liveMax))
	c.ok(st.IncrementalMismatches == 0 && st.WriteRejected == 0, "serve: %d fold mismatches, %d rejected writes", st.IncrementalMismatches, st.WriteRejected)
}

// probeCheckpoints writes three checkpoints of the served state and loads
// the newest back, with a reader running beside the writes. The reader
// asks the cheapest statement there is, so that it takes thousands of
// samples and any stall a checkpoint causes shows; it counts its own
// failures, because a shared counter's lock would sit inside the latency
// being measured.
func probeCheckpoints(srv *serve.Server, dir string, r *report, c *checker) error {
	type sampleAt struct {
		at  time.Time
		lat float64
	}
	var reads []sampleAt
	var t tally
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			_, err := srv.Query(countSQL("nation"))
			t.attempted++
			if err != nil {
				t.failed++
				t.first = fmt.Sprintf("serve: reader beside a checkpoint: %v", err)
				continue
			}
			reads = append(reads, sampleAt{t0, ms(time.Since(t0))})
		}
	}()
	type window struct{ from, to time.Time }
	var windows []window
	var writes []float64
	var ckptErr error
	for i := 0; i < 3 && ckptErr == nil; i++ {
		time.Sleep(50 * time.Millisecond)
		t0 := time.Now()
		_, ckptErr = srv.Maintainer().Checkpoint(false)
		windows = append(windows, window{t0, time.Now()})
		writes = append(writes, ms(time.Since(t0)))
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	rg.Wait()
	c.add(t.attempted, t.failed, t.first)
	if ckptErr != nil {
		return fmt.Errorf("checkpoint: %w", ckptErr)
	}
	var inside, outside []float64
	for _, s := range reads {
		within := false
		for _, w := range windows {
			within = within || (s.at.After(w.from) && s.at.Before(w.to))
		}
		if within {
			inside = append(inside, s.lat)
		} else {
			outside = append(outside, s.lat)
		}
	}
	pct := supportedTail(min(len(inside), len(outside)))
	if pct == 0 {
		pct = 50
	}
	r.metric("checkpoint.write_ms", writes...)
	r.metric("checkpoint.stall_ms", pctOf(inside, pct)-pctOf(outside, pct))
	r.info("checkpoint.stall_percentile", "%", "higher", pct)
	r.info("checkpoint.reads_inside", "count", "higher", float64(len(inside)))

	files, err := checkpoint.List(dir)
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no checkpoint in %s: %v", dir, err)
	}
	newest := files[len(files)-1].Path
	fi, err := os.Stat(newest)
	if err != nil {
		return err
	}
	r.metric("checkpoint.bytes", float64(fi.Size()))
	// checkpoint.Load wants the fingerprint of the base the image belongs
	// to; serve keeps it in this file beside the log and exports no getter.
	fp, err := os.ReadFile(filepath.Join(dir, "base.fp"))
	if err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		g, _, err := checkpoint.Load(newest, strings.TrimSpace(string(fp)))
		loads = append(loads, ms(time.Since(t0)))
		if !c.ok(err == nil && g.G.NumVertices() == srv.Graph().G.NumVertices(), "checkpoint: load: %v", err) {
			return fmt.Errorf("loading %s: %v", newest, err)
		}
	}
	r.metric("checkpoint.load_ms", loads...)
	return nil
}

// probeWAL drives the log directly with the workload's insert batches
// under the serving layer's flush policy.
func probeWAL(in probeInput, r *report, c *checker) error {
	p := in.cfg.p
	dir, err := os.MkdirTemp(in.cfg.tmp, "probe-wal-")
	if err != nil {
		return err
	}
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval, Interval: time.Duration(p.WALSyncMS * float64(time.Millisecond))})
	if err != nil {
		return err
	}
	gen := newBatchGen(in.cat, in.cfg.seed, p)
	const records = 100
	var appends []float64
	userBytes := 0
	for i := 0; i < records; i++ {
		orders, lines := gen.next()
		for _, t := range append(orders, lines...) {
			userBytes += t.Size()
		}
		rec := &wal.Record{Epoch: uint64(i + 1), Ops: []wal.Op{{Table: "orders", Insert: orders}, {Table: "lineitem", Insert: lines}}}
		t0 := time.Now()
		err := w.Append(rec)
		appends = append(appends, us(time.Since(t0)))
		if !c.ok(err == nil, "wal: append: %v", err) {
			w.Close()
			return err
		}
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		return err
	}
	r.metric("wal.append_us", appends...)
	r.metric("wal.bytes_per_user_byte", float64(st.Bytes)/float64(userBytes))
	r.metric("wal.fsyncs", float64(st.Fsyncs))

	var rates []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		rs, err := wal.Replay(dir, func(*wal.Record) error { return nil })
		d := time.Since(t0)
		if !c.ok(err == nil && rs.Records == records && !rs.Torn, "wal: replay gave %d records (torn=%v): %v", rs.Records, rs.Torn, err) {
			return fmt.Errorf("replay: %v", err)
		}
		rates = append(rates, float64(rs.Records)/d.Seconds())
	}
	r.metric("wal.replay_records_per_s", rates...)
	return nil
}

// probeBaseline runs the workload's statements on the two reference
// engines beside TAG at a small scale: the shape of the paper's
// Figure 15, for context only.
func probeBaseline(in probeInput, r *report, c *checker) error {
	p := in.cfg.p
	env, err := newEngineEnv(p.BaseScale, in.cfg.seed, bsp.Options{Workers: p.Clients})
	if err != nil {
		return err
	}
	stmts := distinct(in.stmts)
	ans, err := analyzeAll(env.cat, stmts)
	if err != nil {
		return err
	}
	tagRows := make([]*relation.Relation, len(ans))
	engines := []struct {
		metric string
		run    func(*sql.Analysis) (*relation.Relation, error)
	}{
		{"baseline.tag_pass_ms", env.sess.Run},
		{"baseline.refdb_pass_ms", baseline.New(env.cat).Run},
		{"baseline.refdb_col_pass_ms", baseline.NewColumnStore(env.cat).Run},
	}
	for e, eng := range engines {
		var walls []float64
		for pass := 0; pass <= p.ProbePasses; pass++ { // the first pass warms up
			var wall time.Duration
			for i, an := range ans {
				t0 := time.Now()
				rows, err := eng.run(an)
				wall += time.Since(t0)
				if err != nil {
					return fmt.Errorf("%s on %q: %w", eng.metric, stmts[i].SQL, err)
				}
				if e == 0 {
					tagRows[i] = rows
				} else if pass == 0 {
					c.ok(relation.EqualMultisetFuzzy(rows, tagRows[i]), "%s disagrees with TAG on %q", eng.metric, stmts[i].SQL)
				}
			}
			if pass > 0 {
				walls = append(walls, ms(wall))
			}
		}
		r.metric(eng.metric, walls...)
	}
	return nil
}
