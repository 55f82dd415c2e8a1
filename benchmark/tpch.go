package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// runConfig is what a workload gets from the command line.
type runConfig struct {
	p      params
	seed   int64
	trace  bool
	tmp    string // scratch directory inside the checkout, removed at exit
	outdir string
}

// setups is how many times a run sets up: several for the median that is
// setup_s, once in a traced run, which does not report it.
func (cfg runConfig) setups() int {
	if cfg.trace {
		return 1
	}
	return cfg.p.Setups
}

type answerHash [sha256.Size]byte

func hashAnswer(r *relation.Relation) answerHash { return sha256.Sum256(core.CanonicalBytes(r)) }

// engineEnv is the set-up of the engine workloads: catalog, TAG graph
// and one session.
type engineEnv struct {
	cat  *relation.Catalog
	g    *tag.Graph
	sess *core.Session
}

// newEngineEnv generates the catalog, builds the graph and runs a first
// query, so the time it takes is everything before the workload's
// first statement can run.
func newEngineEnv(scale float64, seed int64, opts bsp.Options) (*engineEnv, error) {
	cat := tpch.Generate(scale, seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, fmt.Errorf("tag.Build: %w", err)
	}
	e := &engineEnv{cat: cat, g: g, sess: core.NewSession(g, opts)}
	if _, err := e.sess.Query(countSQL("nation")); err != nil {
		return nil, fmt.Errorf("first query: %w", err)
	}
	return e, nil
}

// timedSetups runs setup n times and returns the seconds each took and
// the last result; the earlier ones are torn down as they are replaced.
func timedSetups[T any](n int, setup func() (T, error), teardown func(T)) (last T, secs []float64, err error) {
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		t0 := time.Now()
		last, err = setup()
		if err != nil {
			return last, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return last, secs, nil
}

// checkOracle compares TAG's answer to every statement with the
// baseline engine's on one catalog (canonical multiset, float
// tolerance). It is run at a small scale before anything is timed.
func checkOracle(cat *relation.Catalog, g *tag.Graph, stmts []stmt, workers int, c *checker) {
	sess := core.NewSession(g, bsp.Options{Workers: workers})
	ref := baseline.New(cat)
	seen := map[string]bool{}
	for _, s := range stmts {
		if seen[s.SQL] {
			continue
		}
		seen[s.SQL] = true
		got, err := sess.Query(s.SQL)
		if !c.ok(err == nil, "oracle: TAG failed on %q: %v", s.SQL, err) {
			continue
		}
		want, err := ref.Query(s.SQL)
		if !c.ok(err == nil, "oracle: baseline failed on %q: %v", s.SQL, err) {
			continue
		}
		c.ok(relation.EqualMultisetFuzzy(got, want), "oracle: TAG and baseline disagree on %q (%d vs %d rows)", s.SQL, got.Len(), want.Len())
	}
}

// pass is one lap over a statement list on one session.
type pass struct {
	wall     time.Duration   // sum of the statements' times (answer hashing excluded)
	perQuery []time.Duration // in statement order
	hashes   []answerHash
}

// runPass executes every statement once. Untraced it calls
// Session.Query, as a user of the engine would. Traced it makes the same
// calls Session.Query makes, one layer at a time with a span around
// each: the statement is prepared by the sql layer, run by core, and the
// share of the run the message plane's merge stage took (which the
// engine reports when profiling is on) becomes a derived bsp span.
func runPass(sess *core.Session, stmts []stmt, tr *tracer, passNo int64) (pass, error) {
	p := pass{perQuery: make([]time.Duration, len(stmts)), hashes: make([]answerHash, len(stmts))}
	root := tr.start(0, passNo, "harness.pass")
	for i, s := range stmts {
		var rows *relation.Relation
		var err error
		t0 := time.Now()
		if tr == nil {
			rows, err = sess.Query(s.SQL)
		} else {
			q := tr.start(root, passNo, "harness.query")
			sp := tr.start(q, passNo, "sql.prepare")
			var an *sql.Analysis
			an, err = sql.AnalyzeString(sess.TAG.Catalog, s.SQL)
			tr.end(sp)
			if err == nil {
				sp = tr.start(q, passNo, "core.run")
				merge0 := sess.MergeDuration()
				rows, err = sess.Run(an)
				tr.derived(sp, passNo, "bsp.merge", sess.MergeDuration()-merge0)
				tr.end(sp)
			}
			tr.end(q)
		}
		p.perQuery[i] = time.Since(t0)
		if err != nil {
			return p, fmt.Errorf("%s: %w", s.ID, err)
		}
		p.wall += p.perQuery[i]
		p.hashes[i] = hashAnswer(rows)
	}
	tr.end(root)
	return p, nil
}

// runPasses runs at least minPasses laps and keeps going until the
// window has elapsed.
func runPasses(sess *core.Session, stmts []stmt, window time.Duration, minPasses int, tr *tracer) ([]pass, error) {
	var out []pass
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < window {
		p, err := runPass(sess, stmts, tr, int64(len(out)+1))
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// checkPasses holds every pass to the same answers: each statement's
// hash is identical on every pass and equal to want's.
func checkPasses(passes []pass, stmts []stmt, want []answerHash, c *checker) {
	for n, p := range passes {
		for i, h := range p.hashes {
			c.ok(h == want[i], "pass %d: %s answered differently from the Workers=1 session", n+1, stmts[i].ID)
		}
	}
}

func passWalls(passes []pass) (walls []float64, perQuery []float64, total time.Duration) {
	for _, p := range passes {
		walls = append(walls, ms(p.wall))
		total += p.wall
		for _, d := range p.perQuery {
			perQuery = append(perQuery, ms(d))
		}
	}
	return walls, perQuery, total
}

// runTPCH is the tpch_ga and tpch_join workloads: passes over one
// aggregation class of the TPC-H statements through core.Session.
func runTPCH(class string, cfg runConfig, r *report, c *checker) error {
	p := cfg.p
	stmts := classQueries(class)
	opts := bsp.Options{Workers: p.Clients}
	warmup := p.WarmupGA
	if class == "join" {
		warmup = p.WarmupJoin
	}

	small, err := newEngineEnv(p.OracleScale, cfg.seed, opts)
	if err != nil {
		return err
	}
	checkOracle(small.cat, small.g, stmts, p.Clients, c)

	env, setupSecs, err := timedSetups(cfg.setups(), func() (*engineEnv, error) {
		return newEngineEnv(p.TPCHScale, cfg.seed, opts)
	}, nil)
	if err != nil {
		return err
	}
	if _, err := runPasses(env.sess, stmts, 0, warmup, nil); err != nil {
		return err
	}

	// The reference answers come from a single-worker session on the
	// same graph: worker count must never change an answer.
	ref, err := runPass(core.NewSession(env.g, bsp.Options{Workers: 1}), stmts, nil, 0)
	if err != nil {
		return err
	}

	if cfg.trace {
		return traceTPCH(cfg, env, stmts, ref.hashes, r, c)
	}

	passes, err := runPasses(env.sess, stmts, secondsOf(p.Seconds), 3, nil)
	if err != nil {
		return err
	}
	checkPasses(passes, stmts, ref.hashes, c)
	walls, perQuery, total := passWalls(passes)
	r.metric("op_ms", walls...)
	r.info("tail_ms", "ms", "lower", pctOf(perQuery, 90))
	r.metric("qps", float64(len(perQuery))/total.Seconds())
	r.metric("peak_rss_mb", peakRSSMB())
	r.metric("setup_s", setupSecs...)
	r.info("passes", "count", "higher", float64(len(passes)))
	r.info("tail_percentile", "%", "higher", 90)
	r.info("tail_supported_percentile", "%", "higher", supportedTail(len(perQuery)))
	for i, s := range stmts {
		var qs []float64
		for _, ps := range passes {
			qs = append(qs, ms(ps.perQuery[i]))
		}
		r.info("query_ms."+s.ID, "ms", "lower", qs...)
	}
	return nil
}

// traceTPCH is the traced run of an engine workload: the same passes
// untraced and traced on one profiling session for the overhead, then
// the layer probes on the workload's catalog, graph and statements.
func traceTPCH(cfg runConfig, env *engineEnv, stmts []stmt, want []answerHash, r *report, c *checker) error {
	p := cfg.p
	tr := newTracer(1 << 20)
	sess := core.NewSession(env.g, bsp.Options{Workers: p.Clients, Profile: true})
	if _, err := runPass(sess, stmts, nil, 0); err != nil {
		return err
	}
	quarter := secondsOf(p.Seconds / 4)
	plain, err := runPasses(env.sess, stmts, quarter, 2, nil)
	if err != nil {
		return err
	}
	traced, err := runPasses(sess, stmts, quarter, 2, tr)
	if err != nil {
		return err
	}
	checkPasses(plain, stmts, want, c)
	checkPasses(traced, stmts, want, c)
	plainWalls, _, _ := passWalls(plain)
	tracedWalls, _, _ := passWalls(traced)
	reportTraceShares(tr, r, median(tracedWalls)/median(plainWalls))
	r.info("untraced_op_ms", "ms", "lower", plainWalls...)
	r.info("traced_op_ms", "ms", "lower", tracedWalls...)

	in := probeInput{cfg: cfg, cat: env.cat, g: env.g, scale: p.TPCHScale, stmts: stmts}
	if err := runLayerProbes(in, r, c, tr); err != nil {
		return err
	}
	return tr.write(traceFile(cfg, r.Workload))
}

// reportTraceShares turns the traced loop's spans into per-layer self
// times: each name's share of the root spans, the check that the self
// times add up to them, and the overhead of tracing.
func reportTraceShares(tr *tracer, r *report, overhead float64) {
	self, roots := tr.selfTimes()
	var sum time.Duration
	for name, d := range self {
		sum += d
		r.info("self_share."+name, "ratio", "lower", d.Seconds()/roots.Seconds())
	}
	r.metric("trace.self_sum_ratio", sum.Seconds()/roots.Seconds())
	r.metric("trace.overhead_ratio", overhead)
}

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func traceFile(cfg runConfig, workload string) string {
	return fmt.Sprintf("%s/trace-%s.json", cfg.outdir, workload)
}
