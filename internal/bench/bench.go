// Package bench is the experiment harness of the reproduction: one driver
// per table/figure of the paper's evaluation (§8), printing the same rows
// and series the paper reports and returning structured results for the
// benchmark suite.
//
// Engine names map to the paper's systems as follows:
//
//	tag        TAG-join on the vertex-centric engine (TAG_tg)
//	refdb      row-store iterator engine (PostgreSQL / RDBMS-X / RDBMS-Y stand-in)
//	refdb_col  column-scan configuration (RDBMS-X In-Memory stand-in)
//	shuffle    partitioned shuffle-join engine (Spark SQL stand-in)
//
// Absolute times are not comparable with the paper's testbed; the
// reproduction targets the relative shapes (who wins per query class, by
// roughly what factor).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// Engines in reporting order.
var Engines = []string{"tag", "refdb", "refdb_col", "shuffle"}

// Config parameterizes the harness.
type Config struct {
	// Scales are the data sizes; the three defaults stand in for the
	// paper's SF-30/50/75 series.
	Scales   []float64
	Seed     int64
	Workers  int
	Runs     int // timed repetitions after one warm-up
	Machines int // distributed experiments
	Out      io.Writer
}

func (c Config) withDefaults() Config {
	if len(c.Scales) == 0 {
		c.Scales = []float64{0.5, 1, 2}
	}
	if c.Seed == 0 {
		c.Seed = 2021
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.Machines <= 0 {
		c.Machines = 6
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// WorkloadQuery is a uniform view over the two workloads.
type WorkloadQuery struct {
	ID    string
	SQL   string
	Class string
}

// WorkloadQueries returns the named workload ("tpch" or "tpcds").
func WorkloadQueries(name string) []WorkloadQuery {
	var out []WorkloadQuery
	switch name {
	case "tpch":
		for _, q := range tpch.Queries() {
			out = append(out, WorkloadQuery{ID: q.ID, SQL: q.SQL, Class: q.Class})
		}
	case "tpcds":
		for _, q := range tpcds.Queries() {
			out = append(out, WorkloadQuery{ID: q.ID, SQL: q.SQL, Class: q.Class})
		}
	}
	return out
}

// generate builds the named workload's catalog.
func generate(name string, scale float64, seed int64) *relation.Catalog {
	if name == "tpch" {
		return tpch.Generate(scale, seed)
	}
	return tpcds.Generate(scale, seed)
}

// Env holds the per-scale engines.
type Env struct {
	Workload string
	Scale    float64
	Cat      *relation.Catalog
	TAG      *tag.Graph
	Exec     *core.Session
	Row      *baseline.Engine
	Col      *baseline.Engine
	Shuffle  *baseline.Engine
}

// NewEnv loads a workload at one scale into all engines.
func NewEnv(workload string, scale float64, seed int64, workers int) (*Env, error) {
	cat := generate(workload, scale, seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}
	return &Env{
		Workload: workload,
		Scale:    scale,
		Cat:      cat,
		TAG:      g,
		Exec:     core.NewSession(g, bsp.Options{Workers: workers}),
		Row:      baseline.New(cat),
		Col:      baseline.NewColumnStore(cat),
		Shuffle:  baseline.NewShuffle(cat, 6),
	}, nil
}

// RunOn executes a query on the named engine of an Env.
func RunOn(e *Env, engine, query string) (*relation.Relation, error) {
	return e.runOn(engine, query)
}

// runOn executes a query on the named engine.
func (e *Env) runOn(engine, query string) (*relation.Relation, error) {
	switch engine {
	case "tag":
		return e.Exec.Query(query)
	case "refdb":
		return e.Row.Query(query)
	case "refdb_col":
		return e.Col.Query(query)
	case "shuffle":
		return e.Shuffle.Query(query)
	}
	return nil, fmt.Errorf("bench: unknown engine %q", engine)
}

// QueryResult is one query's timings across engines.
type QueryResult struct {
	ID    string
	Class string
	Rows  int
	Times map[string]time.Duration
	Agree bool
}

// Speedup returns refTime/tagTime for an engine (how much faster TAG is).
func (q QueryResult) Speedup(engine string) float64 {
	t := q.Times["tag"]
	if t <= 0 {
		return 0
	}
	return float64(q.Times[engine]) / float64(t)
}

// WorkloadResult is one (workload, scale) sweep.
type WorkloadResult struct {
	Workload  string
	Scale     float64
	Queries   []QueryResult
	Aggregate map[string]time.Duration
}

// ByClass sums times per aggregation class (Figure 15's grouping).
func (w WorkloadResult) ByClass() map[string]map[string]time.Duration {
	out := map[string]map[string]time.Duration{}
	for _, q := range w.Queries {
		m := out[q.Class]
		if m == nil {
			m = map[string]time.Duration{}
			out[q.Class] = m
		}
		for e, t := range q.Times {
			m[e] += t
		}
	}
	return out
}

// WinCounts classifies TAG against one engine per query (Table 5): TAG
// outperforms when >1.1x faster, is competitive within [1/1.1, 1.1x],
// worse otherwise.
func (w WorkloadResult) WinCounts(engine string) (outperforms, competitive, worse int) {
	for _, q := range w.Queries {
		s := q.Speedup(engine)
		switch {
		case s > 1.1:
			outperforms++
		case s >= 1/1.1:
			competitive++
		default:
			worse++
		}
	}
	return
}

// RunWorkload times every query of a workload on every engine at one
// scale, verifying every engine's answer, TAG's included, against
// refdb's.
func RunWorkload(cfg Config, env *Env) (WorkloadResult, error) {
	cfg = cfg.withDefaults()
	res := WorkloadResult{Workload: env.Workload, Scale: env.Scale, Aggregate: map[string]time.Duration{}}
	for _, q := range WorkloadQueries(env.Workload) {
		qr := QueryResult{ID: q.ID, Class: q.Class, Times: map[string]time.Duration{}, Agree: true}
		answers := map[string]*relation.Relation{}
		for _, engine := range Engines {
			// Warm-up run (caches, §8.1.5 methodology), then timed runs.
			out, err := env.runOn(engine, q.SQL)
			if err != nil {
				return res, fmt.Errorf("%s on %s: %w", q.ID, engine, err)
			}
			var total time.Duration
			for r := 0; r < cfg.Runs; r++ {
				start := time.Now()
				out, err = env.runOn(engine, q.SQL)
				if err != nil {
					return res, err
				}
				total += time.Since(start)
			}
			qr.Times[engine] = total / time.Duration(cfg.Runs)
			answers[engine] = out
			res.Aggregate[engine] += qr.Times[engine]
		}
		reference := answers["refdb"]
		qr.Rows = reference.Len()
		for _, out := range answers {
			if !relation.EqualMultiset(out, reference) {
				qr.Agree = false
			}
		}
		res.Queries = append(res.Queries, qr)
	}
	return res, nil
}

// PrintPerQuery renders a Tables 8-13-style per-query table.
func PrintPerQuery(w io.Writer, res WorkloadResult) {
	fmt.Fprintf(w, "\n%s scale %.2g — per-query avg runtimes (ms)\n", res.Workload, res.Scale)
	fmt.Fprintf(w, "%-6s %-7s %10s %10s %10s %10s  %s\n", "query", "class", Engines[0], Engines[1], Engines[2], Engines[3], "agree")
	for _, q := range res.Queries {
		fmt.Fprintf(w, "%-6s %-7s %10.3f %10.3f %10.3f %10.3f  %v\n", q.ID, q.Class,
			ms(q.Times["tag"]), ms(q.Times["refdb"]), ms(q.Times["refdb_col"]), ms(q.Times["shuffle"]), q.Agree)
	}
	fmt.Fprintf(w, "%-6s %-7s %10.3f %10.3f %10.3f %10.3f\n", "TOTAL", "",
		ms(res.Aggregate["tag"]), ms(res.Aggregate["refdb"]), ms(res.Aggregate["refdb_col"]), ms(res.Aggregate["shuffle"]))
}

// PrintAggregate renders the Figure 13 aggregate series.
func PrintAggregate(w io.Writer, results []WorkloadResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "\nFigure 13 — aggregate %s runtimes (ms) across scales\n", results[0].Workload)
	fmt.Fprintf(w, "%-8s", "scale")
	for _, e := range Engines {
		fmt.Fprintf(w, " %12s", e)
	}
	fmt.Fprintln(w)
	for _, r := range results {
		fmt.Fprintf(w, "%-8.2g", r.Scale)
		for _, e := range Engines {
			fmt.Fprintf(w, " %12.3f", ms(r.Aggregate[e]))
		}
		fmt.Fprintln(w)
	}
}

// PrintByClass renders the Figure 15 class breakdown.
func PrintByClass(w io.Writer, res WorkloadResult) {
	fmt.Fprintf(w, "\nFigure 15 — %s aggregate runtimes by aggregation class (ms), scale %.2g\n", res.Workload, res.Scale)
	byClass := res.ByClass()
	var classes []string
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "%-8s", "class")
	for _, e := range Engines {
		fmt.Fprintf(w, " %12s", e)
	}
	fmt.Fprintln(w)
	for _, c := range classes {
		fmt.Fprintf(w, "%-8s", c)
		for _, e := range Engines {
			fmt.Fprintf(w, " %12.3f", ms(byClass[c][e]))
		}
		fmt.Fprintln(w)
	}
}

// PrintWinCounts renders the Table 5 classification.
func PrintWinCounts(w io.Writer, res WorkloadResult) {
	fmt.Fprintf(w, "\nTable 5 — TAG-join vs each engine on %s (%d queries), scale %.2g\n",
		res.Workload, len(res.Queries), res.Scale)
	fmt.Fprintf(w, "%-10s %12s %12s %8s\n", "engine", "outperforms", "competitive", "worse")
	for _, e := range Engines[1:] {
		o, c, wr := res.WinCounts(e)
		fmt.Fprintf(w, "%-10s %12d %12d %8d\n", e, o, c, wr)
	}
}

// PrintSelected renders the Tables 3/4/6-style selected-query speedups.
func PrintSelected(w io.Writer, res WorkloadResult, title string, ids []string) {
	fmt.Fprintf(w, "\n%s (scale %.2g): TAG time (ms) and speedups over baselines\n", title, res.Scale)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s\n", "query", "tag_ms", "vs_refdb", "vs_col", "vs_shuffle")
	for _, id := range ids {
		for _, q := range res.Queries {
			if q.ID != id {
				continue
			}
			fmt.Fprintf(w, "%-6s %10.3f %9.2fx %9.2fx %9.2fx\n", q.ID,
				ms(q.Times["tag"]), q.Speedup("refdb"), q.Speedup("refdb_col"), q.Speedup("shuffle"))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// PeakRAM measures the peak heap while fn runs (Table 7's measure): an
// initial sample, periodic samples from a watcher goroutine, and a final
// sample after fn returns.
func PeakRAM(fn func() error) (int64, error) {
	sample := func() int64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse)
	}
	peak := sample()
	stop := make(chan struct{})
	peakCh := make(chan int64)
	go func() {
		p := int64(0)
		for {
			select {
			case <-stop:
				peakCh <- p
				return
			default:
				if s := sample(); s > p {
					p = s
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	err := fn()
	if s := sample(); s > peak {
		peak = s
	}
	close(stop)
	if p := <-peakCh; p > peak {
		peak = p
	}
	return peak, err
}
