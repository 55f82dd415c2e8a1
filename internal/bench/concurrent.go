package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tag"
)

// Serving modes compared by the concurrency benchmark, in reporting
// order:
//
//	pooled   the internal/serve layer: one frozen TAG graph, a session
//	         pool sized to the client count, prepared-statement cache
//	serial   one reused core.Session behind a mutex — all clients
//	         serialized through a single engine ("single-session")
//	rebuild  the seed's serving pattern (cmd/tagsql before the fix):
//	         serialized, and every query re-encodes the TAG graph and
//	         builds a fresh executor
var ConcurrencyModes = []string{"pooled", "serial", "rebuild"}

// ConcurrencyResult is the aggregate throughput at one client count.
type ConcurrencyResult struct {
	Clients int
	QPS     map[string]float64 // mode -> aggregate queries/second
	Queries map[string]int64   // mode -> queries completed in the window
}

// Speedup returns QPS[pooled] / QPS[mode].
func (r ConcurrencyResult) Speedup(mode string) float64 {
	if r.QPS[mode] <= 0 {
		return 0
	}
	return r.QPS["pooled"] / r.QPS[mode]
}

// concurrencyQueries is the serving mix: the cheaper queries of each
// aggregation class, so a measurement window covers many requests.
var concurrencyQueries = map[string][]string{
	"tpch":  {"q3", "q5", "q10", "q11", "q16", "q22"},
	"tpcds": {"q37", "q82", "q12", "q22"},
}

// Concurrency measures aggregate query throughput over one frozen TAG
// graph at each client count: `window` of wall time per (mode, clients)
// cell, counting completed queries. Clients issue queries back-to-back
// (closed loop, no think time).
func Concurrency(cfg Config, workload string, clients []int, window time.Duration) ([]ConcurrencyResult, error) {
	cfg = cfg.withDefaults()
	if window <= 0 {
		window = 300 * time.Millisecond
	}
	scale := cfg.Scales[0]
	cat := generate(workload, scale, cfg.Seed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}

	ids := concurrencyQueries[workload]
	var queries []string
	for _, q := range WorkloadQueries(workload) {
		for _, id := range ids {
			if q.ID == id {
				queries = append(queries, q.SQL)
			}
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("bench: no concurrency queries for workload %q", workload)
	}

	// Correctness gate before timing: every mode must agree on answers.
	probe := core.NewSession(g, bsp.Options{Workers: 1})
	for _, q := range queries {
		if _, err := probe.Query(q); err != nil {
			return nil, fmt.Errorf("bench: workload query failed: %w", err)
		}
	}

	var out []ConcurrencyResult
	for _, n := range clients {
		res := ConcurrencyResult{Clients: n,
			QPS: map[string]float64{}, Queries: map[string]int64{}}
		for _, mode := range ConcurrencyModes {
			runFn, err := concurrencyRunner(mode, g, n)
			if err != nil {
				return nil, err
			}
			count, elapsed, err := closedLoop(n, window, queries, runFn)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at %d clients: %w", mode, n, err)
			}
			res.Queries[mode] = count
			res.QPS[mode] = float64(count) / elapsed.Seconds()
		}
		out = append(out, res)
	}
	return out, nil
}

// concurrencyRunner builds the per-mode query function over the shared
// graph (tag.Build reads the catalog without mutating it, so the rebuild
// mode can re-encode from the same catalog).
func concurrencyRunner(mode string, g *tag.Graph, n int) (func(sql string) error, error) {
	switch mode {
	case "pooled":
		srv := serve.New(g, serve.Options{Sessions: n})
		return func(sql string) error {
			_, err := srv.Query(sql)
			return err
		}, nil
	case "serial":
		var mu sync.Mutex
		sess := core.NewSession(g, bsp.Options{Workers: 1})
		return func(sql string) error {
			mu.Lock()
			defer mu.Unlock()
			_, err := sess.Query(sql)
			return err
		}, nil
	case "rebuild":
		var mu sync.Mutex
		cat := g.Catalog
		return func(sql string) error {
			mu.Lock()
			defer mu.Unlock()
			fresh, err := tag.Build(cat, nil)
			if err != nil {
				return err
			}
			ex := core.NewSession(fresh, bsp.Options{Workers: 1})
			_, err = ex.Query(sql)
			return err
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown concurrency mode %q", mode)
}

// closedLoop drives n clients issuing queries round-robin until the
// window elapses, returning completed-query count and actual elapsed
// time (including queries in flight at the deadline).
func closedLoop(n int, window time.Duration, queries []string, run func(string) error) (int64, time.Duration, error) {
	var (
		count   int64
		stop    int32
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; atomic.LoadInt32(&stop) == 0; i++ {
				if err := run(queries[i%len(queries)]); err != nil {
					errOnce.Do(func() { firstEr = err })
					return
				}
				atomic.AddInt64(&count, 1)
			}
		}(c)
	}
	time.Sleep(window)
	atomic.StoreInt32(&stop, 1)
	wg.Wait()
	return atomic.LoadInt64(&count), time.Since(start), firstEr
}

// PrintConcurrency renders the throughput table.
func PrintConcurrency(w io.Writer, workload string, results []ConcurrencyResult) {
	fmt.Fprintf(w, "\nConcurrent serving — aggregate QPS over one frozen %s TAG graph\n", workload)
	fmt.Fprintf(w, "(pooled = serve layer; serial = mutexed single session; rebuild = graph re-encoded per query)\n")
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s %12s\n",
		"clients", "pooled", "serial", "rebuild", "vs_serial", "vs_rebuild")
	for _, r := range results {
		fmt.Fprintf(w, "%-8d %12.1f %12.1f %12.1f %11.2fx %11.2fx\n",
			r.Clients, r.QPS["pooled"], r.QPS["serial"], r.QPS["rebuild"],
			r.Speedup("serial"), r.Speedup("rebuild"))
	}
}
