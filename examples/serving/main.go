// Serving: share one frozen TAG graph across concurrent queries.
//
// The TAG encoding is query-independent (§3): building it once and
// serving many readers is the paper's intended deployment shape. This
// example encodes a TPC-H-like database once, then answers a mixed
// query stream three ways — through the serve.Server session pool,
// through one serialized session, and with the naive rebuild-per-query
// pattern — and prints the throughput of each. Every answer is checked
// against the baseline engine's; a mismatch exits non-zero.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/tpch"
)

func main() {
	cat := tpch.Generate(0.1, 2021)
	start := time.Now()
	g, err := tag.Build(cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %s in %v\n", g.G.String(), time.Since(start).Round(time.Millisecond))

	queries := []string{
		"SELECT COUNT(*) FROM orders WHERE o_orderpriority = '1-URGENT'",
		"SELECT n_name, COUNT(*) FROM nation, customer WHERE c_nationkey = n_nationkey GROUP BY n_name",
		"SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_discount > 0.05",
	}
	want := map[string]*relation.Relation{}
	for _, q := range queries {
		if want[q], err = baseline.New(cat).Query(q); err != nil {
			log.Fatal(err)
		}
	}
	const clients = 4
	const perClient = 50

	// Mode 1: the serving layer — session pool + prepared statements.
	srv := serve.New(g, serve.Options{Sessions: clients})
	elapsed := drive(clients, perClient, queries, want, func(q string) (*relation.Relation, error) {
		res, err := srv.Query(q)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	})
	fmt.Printf("%-22s %8.0f qps   (%s)\n", "session pool:",
		float64(clients*perClient)/elapsed.Seconds(), srv.Stats())

	// Mode 2: one session, all clients serialized behind a mutex.
	var mu sync.Mutex
	sess := core.NewSession(g, bsp.Options{Workers: 1})
	elapsed = drive(clients, perClient, queries, want, func(q string) (*relation.Relation, error) {
		mu.Lock()
		defer mu.Unlock()
		return sess.Query(q)
	})
	fmt.Printf("%-22s %8.0f qps\n", "serialized session:",
		float64(clients*perClient)/elapsed.Seconds())

	// Mode 3: what a naive deployment does — re-encode the graph per query.
	elapsed = drive(clients, perClient/10, queries, want, func(q string) (*relation.Relation, error) {
		mu.Lock()
		defer mu.Unlock()
		fresh, err := tag.Build(cat, nil)
		if err != nil {
			return nil, err
		}
		return core.NewSession(fresh, bsp.Options{Workers: 1}).Query(q)
	})
	fmt.Printf("%-22s %8.0f qps\n", "rebuild per query:",
		float64(clients*perClient/10)/elapsed.Seconds())
}

// drive fans perClient queries out over n concurrent clients; an answer
// that differs from want's exits non-zero.
func drive(n, perClient int, queries []string, want map[string]*relation.Relation, run func(string) (*relation.Relation, error)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c+i)%len(queries)]
				if got, err := run(q); err != nil || !relation.EqualMultisetFuzzy(got, want[q]) {
					log.Fatalf("%s: TAG answered %v (error %v), the baseline %v", q, got, err, want[q])
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}
