// Distributed: the §8.6 cluster experiment in miniature. Partitions a
// TPC-H-like TAG graph over six simulated machines, runs a few queries on
// the vertex-centric engine and the Spark-SQL-like shuffle engine, and
// compares network traffic — the reshuffling-free property that drives
// Figure 16.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/tpch"
)

func main() {
	const machines = 6
	cat := tpch.Generate(1, 2021)
	d, err := bench.NewDistEngines(cat, machines)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-H-like database partitioned over %d machines\n", machines)
	fmt.Printf("graph: %v\n\n", d.TAG.TAG)

	fmt.Printf("%-6s %12s %12s %14s %14s\n",
		"query", "tag_ms", "shuffle_ms", "tag_net_kb", "shuffle_net_kb")
	var tagNet, shfNet int64
	for _, id := range []string{"q3", "q4", "q5", "q10", "q12", "q14"} {
		q := tpch.ByID(id)
		r, tagOut, shfOut, err := d.Query(q.ID, q.SQL)
		if err != nil {
			log.Fatal(err)
		}
		if tagOut.Len() != shfOut.Len() {
			log.Fatalf("%s: engines disagree (%d vs %d rows)", id, tagOut.Len(), shfOut.Len())
		}
		tagNet += r.TagBytes
		shfNet += r.ShuffleBytes
		fmt.Printf("%-6s %12.3f %12.3f %14d %14d\n", id,
			float64(r.TagTime.Microseconds())/1000,
			float64(r.ShuffleTime.Microseconds())/1000,
			r.TagBytes/1024, r.ShuffleBytes/1024)
	}
	fmt.Printf("\ntotal network traffic: tag=%dKB shuffle=%dKB (shuffle/tag = %.2fx)\n",
		tagNet/1024, shfNet/1024, float64(shfNet)/float64(tagNet))
	fmt.Println("\nThe TAG graph is partitioned once and never reshuffled; the shuffle")
	fmt.Println("engine re-exchanges both inputs of every join (or broadcasts the")
	fmt.Println("smaller one), which is where Figure 16's traffic gap comes from.")
}
