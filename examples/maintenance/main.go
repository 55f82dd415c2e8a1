// Maintenance: serve queries continuously while writes land.
//
// PR 1's serving layer required full quiescence for writes. This
// example shows the generation scheme that removed that restriction: a
// serve.Maintainer applies each insert/delete batch to a copy-on-write
// clone of the served TAG graph and publishes it as the next epoch with
// an atomic pointer swap. Readers pin the generation they start on, so
// they are never blocked and never see a half-applied batch: a reader
// whose count is not the base count plus its epoch exits non-zero.
//
//	go run ./examples/maintenance
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/tpch"
)

func main() {
	cat := tpch.Generate(0.1, 2021)
	g, err := tag.Build(cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	base := int64(cat.Get("nation").Len()) // one row per published epoch
	srv := serve.New(g, serve.Options{Sessions: 4})
	maint := srv.Maintainer()

	// Writer: ten batches of fresh nation rows, back to back. Each batch
	// becomes one published generation (epoch).
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for b := 0; b < 10; b++ {
			rows := []relation.Tuple{{
				relation.Int(int64(100 + b)),
				relation.Str(fmt.Sprintf("NATION_%d", b)),
				relation.Int(int64(b % 5)),
				relation.Str("added while serving"),
			}}
			res, err := maint.InsertBatch("nation", rows)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("writer: published epoch %d (+%d row) in %v\n",
				res.Epoch, len(rows), res.Elapsed.Round(time.Microsecond))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Readers: query throughout the write stream. Counts only ever move
	// forward in whole batches — never a torn in-between value.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !writerDone.Load() {
				res, err := srv.Query("SELECT COUNT(*) FROM nation")
				if err != nil {
					log.Fatal(err)
				}
				n := res.Rows.Tuples[0][0]
				fmt.Printf("reader %d: epoch %d sees %v nations\n", c, res.Epoch, n)
				if n.I != base+int64(res.Epoch) {
					log.Fatalf("reader %d: epoch %d sees %v nations, want %d", c, res.Epoch, n, base+int64(res.Epoch))
				}
				time.Sleep(3 * time.Millisecond)
			}
		}(c)
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("\nfinal: epoch=%d swaps=%d inserted=%d live_generations=%d\n",
		st.Epoch, st.Swaps, st.RowsInserted, st.GenerationsLive)
}
