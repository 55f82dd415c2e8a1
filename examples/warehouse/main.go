// Warehouse: the paper's sweet spot — snowflake-schema analytics with
// local vs global aggregation (§7, §8.4). Runs three TPC-DS-like queries
// on the TAG engine and the baseline row engine and compares both results
// and runtimes.
//
//	go run ./examples/warehouse
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpcds"
)

func main() {
	cat := tpcds.Generate(1, 42)
	fmt.Println("snowflake warehouse loaded:")
	fmt.Print(cat)

	g, err := tag.Build(cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	ex := core.NewSession(g, bsp.Options{})
	ref := baseline.New(cat)

	queries := []struct{ name, sql string }{
		{"local aggregation (revenue per category — one vertex per group)", `
			SELECT i_category, SUM(ss_ext_sales_price) AS revenue
			FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
			  AND d_year = 2000 AND i_category IS NOT NULL
			GROUP BY i_category`},
		{"global aggregation (category x state — single aggregator vertex)", `
			SELECT i_category, ca_state, COUNT(*) AS sales
			FROM catalog_sales, item, customer, customer_address
			WHERE cs_item_sk = i_item_sk AND cs_bill_customer_sk = c_customer_sk
			  AND c_current_addr_sk = ca_address_sk AND i_category = 'Music'
			GROUP BY i_category, ca_state`},
		{"cross-channel union (store + web revenue per item)", `
			SELECT i_item_id, SUM(ss_ext_sales_price) FROM store_sales, item
			WHERE ss_item_sk = i_item_sk GROUP BY i_item_id
			UNION ALL
			SELECT i_item_id, SUM(ws_ext_sales_price) FROM web_sales, item
			WHERE ws_item_sk = i_item_sk GROUP BY i_item_id`},
	}

	for _, q := range queries {
		fmt.Printf("\n== %s\n", q.name)
		start := time.Now()
		tagOut, err := ex.Query(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		tagTime := time.Since(start)

		start = time.Now()
		refOut, err := ref.Query(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		refTime := time.Since(start)

		fmt.Printf("tag-join: %d rows in %v (class %s)\n", tagOut.Len(), tagTime.Round(time.Microsecond), ex.Info.Agg)
		fmt.Printf("baseline: %d rows in %v\n", refOut.Len(), refTime.Round(time.Microsecond))
		if !relation.EqualMultiset(tagOut, refOut) {
			log.Fatal("engines disagree!")
		}
		fmt.Println("results agree ✓")
	}
}
