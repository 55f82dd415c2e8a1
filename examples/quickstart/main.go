// Quickstart: build a TAG graph from a small relational database and run
// SQL on it with the vertex-centric TAG-join executor. Every answer is
// checked against the baseline engine; a mismatch exits non-zero.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
)

func main() {
	// 1. Define a relational database (the paper's Figure 1 flavor).
	cat := relation.NewCatalog()

	nation := relation.New("nation", relation.MustSchema(
		relation.Col("n_nationkey", relation.KindInt),
		relation.Col("n_name", relation.KindString)))
	nation.MustAppend(relation.Int(1), relation.Str("USA"))
	nation.MustAppend(relation.Int(2), relation.Str("FRANCE"))
	cat.MustAdd(nation)
	cat.SetPrimaryKey("nation", "n_nationkey")

	customer := relation.New("customer", relation.MustSchema(
		relation.Col("c_custkey", relation.KindInt),
		relation.Col("c_name", relation.KindString),
		relation.Col("c_nationkey", relation.KindInt)))
	customer.MustAppend(relation.Int(10), relation.Str("alice"), relation.Int(1))
	customer.MustAppend(relation.Int(20), relation.Str("bob"), relation.Int(1))
	customer.MustAppend(relation.Int(30), relation.Str("chloe"), relation.Int(2))
	cat.MustAdd(customer)
	cat.SetPrimaryKey("customer", "c_custkey")
	cat.AddForeignKey(relation.ForeignKey{
		Table: "customer", Column: "c_nationkey",
		RefTable: "nation", RefColumn: "n_nationkey"})

	orders := relation.New("orders", relation.MustSchema(
		relation.Col("o_orderkey", relation.KindInt),
		relation.Col("o_custkey", relation.KindInt),
		relation.Col("o_total", relation.KindInt)))
	orders.MustAppend(relation.Int(100), relation.Int(10), relation.Int(70))
	orders.MustAppend(relation.Int(101), relation.Int(10), relation.Int(30))
	orders.MustAppend(relation.Int(102), relation.Int(30), relation.Int(50))
	cat.MustAdd(orders)
	cat.SetPrimaryKey("orders", "o_orderkey")

	// 2. Encode it as a Tuple-Attribute Graph (§3): one vertex per tuple,
	// one shared vertex per attribute value, edges labeled table.column.
	g, err := tag.Build(cat, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("encoded:", g)

	// 3. Run SQL with the TAG-join vertex program (§4-§7).
	ex := core.NewSession(g, bsp.Options{})
	fmt.Print(query(ex, cat, `
		SELECT n_name, SUM(o_total) AS revenue
		FROM nation, customer, orders
		WHERE c_nationkey = n_nationkey AND o_custkey = c_custkey
		GROUP BY n_name`))

	// 4. Inspect how it executed: aggregation class, plan shape and the
	// BSP cost measures (§2) — supersteps, messages, computation.
	fmt.Printf("aggregation class: %s (computed in parallel at the group-key attribute vertices)\n", ex.Info.Agg)
	fmt.Println("cost:", ex.Stats())

	// 5. The TAG graph is query-independent and cheap to maintain (§3):
	// insert a tuple and query again without rebuilding anything.
	if _, err := g.InsertTuple("orders", relation.Tuple{
		relation.Int(103), relation.Int(20), relation.Int(99)}); err != nil {
		log.Fatal(err)
	}
	fmt.Print(query(ex, cat, "SELECT c_name FROM customer, orders WHERE o_custkey = c_custkey AND o_total > 90"))
	fmt.Print(query(ex, cat, "SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_total > (SELECT AVG(o_total) FROM orders)"))
}

// query answers q with TAG-join, exiting non-zero if the baseline differs.
func query(ex *core.Session, cat *relation.Catalog, q string) *relation.Relation {
	got, err := ex.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	want, err := baseline.New(cat).Query(q)
	if err != nil || !relation.EqualMultisetFuzzy(got, want) {
		log.Fatalf("TAG answer %v differs from the baseline's %v (%v)", got, want, err)
	}
	return got
}
