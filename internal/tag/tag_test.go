package tag

import (
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// figure1Catalog reconstructs the Example 3.1 instance: NATION, CUSTOMER
// and ORDER tuples sharing attribute values.
func figure1Catalog() *relation.Catalog {
	cat := relation.NewCatalog()

	nation := relation.New("nation", relation.MustSchema(
		relation.Col("nationkey", relation.KindInt),
		relation.Col("name", relation.KindString)))
	nation.MustAppend(relation.Int(1), relation.Str("USA"))
	nation.MustAppend(relation.Int(2), relation.Str("FRANCE"))
	cat.MustAdd(nation)

	customer := relation.New("customer", relation.MustSchema(
		relation.Col("custkey", relation.KindInt),
		relation.Col("nationkey", relation.KindInt)))
	customer.MustAppend(relation.Int(10), relation.Int(1))
	customer.MustAppend(relation.Int(2), relation.Int(2))
	cat.MustAdd(customer)

	order := relation.New("orders", relation.MustSchema(
		relation.Col("orderkey", relation.KindInt),
		relation.Col("custkey", relation.KindInt),
		relation.Col("odate", relation.KindDate)))
	order.MustAppend(relation.Int(100), relation.Int(10), relation.DateOf(2020, 1, 1))
	order.MustAppend(relation.Int(2), relation.Int(2), relation.DateOf(2020, 1, 1))
	cat.MustAdd(order)

	return cat
}

func TestBuildFigure1(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTupleVertices() != 6 {
		t.Errorf("tuple vertices = %d, want 6", g.NumTupleVertices())
	}
	// Distinct values: ints {1,2,10,100}, strings {USA,FRANCE}, one date.
	if g.NumAttrVertices() != 7 {
		t.Errorf("attr vertices = %d, want 7", g.NumAttrVertices())
	}
	// Value 2 is shared by nation_2.nationkey, customer_2.{custkey,nationkey},
	// orders_2.{orderkey,custkey}: one vertex, five undirected edges.
	av, ok := g.AttrVertexOf(relation.Int(2))
	if !ok {
		t.Fatal("value 2 should be materialized")
	}
	if deg := len(g.G.Edges(av)); deg != 5 {
		t.Errorf("attr vertex 2 degree = %d, want 5", deg)
	}
	// Both ORDER tuples share the same date vertex.
	dv, ok := g.AttrVertexOf(relation.DateOf(2020, 1, 1))
	if !ok {
		t.Fatal("date should be materialized")
	}
	lbl, ok := g.EdgeLabel("orders", "odate")
	if !ok {
		t.Fatal("edge label missing")
	}
	if n := g.G.DegreeWithLabel(dv, lbl); n != 2 {
		t.Errorf("date vertex O.odate degree = %d, want 2", n)
	}
}

func TestGraphIsBipartite(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.G.NumVertices(); v++ {
		vid := bsp.VertexID(v)
		isAttr := g.IsAttr(vid)
		for _, e := range g.G.Edges(vid) {
			if g.IsAttr(e.To) == isAttr {
				t.Fatalf("edge %d->%d connects same-kind vertices", v, e.To)
			}
		}
	}
}

func TestEdgeLabelAndLookups(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.EdgeLabel("NATION", "NATIONKEY"); !ok {
		t.Error("case-insensitive edge label lookup failed")
	}
	if _, ok := g.EdgeLabel("nation", "nope"); ok {
		t.Error("bogus column should not resolve")
	}
	if _, ok := g.tupleLabel["customer"]; !ok {
		t.Error("tuple label missing")
	}
	if n := len(g.TupleVertices("orders")); n != 2 {
		t.Errorf("orders tuple vertices = %d", n)
	}
	lbl, _ := g.EdgeLabel("customer", "nationkey")
	if n := len(g.AttrVertices(lbl)); n != 2 {
		t.Errorf("distinct customer.nationkey values = %d, want 2", n)
	}
	if !g.Materialized("nation", "name") {
		t.Error("name should be materialized")
	}
}

func TestPolicySkipsFloatsAndComments(t *testing.T) {
	cat := relation.NewCatalog()
	r := relation.New("part", relation.MustSchema(
		relation.Col("partkey", relation.KindInt),
		relation.Col("retailprice", relation.KindFloat),
		relation.Col("comment", relation.KindString)))
	r.MustAppend(relation.Int(1), relation.Float(10.5), relation.Str("blah"))
	cat.MustAdd(r)

	g, err := Build(cat, nil) // DefaultPolicy
	if err != nil {
		t.Fatal(err)
	}
	if g.Materialized("part", "retailprice") {
		t.Error("floats must not be materialized by default")
	}
	if g.Materialized("part", "comment") {
		t.Error("comments must not be materialized by default")
	}
	if !g.Materialized("part", "partkey") {
		t.Error("keys must be materialized")
	}
	if _, ok := g.AttrVertexOf(relation.Float(10.5)); ok {
		t.Error("non-materialized value must have no vertex")
	}
	// The tuple still stores the value.
	tv := g.TupleVertices("part")[0]
	if g.TupleData(tv).Row[1] != relation.Float(10.5) {
		t.Error("tuple vertex must retain non-materialized values")
	}
}

func TestNullsProduceNoEdges(t *testing.T) {
	cat := relation.NewCatalog()
	r := relation.New("t", relation.MustSchema(relation.Col("a", relation.KindInt)))
	r.MustAppend(relation.Null)
	r.MustAppend(relation.Int(5))
	cat.MustAdd(r)
	g, err := Build(cat, MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	if g.G.NumEdges() != 2 { // one undirected edge = 2 directed
		t.Errorf("edges = %d, want 2 (NULL must not link)", g.G.NumEdges())
	}
}

func TestLinearSizeProperty(t *testing.T) {
	// |TAG| is linear in |DB|: vertices <= tuples + total values, edges
	// (undirected) <= total non-null values.
	f := func(rows []uint8) bool {
		cat := relation.NewCatalog()
		r := relation.New("r", relation.MustSchema(
			relation.Col("a", relation.KindInt),
			relation.Col("b", relation.KindInt)))
		for _, x := range rows {
			r.MustAppend(relation.Int(int64(x%16)), relation.Int(int64(x/16)))
		}
		cat.MustAdd(r)
		g, err := Build(cat, MaterializeAll)
		if err != nil {
			return false
		}
		values := 2 * len(rows)
		return g.NumTupleVertices() == len(rows) &&
			g.NumAttrVertices() <= values &&
			g.G.NumEdges() == 2*values
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInsertTuple(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	before := g.NumAttrVertices()
	tv, err := g.InsertTuple("nation", relation.Tuple{relation.Int(3), relation.Str("PERU")})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTupleVertices() != 7 {
		t.Errorf("tuple vertices = %d, want 7", g.NumTupleVertices())
	}
	// Int 3 and PERU are new; vertex count grows by 2.
	if g.NumAttrVertices() != before+2 {
		t.Errorf("attr vertices = %d, want %d", g.NumAttrVertices(), before+2)
	}
	lbl, _ := g.EdgeLabel("nation", "nationkey")
	if g.G.DegreeWithLabel(tv, lbl) == 0 {
		t.Error("inserted tuple should have key edge")
	}
	// Catalog stays in sync.
	if g.Catalog.Get("nation").Len() != 3 {
		t.Error("catalog not updated")
	}
	// Inserting an existing value reuses its vertex.
	before = g.NumAttrVertices()
	if _, err := g.InsertTuple("nation", relation.Tuple{relation.Int(1), relation.Str("USA")}); err != nil {
		t.Fatal(err)
	}
	if g.NumAttrVertices() != before {
		t.Error("existing values must reuse attribute vertices")
	}
	if _, err := g.InsertTuple("bogus", relation.Tuple{}); err == nil {
		t.Error("unknown relation should error")
	}
}

func TestDeleteTuple(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	tv := g.TupleVertices("customer")[0]
	if err := g.DeleteBatch([]bsp.VertexID{tv}); err != nil {
		t.Fatal(err)
	}
	if len(g.G.Edges(tv)) != 0 {
		t.Error("deleted tuple must lose its edges")
	}
	if len(g.TupleVertices("customer")) != 1 {
		t.Error("tuple list not updated")
	}
	if g.Catalog.Get("customer").Len() != 1 {
		t.Error("catalog not updated")
	}
	// Attribute vertex for 10 is now orphaned but harmless.
	av, _ := g.AttrVertexOf(relation.Int(10))
	lbl, _ := g.EdgeLabel("customer", "custkey")
	if g.G.DegreeWithLabel(av, lbl) > 0 {
		t.Error("attr vertex must lose its back-edge")
	}
	if err := g.DeleteBatch([]bsp.VertexID{tv}); err == nil {
		t.Error("double delete should error")
	}
	av2, _ := g.AttrVertexOf(relation.Int(1))
	if err := g.DeleteBatch([]bsp.VertexID{av2}); err == nil {
		t.Error("deleting an attribute vertex should error")
	}
}

func TestByteSizeAndString(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	if g.ByteSize() <= 0 {
		t.Error("byte size should be positive")
	}
	if g.String() == "" {
		t.Error("String should be non-empty")
	}
}
