package tag

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
)

// snapshot captures every observable structural property of a graph that
// clone mutations must not disturb.
type graphSnapshot struct {
	vertices, edges int
	tuples          map[string]int
	attrs           int
	adjacency       map[bsp.VertexID][]bsp.Edge
}

func snap(g *Graph) graphSnapshot {
	s := graphSnapshot{
		vertices:  g.G.NumVertices(),
		edges:     g.G.NumEdges(),
		tuples:    map[string]int{},
		attrs:     g.NumAttrVertices(),
		adjacency: map[bsp.VertexID][]bsp.Edge{},
	}
	for _, name := range g.Catalog.Names() {
		s.tuples[name] = len(g.TupleVertices(name))
	}
	for v := 0; v < g.G.NumVertices(); v++ {
		s.adjacency[bsp.VertexID(v)] = append([]bsp.Edge(nil), g.G.Edges(bsp.VertexID(v))...)
	}
	return s
}

func (s graphSnapshot) diff(t *testing.T, g *Graph) {
	t.Helper()
	if g.G.NumVertices() != s.vertices {
		t.Errorf("original vertex count changed: %d -> %d", s.vertices, g.G.NumVertices())
	}
	if g.G.NumEdges() != s.edges {
		t.Errorf("original edge count changed: %d -> %d", s.edges, g.G.NumEdges())
	}
	if g.NumAttrVertices() != s.attrs {
		t.Errorf("original attr count changed: %d -> %d", s.attrs, g.NumAttrVertices())
	}
	for name, n := range s.tuples {
		if got := len(g.TupleVertices(name)); got != n {
			t.Errorf("original %s tuple vertices changed: %d -> %d", name, n, got)
		}
	}
	for v, edges := range s.adjacency {
		got := g.G.Edges(v)
		if len(got) != len(edges) {
			t.Errorf("original vertex %d adjacency length changed: %d -> %d", v, len(edges), len(got))
			continue
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Errorf("original vertex %d edge %d changed: %v -> %v", v, i, edges[i], got[i])
				break
			}
		}
	}
}

// TestCloneInsertLeavesOriginalUntouched: inserting into a clone must not
// perturb any structure of the original graph, and the clone must answer
// lookups over both old and new data.
func TestCloneInsertLeavesOriginalUntouched(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	before := snap(g)

	next := g.Clone()
	rows := []relation.Tuple{
		{relation.Int(3), relation.Str("JAPAN")},
		{relation.Int(4), relation.Str("USA")}, // shares an existing attribute vertex
	}
	if _, err := next.InsertBatch("nation", rows); err != nil {
		t.Fatal(err)
	}

	before.diff(t, g)
	if got := len(next.TupleVertices("nation")); got != 4 {
		t.Errorf("clone nation tuple vertices = %d, want 4", got)
	}
	if g.Catalog.Get("nation").Len() != 2 {
		t.Errorf("original catalog rows = %d, want 2", g.Catalog.Get("nation").Len())
	}
	if next.Catalog.Get("nation").Len() != 4 {
		t.Errorf("clone catalog rows = %d, want 4", next.Catalog.Get("nation").Len())
	}
	// The shared value "USA" must now have one more edge in the clone only.
	avOld, _ := g.AttrVertexOf(relation.Str("USA"))
	avNew, _ := next.AttrVertexOf(relation.Str("USA"))
	if d := len(next.G.Edges(avNew)) - len(g.G.Edges(avOld)); d != 1 {
		t.Errorf("USA degree delta = %d, want 1", d)
	}
	// The brand-new value exists only in the clone.
	if _, ok := g.AttrVertexOf(relation.Str("JAPAN")); ok {
		t.Error("JAPAN leaked into the original's attribute index")
	}
	if _, ok := next.AttrVertexOf(relation.Str("JAPAN")); !ok {
		t.Error("JAPAN missing from the clone's attribute index")
	}
}

// TestCloneDeleteLeavesOriginalUntouched: deletes in a clone must not
// mark the original's payloads dead or unlink its edges.
func TestCloneDeleteLeavesOriginalUntouched(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	before := snap(g)
	victim := g.TupleVertices("orders")[0]

	next := g.Clone()
	if err := next.DeleteBatch([]bsp.VertexID{victim}); err != nil {
		t.Fatal(err)
	}

	before.diff(t, g)
	if d := g.TupleData(victim); d == nil || d.Dead {
		t.Error("original payload was marked dead through the clone")
	}
	if d := next.TupleData(victim); d == nil || !d.Dead {
		t.Error("clone payload should be dead")
	}
	if got, want := len(next.TupleVertices("orders")), len(g.TupleVertices("orders"))-1; got != want {
		t.Errorf("clone orders tuple vertices = %d, want %d", got, want)
	}
	if g.Catalog.Get("orders").Len() != 2 || next.Catalog.Get("orders").Len() != 1 {
		t.Errorf("catalog rows: original %d (want 2), clone %d (want 1)",
			g.Catalog.Get("orders").Len(), next.Catalog.Get("orders").Len())
	}
}

// TestCloneChain: successive generations cloned from clones stay
// independent (the generation chain the serving layer maintains).
func TestCloneChain(t *testing.T) {
	g, err := Build(figure1Catalog(), MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	gens := []*Graph{g}
	for i := 0; i < 5; i++ {
		next := gens[len(gens)-1].Clone()
		if _, err := next.InsertBatch("customer",
			[]relation.Tuple{{relation.Int(int64(100 + i)), relation.Int(1)}}); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, next)
	}
	for i, gen := range gens {
		if got, want := gen.Catalog.Get("customer").Len(), 2+i; got != want {
			t.Errorf("generation %d sees %d customer rows, want %d", i, got, want)
		}
		if got, want := len(gen.TupleVertices("customer")), 2+i; got != want {
			t.Errorf("generation %d has %d customer tuple vertices, want %d", i, got, want)
		}
	}
}

// TestCloneMaintenanceBesideReaders: while each generation's clone
// inserts and deletes, readers keep reading every older generation —
// its payloads (a deleted tuple's is its table's shared one), its
// attribute dictionary and its catalog rows — and snapshotting it, as
// the serving layer's pinned sessions and checkpointer do. Under -race
// any write the clone makes into memory an older generation can see
// fails the test; without it, the generations' images must not change.
func TestCloneMaintenanceBesideReaders(t *testing.T) {
	g, err := Build(snapshotCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	read := func(gen *Graph, image []byte) {
		defer wg.Done()
		for range 20 {
			for v := 0; v < gen.G.NumVertices(); v++ {
				if d := gen.TupleData(bsp.VertexID(v)); d != nil && !d.Dead {
					gen.AttrVertexOf(d.Row[0])
				}
			}
			for _, row := range gen.Catalog.Get("items").Tuples {
				_ = row[1]
			}
			var buf bytes.Buffer
			if err := gen.WriteSnapshot(&buf); err != nil || !bytes.Equal(buf.Bytes(), image) {
				t.Errorf("a generation's image changed under its clone's maintenance: %v", err)
				return
			}
		}
	}
	for i := range 6 {
		wg.Add(1)
		go read(g, snapshotBytes(t, g))
		next := g.Clone()
		ids, err := next.InsertBatch("items", []relation.Tuple{
			{relation.Int(int64(20 + i)), relation.Str("n"), relation.Null, relation.Str("c")},
			{relation.Int(2), relation.Str("b"), relation.Null, relation.Str("c2")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := next.DeleteBatch([]bsp.VertexID{next.TupleVertices("items")[0], ids[1]}); err != nil {
			t.Fatal(err)
		}
		g = next
	}
	wg.Wait()
}
