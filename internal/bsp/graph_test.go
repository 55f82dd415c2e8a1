package bsp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refAdjacency mirrors a Graph's edge lists with plain slices, in
// mutation order; a full sort of each list is the adjacency a Freeze
// must produce.
type refAdjacency struct {
	edges [][]Edge
}

func (r *refAdjacency) addUndirected(a, b VertexID, lbl LabelID) {
	r.edges[a] = append(r.edges[a], Edge{Label: lbl, To: b})
	r.edges[b] = append(r.edges[b], Edge{Label: lbl, To: a})
}

func (r *refAdjacency) remove(from, to VertexID, lbl LabelID) {
	r.edges[from] = slices.DeleteFunc(r.edges[from], func(e Edge) bool { return e.To == to && e.Label == lbl })
}

func (r *refAdjacency) isolate(vs []VertexID) {
	gone := make(map[VertexID]bool)
	for _, v := range vs {
		gone[v] = true
	}
	nbrs := make(map[VertexID]bool)
	for _, v := range vs {
		for _, e := range r.edges[v] {
			if !gone[e.To] {
				nbrs[e.To] = true
			}
		}
		r.edges[v] = nil
	}
	for u := range nbrs {
		r.edges[u] = slices.DeleteFunc(r.edges[u], func(e Edge) bool { return gone[e.To] })
	}
}

// frozen returns each vertex's list fully sorted by (Label, To).
func (r *refAdjacency) frozen() [][]Edge {
	out := make([][]Edge, len(r.edges))
	for v, es := range r.edges {
		s := slices.Clone(es)
		sort.Slice(s, func(i, j int) bool {
			if s[i].Label != s[j].Label {
				return s[i].Label < s[j].Label
			}
			return s[i].To < s[j].To
		})
		out[v] = s
	}
	return out
}

func (r *refAdjacency) clone() *refAdjacency {
	c := &refAdjacency{edges: make([][]Edge, len(r.edges))}
	for v, es := range r.edges {
		c.edges[v] = slices.Clone(es)
	}
	return c
}

const refLabels = 4 // edge labels 1..refLabels

// checkFrozen compares every vertex's adjacency and per-label runs with
// want, and the graph's edge count with want's.
func checkFrozen(t *testing.T, what string, g *Graph, want [][]Edge) {
	t.Helper()
	if g.NumVertices() != len(want) {
		t.Fatalf("%s: %d vertices, want %d", what, g.NumVertices(), len(want))
	}
	total := 0
	for v, w := range want {
		total += len(w)
		id := VertexID(v)
		if got := g.Edges(id); !slices.Equal(got, w) {
			t.Fatalf("%s: vertex %d edges\n got %v\nwant %v", what, v, got, w)
		}
		for lbl := LabelID(0); lbl <= refLabels+1; lbl++ {
			var run []Edge
			for _, e := range w {
				if e.Label == lbl {
					run = append(run, e)
				}
			}
			if got := g.EdgesWithLabel(id, lbl); !slices.Equal(got, run) {
				t.Fatalf("%s: vertex %d label %d run\n got %v\nwant %v", what, v, lbl, got, run)
			}
		}
	}
	if g.NumEdges() != total {
		t.Fatalf("%s: NumEdges %d, want %d", what, g.NumEdges(), total)
	}
}

// TestFreezeMatchesFullSort: random Thaw/mutate/Freeze histories, run on
// a graph and then on a chain of Clones of it, freeze every vertex's
// adjacency to exactly what a full sort of its edges gives, with the
// same per-label runs, and never disturb the generations cloned from.
// The histories hold duplicate edges, several labels per vertex,
// vertices emptied by removal and isolation, and new edges that sort
// before, inside and after a vertex's existing ones. Each clone point
// also takes a sibling clone of the same generation and mutates it
// op by op in step with the other: two clones appending to a list they
// still share would write into the same spare capacity.
func TestFreezeMatchesFullSort(t *testing.T) { runFreezeHistories(t, false) }

// TestNewFrozenGraphMatchesFreeze: the same histories, starting from a
// graph NewFrozenGraph assembles from the first 40 edges' lists in the
// order they were added, most of them unsorted. The assembled graph
// must freeze like the one built edge by edge, and every later
// mutation must stay inside the vertex it names: the lists share one
// array, and a list that let AddEdge write past its end would change
// its neighbour's.
func TestNewFrozenGraphMatchesFreeze(t *testing.T) { runFreezeHistories(t, true) }

// assembled returns the graph NewFrozenGraph makes of r's lists, in
// their order, one array for all of them.
func (r *refAdjacency) assembled() *Graph {
	labels := make([]LabelID, len(r.edges))
	offs := make([]int32, len(r.edges)+1)
	var es []Edge
	for v, list := range r.edges {
		labels[v] = 1
		es = append(es, list...)
		offs[v+1] = int32(len(es))
	}
	return NewFrozenGraph(NewSymbolTable(), labels, make([]any, len(r.edges)), offs, es)
}

// freezeLine is one graph of a history and the reference it must match.
type freezeLine struct {
	g   *Graph
	ref *refAdjacency
}

func (l *freezeLine) clone() *freezeLine {
	return &freezeLine{g: l.g.Clone(), ref: l.ref.clone()}
}

func (l *freezeLine) addVertex() {
	l.g.AddVertex(1, nil)
	l.ref.edges = append(l.ref.edges, nil)
}

// randVertex skews toward low ids, so a few vertices grow long sorted
// prefixes that later tails must merge into.
func (l *freezeLine) randVertex(rng *rand.Rand) VertexID {
	n := len(l.ref.edges)
	if rng.Intn(2) == 0 {
		return VertexID(rng.Intn(min(n, 3)))
	}
	return VertexID(rng.Intn(n))
}

func (l *freezeLine) addEdge(rng *rand.Rand) {
	a, b := l.randVertex(rng), l.randVertex(rng)
	lbl := LabelID(1 + rng.Intn(refLabels))
	if es := l.ref.edges[a]; len(es) > 0 && rng.Intn(4) == 0 {
		// Duplicate an existing edge.
		e := es[rng.Intn(len(es))]
		b, lbl = e.To, e.Label
	}
	l.g.AddUndirectedEdge(a, b, lbl)
	l.ref.addUndirected(a, b, lbl)
}

// mutate applies one random operation to the graph and its reference.
func (l *freezeLine) mutate(t *testing.T, rng *rand.Rand) {
	switch k := rng.Intn(10); {
	case k == 0:
		l.addVertex()
	case k < 6:
		l.addEdge(rng)
	case k < 8:
		a := l.randVertex(rng)
		es := l.ref.edges[a]
		if len(es) == 0 {
			return
		}
		e := es[rng.Intn(len(es))]
		// Both directions: IsolateVertices needs symmetric edges.
		l.g.RemoveEdge(a, e.To, e.Label)
		l.g.RemoveEdge(e.To, a, e.Label)
		l.ref.remove(a, e.To, e.Label)
		l.ref.remove(e.To, a, e.Label)
	default:
		vs := make([]VertexID, 1+rng.Intn(3))
		for i := range vs {
			vs[i] = VertexID(rng.Intn(len(l.ref.edges)))
		}
		order := slices.Clone(vs)
		l.g.IsolateVertices(vs)
		l.ref.isolate(vs)
		if !slices.Equal(vs, order) {
			t.Fatalf("IsolateVertices reordered its argument: %v, was %v", vs, order)
		}
	}
}

func runFreezeHistories(t *testing.T, bulk bool) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := &freezeLine{g: NewGraph(), ref: &refAdjacency{}}
		for i := 0; i < 12; i++ {
			cur.addVertex()
		}
		for i := 0; i < 40; i++ {
			cur.addEdge(rng)
		}
		cur.g.Freeze()
		if bulk {
			cur.g = cur.ref.assembled()
		}
		checkFrozen(t, fmt.Sprintf("seed %d initial", seed), cur.g, cur.ref.frozen())

		type generation struct {
			g    *Graph
			want [][]Edge
		}
		var ancestors []generation
		var sibling *freezeLine
		for cycle := 0; cycle < 120; cycle++ {
			if cycle > 0 && cycle%40 == 0 {
				ancestors = append(ancestors, generation{cur.g, cur.ref.frozen()})
				if sibling != nil {
					ancestors = append(ancestors, generation{sibling.g, sibling.ref.frozen()})
				}
				cur, sibling = cur.clone(), cur.clone()
			}
			lines := []*freezeLine{cur}
			if sibling != nil {
				lines = append(lines, sibling)
			}
			for _, l := range lines {
				l.g.Thaw()
			}
			for op, n := 0, 1+rng.Intn(8); op < n; op++ {
				for _, l := range lines {
					l.mutate(t, rng)
				}
			}
			for i, l := range lines {
				l.g.Freeze()
				checkFrozen(t, fmt.Sprintf("seed %d cycle %d line %d", seed, cycle, i), l.g, l.ref.frozen())
			}
			for i, a := range ancestors {
				checkFrozen(t, fmt.Sprintf("seed %d cycle %d ancestor %d", seed, cycle, i), a.g, a.want)
			}
		}
	}
}
