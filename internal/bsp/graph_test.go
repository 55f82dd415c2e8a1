package bsp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refAdjacency mirrors a Graph's edge lists and dirty set with plain
// slices, in mutation order; a full sort of each list is the adjacency
// a Freeze must produce.
type refAdjacency struct {
	edges [][]Edge
	dirty map[VertexID]bool
}

func (r *refAdjacency) addUndirected(a, b VertexID, lbl LabelID) {
	r.edges[a] = append(r.edges[a], Edge{Label: lbl, To: b})
	r.edges[b] = append(r.edges[b], Edge{Label: lbl, To: a})
	r.dirty[a], r.dirty[b] = true, true
}

func (r *refAdjacency) remove(from, to VertexID, lbl LabelID) {
	r.edges[from] = slices.DeleteFunc(r.edges[from], func(e Edge) bool { return e.To == to && e.Label == lbl })
	r.dirty[from] = true
}

func (r *refAdjacency) isolate(vs []VertexID) {
	gone := make(map[VertexID]bool)
	for _, v := range vs {
		gone[v] = true
	}
	nbrs := make(map[VertexID]bool)
	for _, v := range vs {
		if len(r.edges[v]) == 0 {
			continue
		}
		for _, e := range r.edges[v] {
			if !gone[e.To] {
				nbrs[e.To] = true
			}
		}
		r.edges[v] = nil
		r.dirty[v] = true
	}
	for u := range nbrs {
		r.edges[u] = slices.DeleteFunc(r.edges[u], func(e Edge) bool { return gone[e.To] })
		r.dirty[u] = true
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
	c := &refAdjacency{edges: make([][]Edge, len(r.edges)), dirty: make(map[VertexID]bool)}
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
// same per-label runs and LastFrozenDirty set, and never disturb the
// generations cloned from. The histories hold duplicate edges, several
// labels per vertex, vertices emptied by removal and isolation, and new
// edges that sort before, inside and after a vertex's existing ones.
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

func runFreezeHistories(t *testing.T, bulk bool) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		ref := &refAdjacency{dirty: make(map[VertexID]bool)}
		addVertex := func() {
			g.AddVertex(1, nil)
			ref.edges = append(ref.edges, nil)
			ref.dirty[VertexID(len(ref.edges)-1)] = true
		}
		randVertex := func() VertexID {
			// Skew toward low ids, so a few vertices grow long sorted
			// prefixes that later tails must merge into.
			n := len(ref.edges)
			if rng.Intn(2) == 0 {
				return VertexID(rng.Intn(min(n, 3)))
			}
			return VertexID(rng.Intn(n))
		}
		addEdge := func() {
			a, b := randVertex(), randVertex()
			lbl := LabelID(1 + rng.Intn(refLabels))
			if es := ref.edges[a]; len(es) > 0 && rng.Intn(4) == 0 {
				// Duplicate an existing edge.
				e := es[rng.Intn(len(es))]
				b, lbl = e.To, e.Label
			}
			g.AddUndirectedEdge(a, b, lbl)
			ref.addUndirected(a, b, lbl)
		}
		for i := 0; i < 12; i++ {
			addVertex()
		}
		for i := 0; i < 40; i++ {
			addEdge()
		}
		g.Freeze()
		if bulk {
			g = ref.assembled()
		}
		checkFrozen(t, fmt.Sprintf("seed %d initial", seed), g, ref.frozen())
		if got := g.LastFrozenDirty(); len(got) != 0 {
			t.Fatalf("seed %d: initial LastFrozenDirty = %v, want empty", seed, got)
		}
		clear(ref.dirty)

		type generation struct {
			g    *Graph
			want [][]Edge
		}
		var ancestors []generation
		for cycle := 0; cycle < 120; cycle++ {
			if cycle > 0 && cycle%40 == 0 {
				ancestors = append(ancestors, generation{g, ref.frozen()})
				g = g.Clone()
				ref = ref.clone()
			}
			g.Thaw()
			for op, n := 0, 1+rng.Intn(8); op < n; op++ {
				switch k := rng.Intn(10); {
				case k == 0:
					addVertex()
				case k < 6:
					addEdge()
				case k < 8:
					a := randVertex()
					es := ref.edges[a]
					if len(es) == 0 {
						continue
					}
					e := es[rng.Intn(len(es))]
					// Both directions: IsolateVertices needs symmetric edges.
					g.RemoveEdge(a, e.To, e.Label)
					g.RemoveEdge(e.To, a, e.Label)
					ref.remove(a, e.To, e.Label)
					ref.remove(e.To, a, e.Label)
				default:
					vs := make([]VertexID, 1+rng.Intn(3))
					for i := range vs {
						vs[i] = VertexID(rng.Intn(len(ref.edges)))
					}
					order := slices.Clone(vs)
					g.IsolateVertices(vs)
					ref.isolate(vs)
					if !slices.Equal(vs, order) {
						t.Fatalf("seed %d: IsolateVertices reordered its argument: %v, was %v", seed, vs, order)
					}
				}
			}
			g.Freeze()
			checkFrozen(t, fmt.Sprintf("seed %d cycle %d", seed, cycle), g, ref.frozen())
			var dirty []VertexID
			for v := range ref.dirty {
				dirty = append(dirty, v)
			}
			slices.Sort(dirty)
			if got := g.LastFrozenDirty(); !slices.Equal(got, dirty) {
				t.Fatalf("seed %d cycle %d: LastFrozenDirty = %v, want %v", seed, cycle, got, dirty)
			}
			clear(ref.dirty)
			for i, a := range ancestors {
				checkFrozen(t, fmt.Sprintf("seed %d cycle %d ancestor %d", seed, cycle, i), a.g, a.want)
			}
		}
	}
}
