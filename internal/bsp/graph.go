package bsp

import (
	"cmp"
	"fmt"
	"slices"
)

// VertexID indexes a vertex in a Graph.
type VertexID int32

// Edge is a directed, labeled edge. Undirected relationships (like TAG
// edges, footnote 3 of the paper) are modeled as two directed edges.
type Edge struct {
	Label LabelID
	To    VertexID
}

// edgeKey packs an edge into one integer ordered as the frozen
// adjacency is: by Label, then by To (neither is ever negative).
func edgeKey(e Edge) uint64 { return uint64(e.Label)<<32 | uint64(uint32(e.To)) }

func cmpEdge(a, b Edge) int { return cmp.Compare(edgeKey(a), edgeKey(b)) }

// Graph is a labeled directed multigraph with per-vertex payloads.
// Build with AddVertex/AddEdge, then call Freeze before running programs.
// Once frozen, the structure is immutable and safe for any number of
// concurrent readers (engines); Thaw/mutate/Freeze cycles require
// exclusive access — no engine may be running on *this* graph value
// during maintenance. Clone produces a copy-on-write snapshot that may
// be thawed and mutated while readers keep using the original, which is
// how the serving layer builds its next graph generation off to the
// side.
type Graph struct {
	Symbols *SymbolTable
	// Per-vertex columns, indexed by id. Labels are never rewritten, so
	// a clone shares them; payloads can be replaced with SetData.
	labels   []LabelID
	data     []any
	adj      [][]Edge // each list sorted by edgeKey while frozen
	frozen   bool
	numEdges int

	// Copy-on-write state. A graph returned by Clone shares the edge
	// lists of vertices below cowLimit with its parent until they are
	// first mutated; owned records which of those have been privatized.
	// On a graph that is not a clone, cowLimit is 0 and nothing is shared.
	cowLimit int
	owned    map[VertexID]bool

	// dirty holds the vertices whose adjacency changed since the last
	// Freeze, the only lists Freeze has to sort.
	dirty map[VertexID]bool
}

// NewGraph returns an empty graph with a fresh symbol table.
func NewGraph() *Graph {
	return &Graph{Symbols: NewSymbolTable(), dirty: make(map[VertexID]bool)}
}

// Clone returns a copy-on-write snapshot of a frozen graph. The clone
// shares per-vertex edge storage (and the symbol table, which is
// internally synchronized) with the receiver; any vertex the clone
// mutates is privatized first, so readers of the original never observe
// a write. The original must stay frozen for as long as the clone is
// alive — the intended discipline is that the original is an immutable
// published generation and the clone is its in-progress successor.
func (g *Graph) Clone() *Graph {
	if !g.frozen {
		panic("bsp: Clone of unfrozen graph")
	}
	n := len(g.adj)
	// Room to grow spares a written clone's first AddVertex a second copy.
	return &Graph{
		Symbols:  g.Symbols,
		labels:   g.labels[:n:n],
		data:     append(make([]any, 0, n+n/8), g.data...),
		adj:      append(make([][]Edge, 0, n+n/8), g.adj...),
		frozen:   true,
		numEdges: g.numEdges,
		cowLimit: n,
		owned:    make(map[VertexID]bool),
		dirty:    make(map[VertexID]bool),
	}
}

// own privatizes a possibly-shared edge list before mutation.
func (g *Graph) own(v VertexID) {
	if int(v) >= g.cowLimit || g.owned[v] {
		return
	}
	g.adj[v] = slices.Clone(g.adj[v])
	g.owned[v] = true
}

func (g *Graph) markDirty(v VertexID) { g.dirty[v] = true }

// AddVertex creates a vertex with the given label id and payload.
func (g *Graph) AddVertex(label LabelID, data any) VertexID {
	if g.frozen {
		panic("bsp: AddVertex after Freeze")
	}
	g.labels = append(g.labels, label)
	g.data = append(g.data, data)
	g.adj = append(g.adj, nil)
	id := VertexID(len(g.adj) - 1)
	g.markDirty(id)
	return id
}

// AddEdge adds a directed labeled edge.
func (g *Graph) AddEdge(from, to VertexID, label LabelID) {
	if g.frozen {
		panic("bsp: AddEdge after Freeze")
	}
	g.own(from)
	g.markDirty(from)
	g.adj[from] = append(g.adj[from], Edge{Label: label, To: to})
	g.numEdges++
}

// AddUndirectedEdge adds the two directed edges modeling an undirected one.
func (g *Graph) AddUndirectedEdge(a, b VertexID, label LabelID) {
	g.AddEdge(a, b, label)
	g.AddEdge(b, a, label)
}

// RemoveEdge deletes all (from -> to) edges with the given label.
// Only valid before Freeze. Deletion goes through IsolateVertices; this
// per-edge form is the reference its tests compare against.
func (g *Graph) RemoveEdge(from, to VertexID, label LabelID) {
	if g.frozen {
		panic("bsp: RemoveEdge after Freeze")
	}
	g.own(from)
	g.markDirty(from)
	before := len(g.adj[from])
	g.adj[from] = slices.DeleteFunc(g.adj[from], func(e Edge) bool { return e.To == to && e.Label == label })
	g.numEdges -= before - len(g.adj[from])
}

// IsolateVertices deletes every edge incident to the given vertices, in
// both directions: their own adjacency lists are dropped, and each
// neighbour's list is filtered once for the whole set, however many of
// the vertices it was adjacent to. Edges must be symmetric (every a->b
// has a b->a, as AddUndirectedEdge makes them), which is what lets the
// neighbours be found from the vertices' own lists. Only valid before
// Freeze; used by incremental TAG maintenance to delete a batch of
// tuples at a cost proportional to the touched adjacency.
//
// Batch membership is a range check plus a binary search over a sorted
// copy of vs (the caller's slice keeps its order), not a hash probe: the
// filter of a hot attribute vertex tests every one of its edges.
func (g *Graph) IsolateVertices(vs []VertexID) {
	if g.frozen {
		panic("bsp: IsolateVertices after Freeze")
	}
	if len(vs) == 0 {
		return
	}
	gone := slices.Clone(vs)
	slices.Sort(gone)
	var nbrs []VertexID
	for _, v := range vs {
		if len(g.adj[v]) == 0 {
			continue
		}
		for _, e := range g.adj[v] {
			if !inSorted(gone, e.To) {
				nbrs = append(nbrs, e.To)
			}
		}
		g.numEdges -= len(g.adj[v])
		g.adj[v] = nil // a fresh header: a shared backing array is never written
		g.markDirty(v)
	}
	slices.Sort(nbrs)
	for _, u := range slices.Compact(nbrs) {
		g.own(u)
		g.markDirty(u)
		before := len(g.adj[u])
		g.adj[u] = slices.DeleteFunc(g.adj[u], func(e Edge) bool { return inSorted(gone, e.To) })
		g.numEdges -= before - len(g.adj[u])
	}
}

// inSorted reports whether v is in the non-empty ascending slice s: ids
// outside [s[0], s[len(s)-1]] cost two compares, the rest a binary search.
func inSorted(s []VertexID, v VertexID) bool {
	if v < s[0] || v > s[len(s)-1] {
		return false
	}
	_, found := slices.BinarySearch(s, v)
	return found
}

// Freeze sorts the adjacency lists that changed since the last Freeze by
// (label, to). The graph is immutable afterwards (vertex payloads may
// still change).
func (g *Graph) Freeze() {
	var buf []Edge // merge scratch, shared by every vertex of this Freeze
	for v := range g.dirty {
		g.own(v) // the merge writes in place; never touch a shared list
		buf = sortEdges(g.adj[v], buf)
		delete(g.dirty, v)
	}
	g.frozen = true
}

// sortEdges sorts es by edgeKey in place; buf is merge scratch, returned
// so the next list can reuse it.
//
// Between Freezes an adjacency list is only appended to (AddEdge) or
// filtered in order (RemoveEdge, IsolateVertices), so it is a sorted
// prefix followed by an unsorted tail of new edges. One scan finds the
// prefix; only the tail is sorted, and it is merged into the prefix from
// the back, in place. Equal edges are identical values, so the result is
// exactly the full sort's, and an already-sorted list costs the scan.
func sortEdges(es, buf []Edge) []Edge {
	if p := sortedPrefix(es); p < len(es) {
		slices.SortFunc(es[p:], cmpEdge)
		buf = mergeTail(es, p, buf)
	}
	return buf
}

// sortedPrefix returns the length of the longest prefix of es sorted by
// edgeKey.
func sortedPrefix(es []Edge) int {
	p := 1
	for p < len(es) && edgeKey(es[p-1]) <= edgeKey(es[p]) {
		p++
	}
	return min(p, len(es))
}

// NewFrozenGraph assembles a frozen graph from whole arrays, in the
// state Freeze leaves a graph built vertex by vertex: vertex v has
// label labels[v], payload data[v] and adjacency es[offs[v]:offs[v+1]].
// The graph takes the three slices over; offs is only read.
//
// Each vertex's list is a capped sub-slice of es, so a later AddEdge
// reallocates it and never writes into the next vertex's list. A list
// already sorted by (label, to), as a caller filling lists column by
// column produces, costs one scan; any other is sorted.
func NewFrozenGraph(symbols *SymbolTable, labels []LabelID, data []any, offs []int32, es []Edge) *Graph {
	n := len(labels)
	if len(data) != n || len(offs) != n+1 || offs[0] != 0 || int(offs[n]) != len(es) {
		panic("bsp: NewFrozenGraph with inconsistent arrays")
	}
	adj := make([][]Edge, n)
	for v := range adj {
		lo, hi := offs[v], offs[v+1]
		if lo == hi {
			continue
		}
		list := es[lo:hi:hi]
		if sortedPrefix(list) < len(list) {
			slices.SortFunc(list, cmpEdge)
		}
		adj[v] = list
	}
	return &Graph{
		Symbols:  symbols,
		labels:   labels,
		data:     data,
		adj:      adj,
		frozen:   true,
		numEdges: len(es),
		dirty:    make(map[VertexID]bool),
	}
}

// mergeTail merges the sorted tail es[p:] into the sorted prefix es[:p]
// in place. The tail is copied to buf and the merge fills es from the
// back, so each write lands past every prefix element not yet read.
func mergeTail(es []Edge, p int, buf []Edge) []Edge {
	buf = append(buf[:0], es[p:]...)
	i, j := p-1, len(buf)-1
	for k := len(es) - 1; j >= 0; k-- {
		if i >= 0 && edgeKey(buf[j]) < edgeKey(es[i]) {
			es[k] = es[i]
			i--
		} else {
			es[k] = buf[j]
			j--
		}
	}
	return buf
}

// Thaw re-enables mutation (incremental maintenance); Freeze must be
// called again before running programs.
func (g *Graph) Thaw() { g.frozen = false }

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.frozen }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.numEdges }

// Label returns the label of v.
func (g *Graph) Label(v VertexID) LabelID { return g.labels[v] }

// Data returns the payload of v.
func (g *Graph) Data(v VertexID) any { return g.data[v] }

// SetData replaces the payload of v.
func (g *Graph) SetData(v VertexID, data any) { g.data[v] = data }

// Edges returns the full adjacency list of v (read-only).
func (g *Graph) Edges(v VertexID) []Edge { return g.adj[v] }

// EdgesWithLabel returns the contiguous run of v's edges carrying the
// label, as a sub-slice of the frozen adjacency list, found by two
// binary searches: one for the first edge whose label is at least label,
// one for the first whose label is above it.
func (g *Graph) EdgesWithLabel(v VertexID, label LabelID) []Edge {
	if !g.frozen {
		panic("bsp: EdgesWithLabel before Freeze")
	}
	es := g.adj[v]
	lo, hi := 0, len(es)
	for lo < hi { // lo becomes the first edge whose label is at least label
		m := int(uint(lo+hi) >> 1)
		if es[m].Label < label {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(es) || es[lo].Label != label {
		return nil
	}
	i, hi := lo+1, len(es)
	for i < hi { // hi becomes the first edge whose label is above label
		m := int(uint(i+hi) >> 1)
		if es[m].Label > label {
			hi = m
		} else {
			i = m + 1
		}
	}
	return es[lo:hi]
}

// DegreeWithLabel returns the number of v's out-edges carrying label;
// this is the §6.1.2 heavy/light occurrence count.
func (g *Graph) DegreeWithLabel(v VertexID, label LabelID) int {
	return len(g.EdgesWithLabel(v, label))
}

// ByteSize estimates the in-memory footprint of the graph structure plus
// payloads that implement interface{ Size() int }; used by the Figure 14
// load-size experiment.
func (g *Graph) ByteSize() int {
	n := 0
	for i, es := range g.adj {
		n += 16 + len(es)*8
		if s, ok := g.data[i].(interface{ Size() int }); ok {
			n += s.Size()
		}
	}
	return n
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{%d vertices, %d edges, %d labels}", g.NumVertices(), g.NumEdges(), g.Symbols.Len())
}
