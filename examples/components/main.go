// Connected components: the BSP engine as a general graph engine (§2).
// Encodes a random undirected graph straight into bsp.Graph (no SQL, no
// TAG encoding) and runs the classic Pregel label-propagation program:
// every vertex starts as its own component, floods the minimum label it
// has seen along its edges, and the run halts when no label improves.
// A min-combiner folds the flood at Send time, so each vertex receives
// at most one message per superstep regardless of degree.
//
// The result is verified against a union-find over the same edge list,
// and the program is run at several worker counts to show the sharded
// message plane computes the identical partition.
//
//	go run ./examples/components -nodes 4000 -edges 6000
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/bsp"
)

// minCombiner folds a label flood to its minimum: one message per
// (vertex, superstep) survives no matter how many neighbors sent.
type minCombiner struct{}

func (minCombiner) Fold(acc, payload any) any {
	if acc == nil || payload.(int64) < acc.(int64) {
		return payload
	}
	return acc
}

func (minCombiner) Merge(acc, other any) any {
	if other.(int64) < acc.(int64) {
		return other
	}
	return acc
}

// ccProgram is min-label propagation: vertex data holds the smallest
// component label seen so far.
type ccProgram struct{ edge bsp.LabelID }

func (p ccProgram) Compute(ctx *bsp.Context, v bsp.VertexID, inbox []bsp.Message) {
	g := ctx.Graph()
	cur := g.Data(v).(int64)
	if ctx.Step() == 0 {
		ctx.SendAlong(v, p.edge, cur)
		return
	}
	best := cur
	for i := range inbox {
		if l := inbox[i].Payload.(int64); l < best {
			best = l
		}
	}
	if best < cur {
		g.SetData(v, best)
		ctx.SendAlong(v, p.edge, best)
	}
}

func main() {
	nodes := flag.Int("nodes", 4000, "vertex count")
	edges := flag.Int("edges", 6000, "undirected edge count")
	seed := flag.Int64("seed", 7, "graph seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	type pair struct{ a, b int }
	edgeList := make([]pair, *edges)
	for i := range edgeList {
		edgeList[i] = pair{rng.Intn(*nodes), rng.Intn(*nodes)}
	}

	// Ground truth: union-find over the same edges.
	parent := make([]int, *nodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edgeList {
		if ra, rb := find(e.a), find(e.b); ra != rb {
			parent[ra] = rb
		}
	}
	want := map[int]bool{}
	for i := range parent {
		want[find(i)] = true
	}

	build := func() (*bsp.Graph, bsp.LabelID, []bsp.VertexID) {
		labels := bsp.NewSymbolTable()
		node, edge := labels.Intern("node"), labels.Intern("edge")
		g := bsp.NewGraph()
		ids := make([]bsp.VertexID, *nodes)
		for i := range ids {
			ids[i] = g.AddVertex(node, int64(i))
		}
		for _, e := range edgeList {
			g.AddUndirectedEdge(ids[e.a], ids[e.b], edge)
		}
		g.Freeze()
		return g, edge, ids
	}

	fmt.Printf("random graph: %d nodes, %d undirected edges, %d components by union-find\n",
		*nodes, len(edgeList), len(want))

	var counts []int
	for _, workers := range []int{1, 4} {
		g, edge, ids := build()
		eng := bsp.NewEngine(g, bsp.Options{Workers: workers})
		prog := bsp.WithCombiner(ccProgram{edge: edge}, minCombiner{})
		start := time.Now()
		stats := eng.Run(prog, ids)
		got := map[int64]bool{}
		for _, v := range ids {
			got[g.Data(v).(int64)] = true
		}
		counts = append(counts, len(got))
		fmt.Printf("workers=%d  components=%d  time=%v  %v\n",
			workers, len(got), time.Since(start).Round(time.Microsecond), stats)
	}

	for _, n := range counts {
		if n != len(want) {
			log.Fatalf("component count %d disagrees with union-find %d", n, len(want))
		}
	}
	fmt.Printf("components=%d verified OK\n", len(want))
}
