// Triangles: cyclic queries and the worst-case-optimal machinery (§6).
// Encodes a synthetic follower graph as relations, counts triangles with
// a cyclic SQL query, shows the heavy/light θ threshold at work, and
// verifies every θ variant against a brute-force nested-index count —
// the scale-N scenario rows drive this binary and assert the
// "verified OK" line.
//
//	go run ./examples/triangles -nodes 400 -edges 3000
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
)

func main() {
	nodes := flag.Int("nodes", 120, "follower-graph node count")
	edges := flag.Int("edges", 900, "edges per relation")
	seed := flag.Int64("seed", 7, "graph seed")
	flag.Parse()

	// Build three edge relations R(A,B), S(B,C), T(C,A) over a random
	// graph with a few celebrity ("heavy") nodes, the skew §6.1.2 targets.
	rng := rand.New(rand.NewSource(*seed))

	mk := func(name, c1, c2 string) *relation.Relation {
		return relation.New(name, relation.MustSchema(
			relation.Col(c1, relation.KindInt), relation.Col(c2, relation.KindInt)))
	}
	r, s, t := mk("r", "a", "b"), mk("s", "b", "c"), mk("t", "c", "a")
	pick := func() int64 {
		if rng.Intn(4) == 0 { // heavy hitters
			return int64(rng.Intn(4))
		}
		return int64(rng.Intn(*nodes))
	}
	for i := 0; i < *edges; i++ {
		a, b, c := pick(), pick(), pick()
		r.MustAppend(relation.Int(a), relation.Int(b))
		s.MustAppend(relation.Int(b), relation.Int(c))
		t.MustAppend(relation.Int(c), relation.Int(a))
	}

	// Ground truth, independent of the engine: index S by b and count T
	// edges by (c,a), then walk R once. Join multiplicities (duplicate
	// edges) count exactly as SQL COUNT(*) does.
	sByB := map[int64][]int64{}
	for _, tup := range s.Tuples {
		sByB[tup[0].AsInt()] = append(sByB[tup[0].AsInt()], tup[1].AsInt())
	}
	tCount := map[[2]int64]int64{}
	for _, tup := range t.Tuples {
		tCount[[2]int64{tup[0].AsInt(), tup[1].AsInt()}]++
	}
	var want int64
	for _, tup := range r.Tuples {
		a, b := tup[0].AsInt(), tup[1].AsInt()
		for _, c := range sByB[b] {
			want += tCount[[2]int64{c, a}]
		}
	}
	cat := relation.NewCatalog()
	cat.MustAdd(r)
	cat.MustAdd(s)
	cat.MustAdd(t)

	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("follower graph encoded:", g)

	// The triangle query (§6.1). The planner detects the cycle, breaks
	// it for the join tree, and runs the heavy/light pre-pass.
	const triangle = `
		SELECT COUNT(*) FROM r, s, t
		WHERE r.b = s.b AND s.c = t.c AND t.a = r.a`

	for _, theta := range []float64{0, 1, 1e9} {
		ex := core.NewSession(g, bsp.Options{})
		ex.Theta = theta
		start := time.Now()
		out, err := ex.Query(triangle)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("θ=%g", theta)
		if theta == 0 {
			label = "θ=√IN (paper default)"
		}
		got := out.Tuples[0][0].AsInt()
		fmt.Printf("%-24s triangles=%v  cyclic=%v  time=%v  %v\n",
			label, got, !ex.Info.Acyclic,
			time.Since(start).Round(time.Microsecond), ex.Stats())
		if got != want {
			log.Fatalf("%s counted %d triangles, brute force says %d", label, got, want)
		}
	}
	fmt.Printf("triangle count %d verified OK at every θ\n", want)

	// Cyclic queries compose with everything else: filter the triangles
	// through one more (acyclic) join.
	names := relation.New("names", relation.MustSchema(
		relation.Col("id", relation.KindInt), relation.Col("label", relation.KindString)))
	for i := 0; i < 4; i++ {
		names.MustAppend(relation.Int(int64(i)), relation.Str(fmt.Sprintf("celebrity-%d", i)))
	}
	cat2 := relation.NewCatalog()
	cat2.MustAdd(r)
	cat2.MustAdd(s)
	cat2.MustAdd(t)
	cat2.MustAdd(names)
	g2, err := tag.Build(cat2, tag.MaterializeAll)
	if err != nil {
		log.Fatal(err)
	}
	ex := core.NewSession(g2, bsp.Options{})
	out, err := ex.Query(`
		SELECT label, COUNT(*) AS triangles FROM r, s, t, names
		WHERE r.b = s.b AND s.c = t.c AND t.a = r.a AND names.id = r.a
		GROUP BY label`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntriangles through the celebrity vertices:")
	fmt.Print(out)
}
