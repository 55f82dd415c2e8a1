package main

import (
	"reflect"
	"testing"

	"repro/internal/tpch"
)

func TestClassQueriesPartitionTheWorkload(t *testing.T) {
	ga, join, all := classQueries("ga"), classQueries("join"), classQueries("all")
	if len(ga) != 10 || len(join) != 12 || len(all) != 22 {
		t.Fatalf("ga %d, join %d, all %d statements", len(ga), len(join), len(all))
	}
	seen := map[string]bool{}
	for _, s := range append(append([]stmt(nil), ga...), join...) {
		if seen[s.ID] {
			t.Errorf("%s is in both classes", s.ID)
		}
		seen[s.ID] = true
	}
}

// The same seed must give the same statements; the program under test
// sees nothing else of the seed.
func TestReadStreamIsDeterministicPerSeed(t *testing.T) {
	cat := tpch.Generate(0.5, 7)
	mix, err := newReadMix(cat, 7, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	a := sample(newReadStream(mix, 42), 500)
	b := sample(newReadStream(mix, 42), 500)
	c := sample(newReadStream(mix, 43), 500)
	sqlOf := func(ss []stmt) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = s.SQL
		}
		return out
	}
	if !reflect.DeepEqual(sqlOf(a), sqlOf(b)) {
		t.Error("two streams with one seed differ")
	}
	if reflect.DeepEqual(sqlOf(a), sqlOf(c)) {
		t.Error("streams with different seeds are identical")
	}

	mix2, err := newReadMix(tpch.Generate(0.5, 7), 7, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mix.keys, mix2.keys) {
		t.Error("key popularity order is not a function of the seed")
	}

	kinds := map[string]int{}
	for _, s := range a {
		kinds[s.Kind]++
		if s.Kind == "lookup" && s.Rows != mix.lines[s.Key] {
			t.Errorf("lookup of order %d expects %d rows, catalog has %d", s.Key, s.Rows, mix.lines[s.Key])
		}
	}
	if kinds["lookup"] < 250 || kinds["lookup"] > 350 || kinds["fixed"] < 100 || kinds["fixed"] > 200 || kinds["scan"] < 20 || kinds["scan"] > 80 {
		t.Errorf("mix of 500 is %v, want about 300 lookups, 150 fixed, 50 scans", kinds)
	}
}

// Which TPC-H statement is hot must not depend on the seed: otherwise a
// seed would choose how expensive serve_write's reader is.
func TestWriteReadStreamPopularityIsSeedIndependent(t *testing.T) {
	hottest := func(seed int64) string {
		count := map[string]int{}
		for _, s := range sample(newWriteReadStream(seed, 1.1), 2000) {
			if s.Kind == "tpch" {
				count[s.ID]++
			}
		}
		best := ""
		for id, n := range count {
			if n > count[best] {
				best = id
			}
		}
		return best
	}
	if a, b := hottest(1), hottest(99); a != "q1" || b != "q1" {
		t.Errorf("hottest statements are %s and %s, want q1 for every seed", a, b)
	}
	a := sample(newWriteReadStream(5, 1.1), 100)
	b := sample(newWriteReadStream(5, 1.1), 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("two reader streams with one seed differ")
	}
}

func TestBatchGenIsDeterministicWithFreshKeys(t *testing.T) {
	cat := tpch.Generate(0.5, 3)
	p := defaultParams(1)
	g1, g2 := newBatchGen(cat, 9, p), newBatchGen(cat, 9, p)
	keys := map[int64]bool{}
	for i := 0; i < 5; i++ {
		o1, l1 := g1.next()
		o2, l2 := g2.next()
		if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(l1, l2) {
			t.Fatal("two generators with one seed differ")
		}
		if len(o1)+len(l1) != p.rowsPerBatch() {
			t.Fatalf("batch has %d rows, want %d", len(o1)+len(l1), p.rowsPerBatch())
		}
		for _, o := range o1 {
			k := o[0].AsInt()
			if keys[k] || k < 1<<40 {
				t.Fatalf("order key %d reused or inside the generated range", k)
			}
			keys[k] = true
		}
		for _, l := range l1 {
			if !keys[l[0].AsInt()] {
				t.Fatalf("lineitem references order %d, which this generator never made", l[0].AsInt())
			}
		}
	}
	if n := cat.Get("orders").Len(); n == 0 || cat.Get("orders").Tuples[0][0].AsInt() >= 1<<40 {
		t.Error("generating batches changed the catalog's own rows")
	}
}
