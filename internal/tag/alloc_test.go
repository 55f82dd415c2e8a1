package tag

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/tpch"
)

// TestBuildAllocationsFollowGraph is the bound test for the bulk
// construction of the encoding. Build and ReadSnapshot allocate a
// constant number of objects per vertex and of bytes per directed edge,
// whatever the scale: across TPC-H scales 0.5, 1 and 2 no measure grows
// by more than 20%, and each stays under a ceiling midway between the
// per-edge construction's lowest value and the bulk one's highest.
// ReadSnapshot is measured net of decoding the catalog rows the image
// carries, which relation.ReadCatalog does the same either way.
//
// The per-edge construction grew every adjacency list by append and
// had Freeze sort the attribute lists. It measured 6.5-7.2 allocations
// per vertex and 72-80 B per edge in Build, and 6.6-7.2 allocations
// and 42-49 B in ReadSnapshot (7.4 allocations and 69.5 B in Build at
// scale 10). The bulk construction measures 0.03-0.07 and 30-39 B in
// Build, and 0.07-0.11 and 27-35 B in ReadSnapshot.
func TestBuildAllocationsFollowGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds TPC-H at three scales")
	}
	measures := []struct {
		name    string
		ceiling float64
	}{
		{"Build allocations per vertex", 3.3},
		{"Build bytes per edge", 56},
		{"ReadSnapshot allocations per vertex", 3.3},
		{"ReadSnapshot bytes per edge", 38.2},
	}
	measure := func(f func()) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	var first [4]float64
	for k, scale := range []float64{0.5, 1, 2} {
		cat := tpch.Generate(scale, 2021)
		var g *Graph
		var err error
		ba, bb := measure(func() { g, err = Build(cat, nil) })
		if err != nil {
			t.Fatal(err)
		}
		image := snapshotBytes(t, g)
		la, lb := measure(func() { _, err = ReadSnapshot(bufio.NewReader(bytes.NewReader(image))) })
		if err != nil {
			t.Fatal(err)
		}
		var rows bytes.Buffer
		if err := cat.WriteBinary(&rows); err != nil {
			t.Fatal(err)
		}
		ca, cb := measure(func() { _, err = relation.ReadCatalog(bufio.NewReader(&rows)) })
		if err != nil {
			t.Fatal(err)
		}
		nv, ne := float64(g.G.NumVertices()), float64(g.G.NumEdges())
		got := [4]float64{float64(ba) / nv, float64(bb) / ne, float64(la-ca) / nv, float64(lb-cb) / ne}
		t.Logf("scale %g, %d vertices, %d edges: Build %.2f allocations/vertex %.1f B/edge, ReadSnapshot %.2f allocations/vertex %.1f B/edge",
			scale, g.G.NumVertices(), g.G.NumEdges(), got[0], got[1], got[2], got[3])
		for i, m := range measures {
			if got[i] > m.ceiling {
				t.Errorf("scale %g: %s is %.2f, want <= %.2f", scale, m.name, got[i], m.ceiling)
			}
			if k == 0 {
				first[i] = got[i]
			} else if got[i] > 1.2*first[i] {
				t.Errorf("scale %g: %s is %.2f, %.2fx scale 0.5's %.2f; want flat",
					scale, m.name, got[i], got[i]/first[i], first[i])
			}
		}
	}
}

var benchGraph *Graph

// BenchmarkBuild encodes the TPC-H scale-1 catalog.
func BenchmarkBuild(b *testing.B) {
	cat := tpch.Generate(1, 2021)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Build(cat, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	}
}

// BenchmarkReadSnapshot loads the image of the TPC-H scale-1 encoding.
func BenchmarkReadSnapshot(b *testing.B) {
	g, err := Build(tpch.Generate(1, 2021), nil)
	if err != nil {
		b.Fatal(err)
	}
	image := snapshotBytes(b, g)
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ReadSnapshot(bufio.NewReader(bytes.NewReader(image)))
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	}
}
