package core

import (
	"math/rand"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
)

// TestSessionScratchReuse runs one long-lived Session through an
// interleaved mix of query shapes, including nested subquery runs and a
// graph that grows mid-sequence, and checks every answer against a
// fresh Session. A mark, filter verdict or free-list buffer leaking from
// one run into the next would make the long-lived Session disagree.
func TestSessionScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cat := randCatalog(rng)
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	opts := bsp.Options{Workers: 4}
	long := NewSession(g, opts)
	shapes := []string{
		"SELECT p.a, q.c FROM t0 p, t1 q WHERE p.b = q.b",
		"SELECT p.a, q.b FROM t2 p, t2 q WHERE p.b = q.b AND p.a < q.a",
		"SELECT l.a, r.c FROM t0 l LEFT JOIN t3 r ON l.b = r.a",
		"SELECT x.a, y.b, z.c FROM t0 x, t1 y, t2 z WHERE x.a = y.b AND y.c = z.a AND z.b = x.c",
		"SELECT p.a FROM t1 p WHERE p.b IN (SELECT s.a FROM t2 s, t3 u WHERE s.b = u.b AND u.c > 1)",
		"SELECT p.a, q.b FROM t0 p, t3 q WHERE p.c = q.c AND EXISTS (SELECT 1 FROM t1 s, t2 u WHERE s.a = u.a AND s.b = p.a)",
		"SELECT p.a, q.s FROM t1 p, t2 q WHERE p.a = q.a AND p.b IN (1, 2, 3)",
		"SELECT p.a, COUNT(*) FROM t0 p, t1 q WHERE p.a = q.a AND q.c IN (0, 2, 4) GROUP BY p.a",
		"SELECT p.b, q.c FROM t0 p, t1 q WHERE p.c = q.a AND p.a = 12",
		"SELECT p.b FROM t3 p WHERE p.a = 99",
		"SELECT COUNT(*) FROM t2 p, t3 q WHERE p.c = q.c AND q.s = 'y'",
	}
	for i := 0; i < 40; i++ {
		if i == 20 {
			// Grow |V|: new tuples bring new attribute vertices, so later
			// runs must widen the pooled buffers they take.
			for k := 0; k < 8; k++ {
				if _, err := g.InsertTuple("t0", relation.Tuple{
					relation.Int(int64(10 + k)), relation.Int(int64(k % 6)), relation.Int(3), relation.Str("x")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		q := shapes[i%len(shapes)]
		got, err := long.Query(q)
		if err != nil {
			t.Fatalf("query %d %q: %v", i, q, err)
		}
		want, err := NewSession(g, opts).Query(q)
		if err != nil {
			t.Fatalf("fresh query %d %q: %v", i, q, err)
		}
		if !relation.EqualMultiset(got, want) {
			onlyG, onlyW := relation.DiffMultiset(got, want, 4)
			t.Fatalf("query %d %q: reused session %d rows, fresh %d\nonly reused: %v\nonly fresh: %v",
				i, q, got.Len(), want.Len(), onlyG, onlyW)
		}
		assertMarksReleased(t, long)
	}
}

// assertMarksReleased checks that an idle Session's pooled mark buffers
// hold no marks: released scratch must not keep a finished run's marks
// alive, and its arenas must be rewound, empty and within their kept
// budget.
func assertMarksReleased(t *testing.T, e *Session) {
	t.Helper()
	for _, m := range e.freeMarks {
		for v, slot := range m.slot {
			if slot != nil {
				t.Fatalf("released mark buffer still holds vertex %d's marks", v)
			}
		}
		for w, vs := range m.touched {
			if len(vs) != 0 {
				t.Fatalf("released mark buffer lists %d touched vertices for worker %d", len(vs), w)
			}
		}
		for w, a := range m.arenas {
			if a.runs.i != 0 || a.runs.j != 0 || a.ids.i != 0 || a.ids.j != 0 || a.vals.i != 0 || a.vals.j != 0 {
				t.Fatalf("worker %d's mark arena is not rewound", w)
			}
			for _, chunk := range a.vals.c {
				for _, v := range chunk {
					if v != (relation.Value{}) {
						t.Fatalf("worker %d's rewound arena still holds a carried value", w)
					}
				}
			}
			runs := 0
			for _, chunk := range a.runs.c {
				for i := range chunk {
					if chunk[i].ids != nil || chunk[i].vals != nil || chunk[i].next != nil {
						t.Fatalf("worker %d's rewound arena still holds a run", w)
					}
				}
				runs += len(chunk)
			}
			if len(a.runs.c) > 1 && runs > 2*keptMarkRuns {
				t.Fatalf("worker %d's rewound arena keeps %d runs", w, runs)
			}
		}
	}
}
