package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/tpch"
)

func buildGraph(t *testing.T, cat *relation.Catalog) *tag.Graph {
	t.Helper()
	g, err := tag.Build(cat, tag.MaterializeAll)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pinQuery(t *testing.T, g *tag.Graph, opts bsp.Options, query string, epoch uint64) (*sql.Analysis, *QueryState) {
	t.Helper()
	an, err := sql.AnalyzeString(g.Catalog, query)
	if err != nil {
		t.Fatalf("analyze %q: %v", query, err)
	}
	sess := NewSession(g, opts)
	if ok, why := sess.IncrementalEligible(an); !ok {
		t.Fatalf("expected %q eligible, got: %s", query, why)
	}
	st, err := sess.BuildState(an, epoch)
	if err != nil {
		t.Fatalf("BuildState %q: %v", query, err)
	}
	return an, st
}

// checkFoldedAnswer asserts the byte-identity contract: the folded
// answer for an epoch must equal a cold re-run of the same query on the
// same generation, canonically serialized.
func checkFoldedAnswer(t *testing.T, g *tag.Graph, opts bsp.Options, st *QueryState, label string) {
	t.Helper()
	cold := NewSession(g, opts)
	want, err := cold.Run(st.An)
	if err != nil {
		t.Fatalf("%s: cold run: %v", label, err)
	}
	got, wantB := CanonicalBytes(st.Answer), CanonicalBytes(want)
	if !bytes.Equal(got, wantB) {
		t.Fatalf("%s: folded answer diverges from cold run\nfold rows %d: %v\ncold rows %d: %v",
			label, st.Answer.Len(), st.Answer.Tuples, want.Len(), want.Tuples)
	}
}

func TestIncrementalEligible(t *testing.T) {
	g := buildGraph(t, shopCatalog())
	sess := NewSession(g, bsp.Options{Workers: 2})
	cases := []struct {
		query string
		want  bool
	}{
		{"SELECT cname FROM cust WHERE ckey > 15", true},
		{"SELECT cname, nname FROM cust, nation WHERE cnation = nkey", true},
		{"SELECT cnation, COUNT(*) FROM cust GROUP BY cnation", true},
		{"SELECT cnation, MIN(cname) FROM cust GROUP BY cnation", true},
		{"SELECT COUNT(*), SUM(price) FROM ord", true},
		{"SELECT DISTINCT cnation FROM cust", true},
		{"SELECT cname, nname FROM cust LEFT JOIN nation ON cnation = nkey", false},
		{"SELECT cname FROM cust WHERE cnation IN (SELECT nkey FROM nation)", false},
	}
	for _, c := range cases {
		an, err := sql.AnalyzeString(g.Catalog, c.query)
		if err != nil {
			t.Fatalf("analyze %q: %v", c.query, err)
		}
		got, why := sess.IncrementalEligible(an)
		if got != c.want {
			t.Errorf("IncrementalEligible(%q) = %v (%s), want %v", c.query, got, why, c.want)
		}
	}

	tri := NewSession(buildGraph(t, triangleCatalog()), bsp.Options{Workers: 2})
	an, err := sql.AnalyzeString(tri.TAG.Catalog,
		"SELECT COUNT(*) FROM r, s, t WHERE r.b = s.b AND s.c = t.c AND t.a = r.a")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := tri.IncrementalEligible(an); ok {
		t.Error("cyclic triangle query reported eligible")
	}
}

// TestFoldDeltaChain advances pinned queries across a chain of
// insert-only generations and checks every folded answer against a cold
// re-run. Every insert-only epoch must fold (FoldHit), including epochs
// that only touch unreferenced tables.
func TestFoldDeltaChain(t *testing.T) {
	opts := bsp.Options{Workers: 2}
	g := buildGraph(t, shopCatalog())

	queries := []string{
		"SELECT cname, nname FROM cust, nation WHERE cnation = nkey",
		"SELECT nname, COUNT(*), SUM(price) FROM nation, cust, ord WHERE cnation = nkey AND ocust = ckey GROUP BY nname",
		"SELECT COUNT(*) FROM cust",
		"SELECT DISTINCT cnation FROM cust",
		"SELECT a.cname, b.cname FROM cust a, cust b WHERE a.cnation = b.cnation",
	}
	states := make([]*QueryState, len(queries))
	for i, q := range queries {
		_, states[i] = pinQuery(t, g, opts, q, 1)
	}

	batches := [][]struct {
		table string
		rows  []relation.Tuple
	}{
		{{"cust", []relation.Tuple{
			{relation.Int(50), relation.Int(2), relation.Str("erin")},
			{relation.Int(60), relation.Int(3), relation.Str("femi")},
		}}},
		{{"ord", []relation.Tuple{
			{relation.Int(105), relation.Int(50), relation.Int(9)},
			{relation.Int(106), relation.Int(20), relation.Int(3)},
		}}, {"cust", []relation.Tuple{
			{relation.Int(70), relation.Int(1), relation.Str("gus")},
		}}},
		{{"nation", []relation.Tuple{
			{relation.Int(4), relation.Str("CHILE")},
		}}},
	}

	cur := g
	for bi, batch := range batches {
		epoch := uint64(bi + 2)
		next := cur.Clone()
		for _, w := range batch {
			if _, err := next.InsertBatch(w.table, w.rows); err != nil {
				t.Fatal(err)
			}
		}
		sess := NewSession(next, opts)
		for i, q := range queries {
			outcome, err := sess.FoldDelta(states[i], epoch)
			if err != nil {
				t.Fatalf("FoldDelta %q epoch %d: %v", q, epoch, err)
			}
			if outcome != FoldHit {
				t.Errorf("FoldDelta %q epoch %d = %v, want hit", q, epoch, outcome)
			}
			if states[i].Epoch != epoch {
				t.Fatalf("state epoch = %d, want %d", states[i].Epoch, epoch)
			}
			checkFoldedAnswer(t, next, opts, states[i], q)
		}
		cur = next
	}
}

// Deletes are retractions the Merge path cannot express: the fold must
// detect them and rebuild, and the rebuilt answer must still match cold.
func TestFoldDeltaDeleteFallsBack(t *testing.T) {
	opts := bsp.Options{Workers: 2}
	g := buildGraph(t, shopCatalog())
	_, st := pinQuery(t, g, opts, "SELECT cnation, COUNT(*) FROM cust GROUP BY cnation", 1)

	next := g.Clone()
	if err := next.DeleteBatch([]bsp.VertexID{next.TupleVertices("cust")[0]}); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(next, opts)
	outcome, err := sess.FoldDelta(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != FoldFallback {
		t.Errorf("delete batch folded as %v, want fallback", outcome)
	}
	checkFoldedAnswer(t, next, opts, st, "delete fallback")

	// A delete on a table the query never references is foldable: nothing
	// the query can see changed.
	next2 := next.Clone()
	if err := next2.DeleteBatch([]bsp.VertexID{next2.TupleVertices("ord")[0]}); err != nil {
		t.Fatal(err)
	}
	sess2 := NewSession(next2, opts)
	outcome, err = sess2.FoldDelta(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != FoldHit {
		t.Errorf("unreferenced delete folded as %v, want hit", outcome)
	}
	checkFoldedAnswer(t, next2, opts, st, "unreferenced delete")
}

// Float SUM/AVG merges are exact, so folding a float delta is a hit
// whose answer is byte-identical to a cold run.
func TestFoldDeltaFloatMergeFolds(t *testing.T) {
	cat := relation.NewCatalog()
	f := relation.New("f", relation.MustSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("x", relation.KindFloat)))
	f.MustAppend(relation.Int(1), relation.Float(0.1))
	f.MustAppend(relation.Int(1), relation.Float(0.2))
	f.MustAppend(relation.Int(2), relation.Float(1.5))
	cat.MustAdd(f)

	opts := bsp.Options{Workers: 4, Partitions: 2}
	g := buildGraph(t, cat)
	_, st := pinQuery(t, g, opts, "SELECT k, SUM(x), AVG(x) FROM f GROUP BY k", 1)

	next := g.Clone()
	if _, err := next.InsertBatch("f", []relation.Tuple{{relation.Int(1), relation.Float(0.3)}}); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(next, opts)
	outcome, err := sess.FoldDelta(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != FoldHit {
		t.Errorf("float SUM merge folded as %v, want hit", outcome)
	}
	checkFoldedAnswer(t, next, opts, st, "float fold")
}

// A missed epoch (the state lags more than one generation behind, or
// the graph carries no delta tracking) must rebuild, never fold.
func TestFoldDeltaMissedEpochRebuilds(t *testing.T) {
	opts := bsp.Options{Workers: 2}
	g := buildGraph(t, shopCatalog())
	_, st := pinQuery(t, g, opts, "SELECT COUNT(*) FROM cust", 1)

	// Untracked graph (fresh Build, no Clone): always a rebuild.
	sess := NewSession(g, opts)
	outcome, err := sess.FoldDelta(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != FoldFallback {
		t.Errorf("untracked graph folded as %v, want fallback", outcome)
	}

	next := g.Clone()
	if _, err := next.InsertBatch("cust", []relation.Tuple{{relation.Int(80), relation.Int(1), relation.Str("hana")}}); err != nil {
		t.Fatal(err)
	}
	sess2 := NewSession(next, opts)
	outcome, err = sess2.FoldDelta(st, 7) // state answers epoch 2; generation is 3
	if err != nil {
		t.Fatal(err)
	}
	if outcome != FoldFallback {
		t.Errorf("missed epoch folded as %v, want fallback", outcome)
	}
	if st.Epoch != 7 {
		t.Fatalf("state epoch = %d, want 7", st.Epoch)
	}
	checkFoldedAnswer(t, next, opts, st, "missed epoch")
}

// TestIncrementalTPCHProperty is the randomized correctness property of
// the maintenance layer: across random insert/delete batches over the
// TPC-H schema, every pinned eligible query's folded answer is
// byte-identical to a cold re-run of the same epoch, for all 22 queries
// (ineligible ones are checked for cold-run determinism, which is what
// the serving layer's always-recompute fallback relies on).
func TestIncrementalTPCHProperty(t *testing.T) {
	scale := 0.04
	epochs := uint64(4)
	if testing.Short() {
		scale, epochs = 0.02, 2
	}
	cat := tpch.Generate(scale, 42)
	g := buildGraph(t, cat)
	opts := bsp.Options{Workers: 4, Partitions: 2}

	type pin struct {
		q  tpch.Query
		st *QueryState
	}
	var pins []pin
	var ineligible []tpch.Query
	hadReason := map[string]bool{}
	for _, q := range tpch.Queries() {
		an, err := sql.AnalyzeString(g.Catalog, q.SQL)
		if err != nil {
			t.Fatalf("analyze %s: %v", q.ID, err)
		}
		sess := NewSession(g, opts)
		if ok, why := sess.IncrementalEligible(an); !ok {
			hadReason[why] = true
			ineligible = append(ineligible, q)
			continue
		}
		st, err := sess.BuildState(an, 1)
		if err != nil {
			t.Fatalf("BuildState %s: %v", q.ID, err)
		}
		pins = append(pins, pin{q: q, st: st})
	}
	if len(pins) == 0 {
		t.Fatal("no TPC-H query was incrementally eligible")
	}
	t.Logf("eligible %d/22; ineligible reasons: %v", len(pins), hadReason)

	rng := rand.New(rand.NewSource(42))
	tables := []string{"lineitem", "orders", "customer", "supplier", "part", "partsupp"}
	hits, fallbacks := 0, 0
	cur := g
	for epoch := uint64(2); epoch <= 1+epochs; epoch++ {
		next := cur.Clone()
		// Random write batch: re-insert sampled rows into 1-2 tables (the
		// graph layer has no uniqueness constraint, so duplicates are legal
		// rows), and on some epochs delete a couple of lineitem vertices to
		// force the retraction fallback.
		for n := 1 + rng.Intn(2); n > 0; n-- {
			tbl := tables[rng.Intn(len(tables))]
			src := next.Catalog.Get(tbl).Tuples
			var rows []relation.Tuple
			for k := 1 + rng.Intn(3); k > 0 && len(src) > 0; k-- {
				rows = append(rows, src[rng.Intn(len(src))])
			}
			if _, err := next.InsertBatch(tbl, rows); err != nil {
				t.Fatal(err)
			}
		}
		if epoch%2 == 1 {
			verts := next.TupleVertices("lineitem")
			if err := next.DeleteBatch([]bsp.VertexID{verts[rng.Intn(len(verts))]}); err != nil {
				t.Fatal(err)
			}
		}

		sess := NewSession(next, opts)
		for _, p := range pins {
			outcome, err := sess.FoldDelta(p.st, epoch)
			if err != nil {
				t.Fatalf("FoldDelta %s epoch %d: %v", p.q.ID, epoch, err)
			}
			if outcome == FoldHit {
				hits++
			} else {
				fallbacks++
			}
			cold := NewSession(next, opts)
			want, err := cold.Run(p.st.An)
			if err != nil {
				t.Fatalf("cold %s epoch %d: %v", p.q.ID, epoch, err)
			}
			if !bytes.Equal(CanonicalBytes(p.st.Answer), CanonicalBytes(want)) {
				t.Fatalf("%s epoch %d (%v): folded answer diverges from cold run", p.q.ID, epoch, outcome)
			}
		}
		cur = next
	}
	if hits == 0 {
		t.Error("no fold ever hit — the incremental path never exercised")
	}
	if fallbacks == 0 {
		t.Error("no fold ever fell back — the delete guard never exercised")
	}
	t.Logf("folds: %d hits, %d fallbacks", hits, fallbacks)

	// Ineligible queries are maintained by cold re-runs; that is only a
	// sound fallback if a cold run is deterministic on a fixed generation.
	for _, q := range ineligible {
		an, err := sql.AnalyzeString(cur.Catalog, q.SQL)
		if err != nil {
			t.Fatalf("analyze %s: %v", q.ID, err)
		}
		a, err := NewSession(cur, opts).Run(an)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		b, err := NewSession(cur, opts).Run(an)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if !bytes.Equal(CanonicalBytes(a), CanonicalBytes(b)) {
			t.Errorf("%s: cold runs disagree on a fixed generation", q.ID)
		}
	}
}
