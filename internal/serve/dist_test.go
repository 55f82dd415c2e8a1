package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/tag"
	"repro/internal/tpch"
)

// startDistTopology brings up a 2-node topology whose nodes share one
// frozen in-process graph.
func startDistTopology(t *testing.T, g *tag.Graph) (*dist.Coordinator, *dist.Worker) {
	t.Helper()
	build := func(string, float64, int64) (*tag.Graph, error) { return g, nil }
	c, err := dist.Listen("127.0.0.1:0", dist.Config{
		Parts: 2, DB: "tpch", Scale: 0.005, Seed: 1, FormTimeout: 30 * time.Second,
	}, build)
	if err != nil {
		t.Fatalf("dist.Listen: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	w, err := dist.Join(c.Addr(), 1, build)
	if err != nil {
		t.Fatalf("dist.Join: %v", err)
	}
	if err := c.WaitReady(); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return c, w
}

// TestDistServing routes serve queries through a real-socket topology:
// answers must match local serving byte-for-byte (including via the
// prepared-statement fast path, which must carry the SQL text), a dead
// worker must surface as ErrDegraded, and HTTP must map that to 503.
func TestDistServing(t *testing.T) {
	cat := tpch.Generate(0.005, 1)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatalf("tag.Build: %v", err)
	}
	coord, worker := startDistTopology(t, g)

	local := New(g, Options{})
	distSrv := New(g, Options{Dist: coord})

	const q = "SELECT count(*), min(n_nationkey) FROM nation"
	want, err := local.Query(q)
	if err != nil {
		t.Fatalf("local query: %v", err)
	}
	for i := 0; i < 2; i++ { // second round is a prepared-cache hit
		got, err := distSrv.Query(q)
		if err != nil {
			t.Fatalf("dist query (round %d): %v", i, err)
		}
		if strings.Join(got.Rows.SortedKeys(), "\n") != strings.Join(want.Rows.SortedKeys(), "\n") {
			t.Fatalf("round %d: distributed rows differ from local", i)
		}
		if i == 1 && !got.Prepared {
			t.Fatal("second round was not a prepared hit")
		}
	}
	st := distSrv.Stats()
	if st.DistParts != 2 || st.DistDegraded {
		t.Fatalf("stats gauges: parts=%d degraded=%v", st.DistParts, st.DistDegraded)
	}

	// Kill the worker: queries degrade permanently, HTTP says 503.
	worker.Close()
	if _, err := distSrv.Query(q); err == nil {
		t.Fatal("query succeeded on a dead topology")
	}
	if _, err := distSrv.Query(q); !errors.Is(err, dist.ErrDegraded) {
		t.Fatalf("expected ErrDegraded, got %v", err)
	}
	if !distSrv.Stats().DistDegraded {
		t.Fatal("degradation gauge not set")
	}
	srv := httptest.NewServer(ReadOnlyHandler(distSrv))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?sql=" + strings.ReplaceAll(q, " ", "+"))
	if err != nil {
		t.Fatalf("http query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded topology answered %d, want 503", resp.StatusCode)
	}

	// Both views carry the distributed gauges; /metrics renders the
	// degraded flag as 1.
	if st := fetchStats(t, srv); statInt(t, st, "dist_parts") != 2 || st["dist_degraded"] != true {
		t.Errorf("/stats dist_parts/dist_degraded = %v/%v, want 2/true", st["dist_parts"], st["dist_degraded"])
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := readAll(resp)
	for _, want := range []string{"tagserve_dist_parts 2\n", "tagserve_dist_degraded 1\n"} {
		if !strings.Contains(met, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
