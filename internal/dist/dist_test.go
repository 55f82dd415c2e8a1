package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/tpch"
)

const (
	testScale = 0.05
	testSeed  = 1
)

func testGraph(t *testing.T) *tag.Graph {
	t.Helper()
	cat := tpch.Generate(testScale, testSeed)
	g, err := tag.Build(cat, nil)
	if err != nil {
		t.Fatalf("tag.Build: %v", err)
	}
	return g
}

// sharedBuilder returns a GraphBuilder that hands every in-process
// node the same frozen graph (sessions never mutate it), after
// checking the coordinator relayed the dataset triple faithfully.
func sharedBuilder(t *testing.T, g *tag.Graph) GraphBuilder {
	return func(db string, scale float64, seed int64) (*tag.Graph, error) {
		if db != "tpch" || scale != testScale || seed != testSeed {
			return nil, fmt.Errorf("builder got (%q, %v, %v), want (tpch, %v, %v)", db, scale, seed, testScale, testSeed)
		}
		return g, nil
	}
}

// startTopology brings up a coordinator plus parts-1 workers on
// loopback TCP and waits for CLUSTERUP.
func startTopology(t *testing.T, g *tag.Graph, parts int) (*Coordinator, []*Worker) {
	t.Helper()
	build := sharedBuilder(t, g)
	c, err := Listen("127.0.0.1:0", Config{
		Parts: parts, DB: "tpch", Scale: testScale, Seed: testSeed,
		FormTimeout: 30 * time.Second,
	}, build)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	type joined struct {
		w   *Worker
		err error
	}
	ch := make(chan joined, parts-1)
	for i := 1; i < parts; i++ {
		go func() {
			w, err := Join(c.Addr(), 1, build)
			ch <- joined{w, err}
		}()
	}
	workers := make([]*Worker, 0, parts-1)
	for i := 1; i < parts; i++ {
		j := <-ch
		if j.err != nil {
			t.Fatalf("Join: %v", j.err)
		}
		workers = append(workers, j.w)
	}
	if err := c.WaitReady(); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return c, workers
}

func rowsKey(r interface{ SortedKeys() []string }) string {
	return strings.Join(r.SortedKeys(), "\n")
}

// TestDistMatchesSimulationTPCH is the acceptance cross-check: all 22
// TPC-H queries on real-socket topologies of 1, 2 and 4 nodes must
// produce byte-identical rows and identical global Stats to the
// single-process loopback simulation at the same partition count — and
// the measured data-plane bytes on the wire must equal the simulated
// Stats.NetworkBytes exactly (records likewise NetworkMessages).
func TestDistMatchesSimulationTPCH(t *testing.T) {
	g := testGraph(t)
	queries := tpch.Queries()
	if len(queries) != 22 {
		t.Fatalf("expected 22 TPC-H queries, have %d", len(queries))
	}
	for _, parts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			c, workers := startTopology(t, g, parts)
			ref := core.NewSession(g, bsp.Options{Partitions: parts})
			var wantBytes, wantRecords int64
			for _, q := range queries {
				refBefore := ref.Stats()
				refRows, refErr := ref.Query(q.SQL)
				refCost := ref.Stats().Sub(refBefore)

				res, err := c.Query(q.SQL)
				if (err != nil) != (refErr != nil) {
					t.Fatalf("%s: dist err %v, sim err %v", q.ID, err, refErr)
				}
				if err != nil {
					if err.Error() != refErr.Error() {
						t.Fatalf("%s: dist err %q, sim err %q", q.ID, err, refErr)
					}
					continue
				}
				if got, want := rowsKey(res.Rows), rowsKey(refRows); got != want {
					t.Fatalf("%s: distributed rows diverge from simulation\ndist: %.200s\nsim:  %.200s", q.ID, got, want)
				}
				if res.Cost != refCost {
					t.Fatalf("%s: cost diverges\ndist: %+v\nsim:  %+v", q.ID, res.Cost, refCost)
				}
				wantBytes += refCost.NetworkBytes
				wantRecords += refCost.NetworkMessages
			}
			var gotBytes, gotRecords, gotBytesIn int64
			wires := []WireStats{c.Wire()}
			for _, w := range workers {
				wires = append(wires, w.Wire())
			}
			for _, ws := range wires {
				gotBytes += ws.DataBytesOut
				gotRecords += ws.DataRecordsOut
				gotBytesIn += ws.DataBytesIn
			}
			if gotBytes != wantBytes {
				t.Errorf("bytes on wire: measured %d, simulation priced %d", gotBytes, wantBytes)
			}
			if gotBytesIn != wantBytes {
				t.Errorf("bytes off wire: measured %d, simulation priced %d", gotBytesIn, wantBytes)
			}
			if gotRecords != wantRecords {
				t.Errorf("records on wire: measured %d, simulation priced %d", gotRecords, wantRecords)
			}
		})
	}
}

// TestTopologyWaitsForEveryWelcome holds back the first joiner's WELCOME
// until the last joiner has been welcomed: formation must not send
// TOPOLOGY to a worker still waiting for its WELCOME, which would fail
// that worker's join with "expected welcome".
func TestTopologyWaitsForEveryWelcome(t *testing.T) {
	orig := sendWelcome
	defer func() { sendWelcome = orig }()
	sendWelcome = func(c *Coordinator, l *workerLink, payload []byte) error {
		if l.part == 1 {
			// Park until formation could start — right away if joinCh
			// closed without this welcome, else after a bound — and give a
			// premature TOPOLOGY time to reach the link first.
			select {
			case <-c.joinCh:
				time.Sleep(50 * time.Millisecond)
			case <-time.After(300 * time.Millisecond):
			}
		}
		return orig(c, l, payload)
	}
	c, _ := startTopology(t, testGraph(t), 3)
	if _, err := c.Query("SELECT count(*) FROM region"); err != nil {
		t.Fatalf("query: %v", err)
	}
}

// TestWorkerDeathDegradesTopology kills one worker and checks the
// fail-stop contract: the in-flight (or next) query fails, every later
// query is refused with ErrDegraded, and the surviving worker leaves
// the query plane with a diagnosable error rather than hanging.
func TestWorkerDeathDegradesTopology(t *testing.T) {
	g := testGraph(t)
	c, workers := startTopology(t, g, 3)

	if _, err := c.Query("SELECT count(*) FROM region"); err != nil {
		t.Fatalf("healthy query: %v", err)
	}

	workers[0].Close()
	if err := workers[0].Wait(); err == nil {
		t.Fatal("closed worker reports no error")
	}

	// The first query after the death may race the coordinator's
	// detection of it, but it must fail — and from then on the topology
	// is permanently degraded.
	if _, err := c.Query("SELECT count(*) FROM nation"); err == nil {
		t.Fatal("query succeeded on a topology missing a node")
	}
	if _, err := c.Query("SELECT count(*) FROM nation"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("expected ErrDegraded, got %v", err)
	}
	if !c.Degraded() {
		t.Fatal("coordinator does not report degradation")
	}
	if err := workers[1].Wait(); err == nil {
		t.Fatal("surviving worker exited cleanly from a degraded topology")
	}
}

// TestCleanShutdown checks Close's SHUTDOWN path: workers exit their
// query loops with no error.
func TestCleanShutdown(t *testing.T) {
	g := testGraph(t)
	c, workers := startTopology(t, g, 2)
	if _, err := c.Query("SELECT count(*) FROM region"); err != nil {
		t.Fatalf("query: %v", err)
	}
	c.Close()
	if err := workers[0].Wait(); err != nil {
		t.Fatalf("worker did not shut down cleanly: %v", err)
	}
}

// TestHostileFramesNeverWedge throws malformed and unauthorized
// traffic at both coordinator ports, interleaved with real queries:
// every hostile connection must be refused without wedging a barrier
// or corrupting an answer.
func TestHostileFramesNeverWedge(t *testing.T) {
	g := testGraph(t)
	c, _ := startTopology(t, g, 2)
	ctrlAddr := c.Addr()
	dataAddr := c.dataLn.Addr().String()

	hostile := []func(conn net.Conn){
		func(conn net.Conn) { // raw garbage, no framing
			conn.Write([]byte("\x00\xde\xad\xbe\xef not a frame at all"))
		},
		func(conn net.Conn) { // valid frame, unknown kind
			codec.WriteFrame(conn, []byte{0x7f, 1, 2, 3})
		},
		func(conn net.Conn) { // valid frame, JOIN with wrong magic
			codec.WriteFrame(conn, codec.AppendString([]byte{ckJoin}, "notdist0"))
		},
		func(conn net.Conn) { // valid frame, PEER with wrong token
			hello := codec.AppendString([]byte{ckPeer}, "0000")
			hello = append(hello, 1)
			codec.WriteFrame(conn, hello)
		},
		func(conn net.Conn) { // half a frame header, then hang up
			conn.Write([]byte{0xff, 0xff})
		},
		func(conn net.Conn) { // absurd declared length
			conn.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
		},
	}
	query := func() {
		t.Helper()
		res, err := c.Query("SELECT count(*) FROM region")
		if err != nil {
			t.Fatalf("query under fuzz: %v", err)
		}
		if res.Rows.Len() != 1 {
			t.Fatalf("query under fuzz returned %d rows", res.Rows.Len())
		}
	}
	query()
	for _, addr := range []string{ctrlAddr, dataAddr} {
		for i, h := range hostile {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				t.Fatalf("hostile dial %d to %s: %v", i, addr, err)
			}
			h(conn)
			conn.Close()
			query()
		}
	}
	// A well-formed JOIN to a full cluster gets an explicit refusal.
	conn, err := net.DialTimeout("tcp", ctrlAddr, time.Second)
	if err != nil {
		t.Fatalf("join dial: %v", err)
	}
	defer conn.Close()
	if err := codec.WriteFrame(conn, appendJoin([]byte{ckJoin}, "127.0.0.1:1")); err != nil {
		t.Fatalf("join write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, _, err := codec.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	if len(payload) == 0 || payload[0] != ckRefuse {
		t.Fatalf("expected refusal frame, got kind %#x", frameKind(payload))
	}
	query()
	if c.Degraded() {
		t.Fatal("hostile traffic degraded the topology")
	}
}
