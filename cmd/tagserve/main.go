// Command tagserve is the concurrent HTTP query server over the TAG-join
// executor: it loads a generated TPC-H-like or TPC-DS-like database,
// encodes it once into a frozen TAG graph, and serves SQL over a session
// pool with a prepared-statement cache. Writes are accepted while
// serving: each /write batch is applied to a copy-on-write clone of the
// graph and published as the next epoch with an atomic swap, so queries
// are never blocked and never see a half-applied batch.
//
// With -wal <dir>, writes are durable: every published batch is
// appended to a write-ahead log (synced per -wal-sync) before its
// generation swap. On boot the server loads the newest valid
// checkpoint in the dir and replays only the log suffix past it (full
// replay when there is none) — kill the process mid-stream and restart
// it, and it answers as the uninterrupted server would. With
// -checkpoint-interval N (and/or -checkpoint-bytes), a background
// checkpointer snapshots the served graph every N epochs and truncates
// the covered log prefix, keeping both the log and the next boot's
// replay work bounded.
//
// Endpoints:
//
//	POST /query  {"sql": "SELECT ..."}   rows + per-query execution report
//	GET  /query?sql=...                  same, for quick curl use
//	POST /write  {"table": ..., "insert": [[...]], "delete": [ids]}
//	                                     apply a batch, publish a new epoch
//	GET  /stats                          aggregate serving statistics
//	GET  /metrics                        Prometheus text exposition: every /stats key as
//	                                     one series, plus latency histograms (protocol=http|binary)
//	GET  /healthz                        liveness probe
//
// With -proto-addr, the same serving core also listens on the binary
// query protocol (internal/proto): persistent TCP connections carrying
// CRC-framed requests and columnar binary results, with a statement-
// fingerprint fast path that skips SQL parsing — the low-overhead
// surface for point-query clients. Admission control (-admit-wait,
// -write-queue) bounds how long an over-capacity query or write may
// wait before the server refuses it (HTTP 429 + Retry-After, binary
// RETRY frame) instead of queueing without limit.
//
// Distributed serving (internal/dist): with -workers N the server
// becomes the coordinator of a real multi-process cluster — it binds a
// cluster port (-dist-addr, printed as "listening dist://<addr>"),
// waits for N `tagserve -worker <that addr>` processes to join, and
// then answers every query by running it on all N+1 nodes at once,
// each owning one hash-partition of the graph, with the data exchange
// on real sockets. Answers are byte-identical to single-process
// serving, and the wire carries exactly the bytes the simulated
// cluster accounting (the loopback transport) prices. Distributed serving is
// read-only: -workers refuses -pin, /write and the WAL flags. A worker
// process learns the dataset (db/scale/seed) from the coordinator,
// builds the identical graph, and serves only /healthz and /stats over
// HTTP — queries flow through the cluster. If any node dies the
// cluster degrades permanently (queries answer 503); surviving
// processes stay alive for inspection until SIGTERM.
//
// Harness affordances: the listener is bound before the database loads
// and the first stdout line is always "listening http://<addr>" (with
// -proto-addr, "listening proto://<addr>" follows it) — with
// -addr 127.0.0.1:0 (port 0) the kernel picks an ephemeral port and the
// printed line is the only way to learn it, which is exactly what a
// test harness scripting many servers wants. SIGTERM (and SIGINT)
// trigger a graceful shutdown: in-flight requests drain through
// http.Server.Shutdown, the WAL is fsynced and closed (releasing the
// dir lock), and the process exits 0 — so a supervisor can distinguish
// a clean stop from a crash or kill -9, which exits by signal with the
// log possibly mid-append.
//
// Example:
//
//	tagserve -db tpch -scale 0.5 -sessions 8 -wal ./wal -addr :8080 &
//	curl -s localhost:8080/query --data '{"sql": "SELECT COUNT(*) FROM orders"}'
//	curl -s localhost:8080/write --data '{"table": "nation", "insert": [[25, "ATLANTIS", 1, "n/a"]]}'
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/proto"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/tpcds"
	"repro/internal/tpch"
	"repro/internal/wal"
)

func main() {
	workload := flag.String("db", "tpch", "database to load: tpch or tpcds")
	scale := flag.Float64("scale", 1, "scale factor")
	seed := flag.Int64("seed", 2021, "generator seed")
	addr := flag.String("addr", ":8080", "listen address")
	protoAddr := flag.String("proto-addr", "", "binary query protocol listen address (empty = HTTP only)")
	sessions := flag.Int("sessions", 4, "session pool size per graph generation (max simultaneous queries on one epoch; during a write burst, in-flight totals can transiently reach live_generations x this)")
	bspWorkers := flag.Int("bsp-workers", 1, "BSP worker threads per session (local parallelism)")
	distWorkers := flag.Int("workers", 0, "serve as the coordinator of a distributed cluster with this many worker processes (0 = single-process serving)")
	workerOf := flag.String("worker", "", "join the cluster coordinated at this address as a worker node (excludes most other flags)")
	distAddr := flag.String("dist-addr", ":0", "cluster listen address in -workers mode (printed as listening dist://<addr>)")
	readonly := flag.Bool("readonly", false, "disable the /write endpoint")
	prepared := flag.Int("prepared", 1024, "prepared-statement cache entries (LRU)")
	walDir := flag.String("wal", "", "write-ahead log directory (empty = memory-only): replay on boot, append while serving")
	walSync := flag.String("wal-sync", "interval", "WAL sync policy: always|interval|never")
	walInterval := flag.Duration("wal-interval", 100*time.Millisecond, "max fsync lag under -wal-sync interval")
	ckptEvery := flag.Int("checkpoint-interval", 0, "checkpoint the served graph and truncate the covered WAL prefix every N epochs (0 = never; requires -wal)")
	ckptBytes := flag.Int64("checkpoint-bytes", 0, "also checkpoint after this many bytes of WAL growth (0 = no byte trigger)")
	ckptTruncate := flag.Bool("checkpoint-truncate", true, "truncate the covered WAL prefix after each periodic checkpoint (false keeps the full log: slower boots bound by the checkpoint, but a lost image can always fall back to full replay)")
	admitWait := flag.Duration("admit-wait", 100*time.Millisecond, "admission-control bound: how long a query waits for a session (a write for queue space) before refusal with 429/RETRY; must not be negative")
	writeQueue := flag.Int("write-queue", 256, "max writes queued or applying at once (beyond it, writes wait -admit-wait then get 429)")
	var pins pinFlags
	flag.Var(&pins, "pin", "pin a query at boot: the server keeps its answer current across writes (incrementally when eligible); repeatable, and one flag may carry several statements separated by ';'")
	verifyInc := flag.Bool("verify-incremental", false, "cross-check every incrementally folded pinned-query answer against a cold re-run on the write path (correctness harness; counts incremental_mismatches)")
	flag.Parse()

	if *workerOf != "" {
		if *distWorkers > 0 {
			fmt.Fprintln(os.Stderr, "-worker and -workers are mutually exclusive")
			os.Exit(2)
		}
		runWorker(*workerOf, *addr, *bspWorkers)
		return
	}
	if *distWorkers > 0 {
		if len(pins) > 0 || *walDir != "" || *ckptEvery > 0 || *ckptBytes > 0 {
			fmt.Fprintln(os.Stderr, "-workers (distributed serving) is read-only and memory-only: it refuses -pin, -wal and the checkpoint flags")
			os.Exit(2)
		}
		*readonly = true
	}

	if *admitWait < 0 {
		fmt.Fprintln(os.Stderr, "-admit-wait must not be negative")
		os.Exit(2)
	}
	walPolicy, err := wal.ParsePolicy(*walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Bind before loading: with port 0 the bound address is the one fact
	// a harness cannot know in advance, so it is the first stdout line —
	// printed before the (potentially long) data load. Connections made
	// early sit in the accept backlog until Serve starts; /healthz
	// answering is the readiness signal.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("listening http://%s\n", ln.Addr())
	var protoLn net.Listener
	if *protoAddr != "" {
		if protoLn, err = net.Listen("tcp", *protoAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("listening proto://%s\n", protoLn.Addr())
	}

	var cat *relation.Catalog
	switch *workload {
	case "tpch":
		cat = tpch.Generate(*scale, *seed)
	case "tpcds":
		cat = tpcds.Generate(*scale, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown db %q\n", *workload)
		os.Exit(2)
	}

	start := time.Now()
	g, err := tag.Build(cat, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Coordinator mode: open the cluster port and admit workers in the
	// background while the serve layer comes up; queries block until the
	// topology forms. The builder hands every in-process reference the
	// already-built graph.
	var coord *dist.Coordinator
	if *distWorkers > 0 {
		coord, err = dist.Listen(*distAddr, dist.Config{
			Parts: *distWorkers + 1, DB: *workload, Scale: *scale, Seed: *seed,
			Workers: *bspWorkers,
		}, func(string, float64, int64) (*tag.Graph, error) { return g, nil })
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("listening dist://%s\n", coord.Addr())
		go func() {
			if err := coord.WaitReady(); err != nil {
				fmt.Fprintf(os.Stderr, "cluster formation: %v\n", err)
				return
			}
			fmt.Printf("tagserve: cluster up (%d workers + coordinator)\n", *distWorkers)
		}()
	}
	srv, err := serve.Open(g, serve.Options{
		Sessions:             *sessions,
		Engine:               bsp.Options{Workers: *bspWorkers},
		Dist:                 coord,
		PreparedLimit:        *prepared,
		WALDir:               *walDir,
		WALSync:              walPolicy,
		WALSyncInterval:      *walInterval,
		CheckpointEvery:      *ckptEvery,
		CheckpointBytes:      *ckptBytes,
		CheckpointNoTruncate: !*ckptTruncate,
		AdmitWait:            *admitWait,
		WriteQueue:           *writeQueue,
		VerifyIncremental:    *verifyInc,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Boot-time pins land after WAL replay, so they answer for the
	// recovered epoch — a restarted server re-pins to exactly the state
	// the killed one had published.
	for _, q := range pins {
		res, err := srv.Subscribe(q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pin %q: %v\n", q, err)
			os.Exit(2)
		}
		how := "incremental"
		if !res.Eligible {
			how = "full-recompute (" + res.Reason + ")"
		}
		fmt.Printf("pinned %q epoch=%d rows=%d maintenance=%s\n", res.FP, res.Epoch, res.Answer.Len(), how)
	}
	var ps *proto.Server
	if protoLn != nil {
		ps = proto.Serve(protoLn, srv)
	}
	mode := "serve-while-write (/write enabled)"
	handler := serve.Handler(srv)
	if *readonly {
		mode = "read-only"
		handler = serve.ReadOnlyHandler(srv)
	}
	if coord != nil {
		mode = fmt.Sprintf("distributed (%d workers + coordinator, read-only)", *distWorkers)
	}
	durability := "memory-only"
	if *walDir != "" {
		st := srv.Stats()
		durability = fmt.Sprintf("wal %s (sync=%s, %d epochs replayed", *walDir, walPolicy, st.WALReplayed)
		if st.WALSkipped > 0 {
			durability += fmt.Sprintf(", booted from checkpoint epoch %d covering %d", st.CheckpointEpoch, st.WALSkipped)
		}
		if *ckptEvery > 0 || *ckptBytes > 0 {
			durability += fmt.Sprintf(", checkpoint every %d epochs/%d bytes", *ckptEvery, *ckptBytes)
		}
		durability += ")"
	}
	fmt.Printf("tagserve: %s at scale %g encoded in %v (%s); %d sessions, %s, %s, on %s\n",
		*workload, *scale, time.Since(start).Round(time.Millisecond), g.G.String(), *sessions, mode, durability, ln.Addr())

	// Graceful shutdown on SIGTERM/SIGINT: drain in-flight requests,
	// then fsync and close the WAL so the dir lock releases and the log
	// ends on a record boundary. Exit 0 marks the stop as clean; a
	// kill -9 never reaches this path and exits by signal instead.
	hs := &http.Server{Handler: handler}
	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		defer close(done)
		sig := <-sigc
		fmt.Printf("tagserve: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		}
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
	if ps != nil {
		// Binary connections are persistent, so there is nothing like
		// http.Server.Shutdown's idle-drain: close the listener and the
		// live connections; clients see EOF and reconnect elsewhere.
		ps.Close()
	}
	if coord != nil {
		// SHUTDOWN the workers so their processes exit cleanly too.
		coord.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("tagserve: clean shutdown")
}

// runWorker is -worker mode: join the coordinator, build the identical
// graph from the dataset triple it relays, and serve the cluster's
// query plane. The local HTTP listener answers only /healthz and
// /stats (queries flow through the coordinator). The process exits 0
// on a clean cluster SHUTDOWN; on a cluster failure it leaves the
// query plane but keeps /healthz alive for inspection until SIGTERM —
// a degraded cluster's survivors are diagnosable, not gone.
func runWorker(coordAddr, httpAddr string, bspWorkers int) {
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("listening http://%s\n", ln.Addr())

	build := func(db string, scale float64, seed int64) (*tag.Graph, error) {
		var cat *relation.Catalog
		switch db {
		case "tpch":
			cat = tpch.Generate(scale, seed)
		case "tpcds":
			cat = tpcds.Generate(scale, seed)
		default:
			return nil, fmt.Errorf("coordinator names unknown db %q", db)
		}
		return tag.Build(cat, nil)
	}
	// Serve /healthz before joining: topology formation blocks until
	// every worker has joined, and a worker that is only health-checkable
	// after formation deadlocks any harness that starts workers one at a
	// time and waits for each to come up.
	var wp atomic.Pointer[dist.Worker]
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/stats", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		w := wp.Load()
		if w == nil {
			json.NewEncoder(rw).Encode(struct {
				Joining bool `json:"joining"`
			}{true})
			return
		}
		var errStr string
		if err := w.Err(); err != nil {
			errStr = err.Error()
		}
		json.NewEncoder(rw).Encode(struct {
			Part  int            `json:"part"`
			Parts int            `json:"parts"`
			Err   string         `json:"err,omitempty"`
			Wire  dist.WireStats `json:"wire"`
		}{w.Part(), w.Parts(), errStr, w.Wire()})
	})
	hs := &http.Server{Handler: mux}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()

	start := time.Now()
	w, err := dist.Join(coordAddr, bspWorkers, build)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wp.Store(w)
	fmt.Printf("tagserve: worker %d of %d joined %s in %v\n",
		w.Part(), w.Parts(), coordAddr, time.Since(start).Round(time.Millisecond))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	waitc := make(chan error, 1)
	go func() { waitc <- w.Wait() }()
	for {
		select {
		case err := <-waitc:
			waitc = nil // fire once
			if err == nil {
				fmt.Println("tagserve: worker shut down cleanly")
				hs.Close()
				return
			}
			// Stay alive for /healthz and /stats; only SIGTERM ends us.
			fmt.Fprintf(os.Stderr, "tagserve: worker left the query plane: %v\n", err)
		case sig := <-sigc:
			fmt.Printf("tagserve: %v, shutting down\n", sig)
			w.Close()
			hs.Close()
			return
		case err := <-httpDone:
			if !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
	}
}

// pinFlags collects -pin values: the flag is repeatable, and each value
// may carry several statements separated by ';' (SQL itself never needs
// a bare semicolon here).
type pinFlags []string

func (p *pinFlags) String() string { return strings.Join(*p, "; ") }

func (p *pinFlags) Set(v string) error {
	for _, q := range strings.Split(v, ";") {
		if q = strings.TrimSpace(q); q != "" {
			*p = append(*p, q)
		}
	}
	return nil
}
