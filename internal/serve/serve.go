// Package serve is the concurrent query-serving layer over the TAG-join
// executor. The TAG encoding is query-independent and read-mostly: one
// frozen tag.Graph can answer any number of simultaneous read queries.
// A Server wraps the graph with a pool of core.Sessions (each owning its
// private BSP engine and per-query caches), an LRU prepared-statement
// cache keyed by the normalized SQL fingerprint, and aggregate serving
// statistics.
//
// Writes no longer require quiescence. The Server serves from an
// epoch-numbered Generation (frozen graph + session pool) behind an
// atomic pointer; a Maintainer applies InsertBatch/DeleteBatch to a
// private copy-on-write clone of the current graph and publishes the
// result as the next generation with a single pointer swap. Queries pin
// the generation they started on and drain it when they finish, so
// readers always see a consistent snapshot — never a graph mid-mutation
// — while writes land continuously. See docs/ARCHITECTURE.md for the
// full swap protocol.
package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/tag"
	"repro/internal/wal"
)

// Options configures a Server.
type Options struct {
	// Sessions is the pool size of each graph generation — the maximum
	// number of queries evaluated simultaneously on one epoch; further
	// queries on that epoch queue. Because generations drain
	// asynchronously, total in-flight queries (and session memory) can
	// transiently reach GenerationsLive x Sessions during write bursts.
	// Defaults to 4.
	Sessions int
	// Engine configures each session's BSP engine. Workers defaults to 1:
	// under concurrent serving, parallelism comes from running many
	// queries at once rather than many workers per superstep.
	Engine bsp.Options
	// PreparedLimit bounds the prepared-statement cache (entries);
	// defaults to 1024. The cache evicts the least-recently-used entry
	// once full, so a hot working set of statements survives bursts of
	// one-off queries.
	PreparedLimit int

	// WALDir enables write durability: every published batch is appended
	// to an append-only WriteOp log in this directory *before* the
	// generation swap, and Open replays the log on boot — rebuilding the
	// exact pre-crash epoch sequence. Empty disables the WAL. Only Open
	// honors these fields; New always builds a memory-only server.
	WALDir string
	// WALSync selects the log's sync policy (default wal.SyncInterval:
	// group-commit fsyncs, bounded loss at near-unsynced throughput).
	WALSync wal.Policy
	// WALSyncInterval bounds the fsync lag under wal.SyncInterval;
	// defaults to 100ms.
	WALSyncInterval time.Duration

	// CheckpointEvery, when > 0, checkpoints the served state every N
	// published epochs: a background snapshot of a pinned generation is
	// written atomically next to the WAL, then the WAL prefix it covers
	// is truncated. Boot loads the newest valid checkpoint and replays
	// only the WAL suffix past it, so recovery time tracks checkpoint
	// cadence instead of total history. 0 disables periodic
	// checkpointing (Maintainer.Checkpoint still works on demand).
	CheckpointEvery int
	// CheckpointBytes, when > 0, additionally triggers a checkpoint once
	// at least this many WAL bytes have been appended since the last one
	// — bounding log growth under large-row workloads where an epoch
	// count alone would let the log balloon.
	CheckpointBytes int64
	// CheckpointNoTruncate keeps the full WAL after periodic checkpoints
	// instead of truncating the covered prefix. Boot still prefers the
	// newest checkpoint, but a torn or corrupt image can always fall
	// back to a full replay — the log remains a complete history (at the
	// cost of unbounded growth). Useful for point-in-time archives and
	// for crash drills that corrupt checkpoints on purpose.
	CheckpointNoTruncate bool

	// AdmitWait is the admission-control bound: how long a query waits
	// for a pooled session — and a write for queue space — before the
	// server refuses it with ErrOverloaded instead of queueing
	// unboundedly (HTTP maps the refusal to 429 + Retry-After, the
	// binary protocol to a RETRY frame). Defaults to 100ms when not
	// positive.
	AdmitWait time.Duration
	// WriteQueue bounds how many writes may be queued or applying at
	// once; writes beyond it wait AdmitWait for space and are then
	// refused with ErrOverloaded. Defaults to 256.
	WriteQueue int

	// VerifyIncremental checks every incrementally folded pinned-query
	// answer byte-identical to a cold re-run of the same epoch, on the
	// write path. A divergence counts Stats.IncrementalMismatches and the
	// cold answer wins. This makes every write pay a full query per
	// pinned subscription — it is a correctness harness for tests,
	// scenario drills and benchmarks, not a production default.
	VerifyIncremental bool

	// Dist, when non-nil, routes every query to a distributed topology
	// instead of the local session pool: the coordinator dispatches the
	// SQL to every node and each computes the identical answer over its
	// own partition, with the data exchange on real sockets. Analysis
	// (and the prepared-statement cache) stays local, so parse errors
	// never reach the topology. Distributed serving is read-only and
	// queries serialize per topology — the cluster is one distributed
	// engine, not a pool. Cancellation cannot abort a dispatched
	// distributed query: the nodes advance in lockstep and run to
	// completion. A degraded topology (a node died) refuses queries
	// with dist.ErrDegraded, which HTTP maps to 503.
	Dist *dist.Coordinator
}

func (o Options) withDefaults() Options {
	if o.Sessions <= 0 {
		o.Sessions = 4
	}
	if o.Engine.Workers == 0 {
		o.Engine.Workers = 1
	}
	if o.PreparedLimit <= 0 {
		o.PreparedLimit = 1024
	}
	if o.WALSyncInterval <= 0 {
		o.WALSyncInterval = 100 * time.Millisecond
	}
	if o.AdmitWait <= 0 {
		o.AdmitWait = 100 * time.Millisecond
	}
	if o.WriteQueue <= 0 {
		o.WriteQueue = 256
	}
	return o
}

// ErrOverloaded is the admission-control refusal: the session pool (or
// the write queue) stayed exhausted for the whole bounded wait. The
// request was never started, so retrying after a backoff is always
// safe; the HTTP layer translates it to 429 + Retry-After and the
// binary protocol to a typed RETRY frame.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// Protocol labels for per-protocol serving metrics (latency histograms
// on /metrics).
const (
	ProtoHTTP   = "http"
	ProtoBinary = "binary"
)

// Stats aggregates serving activity across all sessions of a Server.
type Stats struct {
	Queries        int64         // completed successfully
	Errors         int64         // failed (parse, analyze, or execution)
	Canceled       int64         // aborted by deadline or client cancellation
	Rejected       int64         // refused by admission control (pool exhausted)
	WriteRejected  int64         // writes refused by admission control (queue full)
	InFlight       int64         // currently executing
	PreparedHits   int64         // served from the prepared-statement cache
	PreparedMisses int64         // analyzed afresh
	PreparedSize   int64         // cached prepared statements (gauge, filled at snapshot time)
	TotalTime      time.Duration // summed wall time of successful queries
	MaxTime        time.Duration // slowest successful query
	Cost           bsp.Stats     // summed BSP cost measures of all queries

	// Write/maintenance activity (the generation scheme).
	Epoch           uint64 // epoch of the currently served generation (filled at snapshot time)
	Swaps           int64  // generations published since startup (boot replay counts one per WAL record)
	WriteOps        int64  // write ops applied (> Swaps when coalescing shares a publish)
	RowsInserted    int64  // rows applied through the Maintainer
	RowsDeleted     int64  // rows removed through the Maintainer
	GenerationsLive int64  // published but not yet drained generations
	WriteQueueDepth int64  // writes queued or applying (gauge, filled at snapshot time)

	// Durability (the WriteOp WAL; all zero on a memory-only server).
	WALRecords  int64 // records appended since boot (one per published batch)
	WALBytes    int64 // bytes appended since boot (frame headers included)
	WALFsyncs   int64 // fsyncs issued by the sync policy
	WALReplayed int64 // records replayed at boot (the suffix past the checkpoint)

	// Checkpointing (snapshot-then-truncate compaction).
	WALSkipped       int64  // boot: records covered by the loaded checkpoint, not replayed
	WALTruncations   int64  // log compactions (prefix rewrites after checkpoints)
	Checkpoints      int64  // checkpoints written since boot
	CheckpointEpoch  uint64 // epoch covered by the newest checkpoint (boot-loaded or written)
	CheckpointErrors int64  // checkpoint attempts that failed or were skipped as invalid

	// Incremental maintenance of pinned queries (subscriptions).
	PinnedQueries         int64 // currently pinned queries (gauge, filled at snapshot time)
	IncrementalHits       int64 // pinned-query epoch advances folded from the write delta
	IncrementalFallbacks  int64 // pinned-query epoch advances that re-ran the query cold
	IncrementalMismatches int64 // VerifyIncremental divergences (cold answer won)

	// Distributed serving (gauges, filled at snapshot time; zero when
	// serving from the local session pool).
	DistParts    int64 // topology size, coordinator included
	DistDegraded bool  // the topology lost a node and refuses queries
}

// String renders the stats compactly.
func (s Stats) String() string {
	avg := time.Duration(0)
	if s.Queries > 0 {
		avg = s.TotalTime / time.Duration(s.Queries)
	}
	return fmt.Sprintf("queries=%d errors=%d inflight=%d prepared=%d/%d avg=%v max=%v epoch=%d swaps=%d live=%d [%s]",
		s.Queries, s.Errors, s.InFlight, s.PreparedHits, s.PreparedHits+s.PreparedMisses,
		avg.Round(time.Microsecond), s.MaxTime.Round(time.Microsecond),
		s.Epoch, s.Swaps, s.GenerationsLive, s.Cost)
}

// Result is one query's answer plus its per-query execution report.
type Result struct {
	Rows     *relation.Relation
	Info     core.ExecInfo
	Cost     bsp.Stats // this query's BSP cost only
	Elapsed  time.Duration
	Prepared bool   // answered via a prepared-statement cache hit
	Epoch    uint64 // generation the query was answered on
}

// Server serves concurrent queries over epoch'd TAG graph generations.
type Server struct {
	opts Options
	gen  atomic.Pointer[Generation]
	live atomic.Int64 // published, not-yet-drained generations

	// writeMu is the writer leader lock: one clone/apply/publish cycle
	// at a time, so generations form a chain and no write is lost to a
	// racing sibling clone. Readers never take it. Writers that pile up
	// behind it enqueue on writeQ first; the lock holder drains the
	// whole queue into its cycle (group commit).
	writeMu sync.Mutex
	queueMu sync.Mutex
	writeQ  []*queuedWrite
	// writeSlots bounds the write queue: a write occupies a slot from
	// admission until its result is final, so len(writeSlots) is the
	// queue-depth gauge.
	writeSlots chan struct{}

	// lat holds the per-protocol query latency histograms exported on
	// /metrics. The map is built in New and never written afterwards,
	// so concurrent reads need no lock; the histograms themselves are
	// atomic.
	lat map[string]*Histogram

	prepared preparedCache

	// wal, when non-nil, receives one record per publish cycle before
	// the generation swap (see Maintainer). It is attached by Open after
	// replay finishes, so replayed batches are never re-appended; it is
	// never changed afterwards, and applyBatch runs under writeMu, so
	// the plain read there is safe.
	wal         *wal.Writer
	walReplayed int64
	walSkipped  int64
	// baseFP fingerprints the base catalog this server's WAL dir is
	// bound to; checkpoints carry it so an image can never be applied to
	// a foreign base. Set by Open, constant afterwards.
	baseFP string

	// ckptMu guards the checkpointer's trigger state. The write path
	// only peeks at it after a publish; the snapshot itself runs in a
	// background goroutine on a pinned (immutable) generation, off the
	// write path.
	ckptMu        sync.Mutex
	ckptWG        sync.WaitGroup // the background checkpoint, while one runs
	ckptInflight  bool
	ckptLastEpoch uint64 // epoch covered by the newest checkpoint
	ckptLastBytes int64  // wal bytes counter when it was taken
	ckptCount     int64
	ckptErrors    int64

	// subMu guards the pinned-query registry. The write path refreshes
	// every subscription under writeMu right after each publish (see
	// refreshSubscriptions); subMu is only held for registry lookups and
	// snapshots, never across query execution.
	subMu sync.Mutex
	subs  map[string]*subscription

	statsMu sync.Mutex
	stats   Stats
}

// New builds a Server over g, publishing it as generation 0. The graph
// must already be frozen (tag.Build leaves it frozen). After New, the
// graph belongs to the serving layer: mutate it only through a
// Maintainer, which clones rather than touching the served snapshot.
func New(g *tag.Graph, opts Options) *Server {
	opts = opts.withDefaults()
	if !g.G.Frozen() {
		g.G.Freeze()
	}
	s := &Server{opts: opts, subs: map[string]*subscription{},
		writeSlots: make(chan struct{}, opts.WriteQueue)}
	s.prepared.init(opts.PreparedLimit)
	s.lat = map[string]*Histogram{
		ProtoHTTP:   NewHistogram(),
		ProtoBinary: NewHistogram(),
	}
	s.live.Store(1)
	s.gen.Store(newGeneration(0, g, opts, func() { s.live.Add(-1) }))
	return s
}

// Open is New plus durability. When opts.WALDir is set it boots via
// snapshot-load + suffix-replay: recover the write-ahead log
// (truncating any tail torn by a crash), load the newest valid
// checkpoint in the dir — CRC-checked and fingerprint-matched to this
// base — install it as the serving generation at the epoch it
// captures, and replay only the WAL records past that epoch (see
// replayLog): each record's epoch is checked, its ops go through the
// live write path's validate-then-apply code onto one copy-on-write
// clone shared by the whole suffix, and that clone is published once,
// at the last record's epoch — so a restart pays one Clone in all, not
// one Clone and one publish per record. When no
// checkpoint exists, or every one on disk is torn, corrupt, or foreign,
// boot falls back to the passed base graph and a full replay — the
// pre-checkpoint behavior. Only then is the log attached, so new writes
// are appended (and synced per opts.WALSync) before their generation
// swap. Replay relies on the write path being deterministic:
// re-applying the same ops to the same state assigns the same
// tuple-vertex ids, which keeps logged delete ids valid.
//
// With an empty WALDir, Open is exactly New.
func Open(g *tag.Graph, opts Options) (*Server, error) {
	s := New(g, opts)
	if opts.WALDir == "" {
		return s, nil
	}
	opts = opts.withDefaults()
	w, err := wal.Open(opts.WALDir, wal.Options{Policy: opts.WALSync, Interval: opts.WALSyncInterval})
	if err != nil {
		return nil, err
	}
	// Bind the log to this base catalog before replaying: logged delete
	// ids resolve by position, so replaying onto a different base (other
	// workload, scale, or generator seed) would silently delete
	// unrelated rows. The first Open of a dir claims it; later Opens
	// must present the same base.
	fp := baseFingerprint(g)
	fpPath := filepath.Join(opts.WALDir, baseFPFile)
	if data, err := os.ReadFile(fpPath); err == nil {
		if have := strings.TrimSpace(string(data)); have != fp {
			w.Close()
			return nil, fmt.Errorf("serve: wal dir %s belongs to a different base catalog (log base %s, this server %s); replaying it here would rewrite history",
				opts.WALDir, have, fp)
		}
	} else if errors.Is(err, os.ErrNotExist) {
		// Claim atomically (temp + fsync + rename): a crash mid-claim must
		// not leave a partial fingerprint that bricks the dir with a bogus
		// "different base" refusal on every later boot.
		if err := codec.WriteFileAtomic(fpPath, []byte(fp+"\n")); err != nil {
			w.Close()
			return nil, fmt.Errorf("serve: claiming wal dir: %w", err)
		}
	} else {
		w.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.baseFP = fp

	// Snapshot-load: install the newest valid checkpoint as the serving
	// state, then replay only the suffix past it. Invalid checkpoints are
	// skipped (counted), never half-applied — the checkpointer truncates
	// the covered WAL prefix only after its snapshot is durable, so a
	// skipped checkpoint always leaves a log that reaches the same state
	// the long way.
	if ckptG, epoch, skipped, err := checkpoint.LoadNewest(opts.WALDir, fp); err != nil {
		w.Close()
		return nil, fmt.Errorf("serve: %w", err)
	} else {
		s.ckptErrors = int64(skipped)
		if ckptG != nil {
			s.ckptLastEpoch = epoch
			s.publish(ckptG, epoch, 0, 0, 0, 0)
		}
	}

	if err := s.replayLog(opts.WALDir); err != nil {
		w.Close()
		return nil, err
	}
	s.wal = w
	return s, nil
}

// replayLog applies every WAL record past the boot generation's epoch to
// one private clone of that generation, in log order, as wal.Replay
// streams them, and publishes the clone once, at the last record's
// epoch. Records the loaded checkpoint covers are counted, not applied.
// Stats come out as a record-by-record replay would leave them: one
// swap per record, plus its ops and rows.
//
// Only applied ops were logged, so an op that fails here means the log
// and the boot state have diverged — boot refuses to serve a state that
// differs from what was acknowledged. Each record's epoch is checked
// before it is applied: a hole in history (e.g. a log truncated for a
// checkpoint that then failed to load) would replay onto the fallback
// base at the wrong epochs, so boot fails loudly instead. On any error
// nothing is published.
func (s *Server) replayLog(dir string) (err error) {
	loaded := s.gen.Load().Epoch
	want := loaded + 1
	var next *tag.Graph
	var records, ops, inserted, deleted int
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: replaying epoch %d panicked: %v", want, r)
		}
	}()
	_, err = wal.Replay(dir, func(rec *wal.Record) error {
		if rec.Epoch <= loaded {
			// Covered by the loaded checkpoint; replaying it would
			// double-apply.
			s.walSkipped++
			return nil
		}
		if rec.Epoch != want {
			return fmt.Errorf("serve: replay produced epoch %d for logged epoch %d", want, rec.Epoch)
		}
		if len(rec.Ops) == 0 {
			return fmt.Errorf("serve: logged epoch %d carries no ops", rec.Epoch)
		}
		if next == nil {
			next = s.gen.Load().Graph.Clone()
		}
		batch := make([]*queuedWrite, len(rec.Ops))
		for i, op := range rec.Ops {
			batch[i] = &queuedWrite{op: WriteOp{Table: op.Table, Insert: op.Insert, Delete: op.Delete}}
		}
		applied, ins, del := applyOps(next, batch)
		for i, qw := range batch {
			if qw.err != nil {
				return fmt.Errorf("serve: replaying op %d of epoch %d: %w", i, rec.Epoch, qw.err)
			}
		}
		records++
		ops += len(applied)
		inserted += ins
		deleted += del
		want++
		return nil
	})
	if err != nil {
		return err
	}
	if next != nil {
		s.publish(next, want-1, records, ops, inserted, deleted)
	}
	s.walReplayed = int64(records)
	return nil
}

// baseFPFile sits next to the log and names the base catalog it was
// recorded against. Written via codec.WriteFileAtomic so a crash
// mid-claim leaves either no file or the complete fingerprint.
const baseFPFile = "base.fp"

// baseFingerprint identifies a base catalog: graph size, every table's
// name, schema and row count, plus a row-content sample (so the same
// shape generated from a different seed does not pass). Deterministic
// generators rebuild the identical catalog, hence the identical
// fingerprint, across restarts.
func baseFingerprint(g *tag.Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "graph %d %d\n", g.G.NumVertices(), g.G.NumEdges())
	names := g.Catalog.Names()
	sort.Strings(names)
	for _, name := range names {
		rel := g.Catalog.Get(name)
		fmt.Fprintf(h, "table %s rows %d cols", name, rel.Len())
		for _, col := range rel.Schema.Columns {
			fmt.Fprintf(h, " %s:%s", col.Name, col.Kind)
		}
		fmt.Fprintln(h)
		if rel.Len() > 0 {
			fmt.Fprintf(h, "first %v last %v\n", rel.Tuples[0], rel.Tuples[rel.Len()-1])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Graph returns the currently served TAG graph (the head generation's).
func (s *Server) Graph() *tag.Graph { return s.gen.Load().Graph }

// WAL returns the attached write-ahead log, or nil on a memory-only
// server. Callers may Sync it to force durability ahead of the sync
// policy; appends stay owned by the maintenance path. Compaction goes
// through Maintainer.Checkpoint (or the periodic checkpointer): a log
// prefix may only be truncated after a checkpoint covering it is
// durably on disk, because boot replays just the suffix past the
// newest loadable checkpoint.
func (s *Server) WAL() *wal.Writer { return s.wal }

// Generation returns the currently served generation. The caller must
// not mutate it; to keep it alive across its own queries, use Query,
// which pins per call.
func (s *Server) Generation() *Generation { return s.gen.Load() }

// Maintainer returns a write handle for this server. All handles share
// the server's writer lock, so any number of them serialize correctly.
func (s *Server) Maintainer() *Maintainer { return &Maintainer{s: s} }

// acquireGen pins and returns the current generation. The retry loop
// closes the load/pin race: if a swap lands between the pointer load and
// the refcount increment, the pin may have hit an already-drained
// generation, so it is dropped and the new head pinned instead.
func (s *Server) acquireGen() *Generation {
	for {
		gen := s.gen.Load()
		gen.acquire()
		if s.gen.Load() == gen {
			return gen
		}
		gen.release()
	}
}

// publish installs g as the served generation at epoch and counts the
// swaps publish cycles, ops coalesced write ops and rows it carries (a
// boot-time replay publishes a whole WAL suffix at once, counting one
// swap per record, as the live server did). Must be called with writeMu
// held (Maintainer does) or before serving starts (Open), so the head
// epoch the caller derived epoch from is stable.
func (s *Server) publish(g *tag.Graph, epoch uint64, swaps, ops, inserted, deleted int) *Generation {
	old := s.gen.Load()
	gen := newGeneration(epoch, g, s.opts, func() { s.live.Add(-1) })
	s.live.Add(1)
	s.gen.Store(gen)
	old.release() // drop the publisher's reference; old drains when its readers finish

	s.statsMu.Lock()
	s.stats.Swaps += int64(swaps)
	s.stats.WriteOps += int64(ops)
	s.stats.RowsInserted += int64(inserted)
	s.stats.RowsDeleted += int64(deleted)
	s.statsMu.Unlock()
	return gen
}

// prepareFP analyzes a query, consulting the fingerprint-keyed LRU
// cache. It returns the shared Analysis (execution is read-only on it),
// the normalized fingerprint, which the binary protocol hands to
// clients so later requests can skip SQL parsing entirely (see
// QueryPrepared), and whether it was a cache hit. Prepared statements
// stay valid across generation swaps: schemas are immutable, and
// execution resolves rows through the session's own generation, not
// the Analysis.
func (s *Server) prepareFP(query string) (*sql.Analysis, string, bool, error) {
	fp, err := sql.Fingerprint(query)
	if err != nil {
		return nil, "", false, err
	}
	if an, _, ok := s.prepared.get(fp); ok {
		return an, fp, true, nil
	}
	an, err := sql.AnalyzeString(s.gen.Load().Graph.Catalog, query)
	if err != nil {
		return nil, "", false, err
	}
	// On a race, adopt whichever Analysis reached the cache first.
	return s.prepared.put(fp, query, an), fp, false, nil
}

// Query evaluates a SQL string on a pooled session of the current
// generation, blocking (up to the admission bound) until a session is
// free. Safe for arbitrary concurrent use, including concurrently with
// Maintainer writes: the generation is pinned for the duration of the
// query, so a swap landing mid-flight never changes what this query
// sees.
func (s *Server) Query(query string) (*Result, error) {
	return s.QueryContext(context.Background(), query)
}

// QueryContext is Query with a deadline/cancellation context: once ctx
// is done the query aborts at the next superstep barrier, releases its
// pooled session, and returns an error wrapping ctx.Err(). Aborted
// queries count Stats.Canceled, not Errors.
func (s *Server) QueryContext(ctx context.Context, query string) (*Result, error) {
	res, _, err := s.QueryOn(ctx, query, ProtoHTTP)
	return res, err
}

// QueryOn is the shared request-execution core behind every serving
// protocol: both the HTTP JSON handler and the binary protocol call
// it, so deadline, admission, accounting and latency-histogram
// semantics are identical on each. proto labels the per-protocol
// latency histogram (ProtoHTTP or ProtoBinary). The returned string is
// the statement's normalized fingerprint — binary-protocol clients
// cache it to skip SQL parsing on later requests.
func (s *Server) QueryOn(ctx context.Context, query, proto string) (*Result, string, error) {
	an, fp, hit, err := s.prepareFP(query)
	if err != nil {
		s.statsMu.Lock()
		s.stats.Errors++
		s.stats.PreparedMisses++
		s.statsMu.Unlock()
		return nil, "", err
	}
	res, err := s.execute(ctx, an, query, hit, proto)
	return res, fp, err
}

// QueryPrepared executes a statement previously prepared on this
// server by its fingerprint — the binary protocol's fast path, which
// skips lexing and analysis entirely. ok is false when the fingerprint
// is not (or no longer) cached; the client then falls back to sending
// the SQL text, which re-primes the cache.
func (s *Server) QueryPrepared(ctx context.Context, fp, proto string) (res *Result, ok bool, err error) {
	an, sqlText, hit := s.prepared.get(fp)
	if !hit {
		return nil, false, nil
	}
	res, err = s.execute(ctx, an, sqlText, true, proto)
	return res, true, err
}

// execute runs an analyzed query on a pooled session with admission
// control, cancellation, and outcome accounting — or, on a
// distributed server, dispatches its SQL text to the topology. Every
// protocol's query path funnels through here.
func (s *Server) execute(ctx context.Context, an *sql.Analysis, sqlText string, hit bool, proto string) (*Result, error) {
	s.statsMu.Lock()
	if hit {
		s.stats.PreparedHits++
	} else {
		s.stats.PreparedMisses++
	}
	s.stats.InFlight++
	s.statsMu.Unlock()

	// Every exit below must undo the in-flight count — including a query
	// that panics inside Run: net/http recovers handler panics, so the
	// process would survive with InFlight permanently inflated and the
	// failure never counted. The decrement and the outcome accounting
	// therefore live in one deferred closure (res stays nil on the error
	// and panic paths), mirroring the generation-pin and pool-slot defers
	// below. Admission refusals and cancellations count their own stats
	// so overload and deadline behavior are observable separately from
	// real failures.
	var res *Result
	var failure error
	defer func() {
		s.statsMu.Lock()
		s.stats.InFlight--
		switch {
		case res != nil:
			s.stats.Queries++
			s.stats.TotalTime += res.Elapsed
			if res.Elapsed > s.stats.MaxTime {
				s.stats.MaxTime = res.Elapsed
			}
			s.stats.Cost.Add(res.Cost)
		case errors.Is(failure, ErrOverloaded):
			s.stats.Rejected++
		case errors.Is(failure, context.Canceled) || errors.Is(failure, context.DeadlineExceeded):
			s.stats.Canceled++
		default:
			s.stats.Errors++
		}
		s.statsMu.Unlock()
	}()

	if s.opts.Dist != nil {
		// Distributed path: the topology is the engine. The local
		// Analysis already vetted the SQL; the coordinator serializes
		// queries and every node computes the identical answer. The pool
		// and the generation pin stay out of it — distributed serving is
		// read-only, so the boot generation is the only one.
		start := time.Now()
		dres, err := s.opts.Dist.Query(sqlText)
		elapsed := time.Since(start)
		if err != nil {
			failure = err
			return nil, err
		}
		res = &Result{Rows: dres.Rows, Info: dres.Info, Elapsed: elapsed,
			Prepared: hit, Cost: dres.Cost, Epoch: s.gen.Load().Epoch}
		if h := s.lat[proto]; h != nil {
			h.Observe(elapsed)
		}
		return res, nil
	}

	// Unpin via defer so a panicking query (recovered by net/http) cannot
	// leak the generation pin or the pool slot.
	gen := s.acquireGen()
	defer gen.release()
	sess, err := gen.pool.AcquireContext(ctx, s.opts.AdmitWait)
	if err != nil {
		failure = err
		return nil, err
	}
	defer gen.pool.Release(sess)
	start := time.Now()
	before := sess.Stats()
	rows, err := runSession(sess, ctx, an)
	after := sess.Stats()
	elapsed := time.Since(start)
	if err != nil {
		failure = err
		return nil, err
	}
	res = &Result{Rows: rows, Info: sess.Info, Elapsed: elapsed, Prepared: hit,
		Cost: after.Sub(before), Epoch: gen.Epoch}
	if h := s.lat[proto]; h != nil {
		h.Observe(elapsed)
	}
	return res, nil
}

// runSession indirects Session.RunContext so tests can inject failures
// — and panics — into the execution stage without needing a query that
// triggers them organically.
var runSession = (*core.Session).RunContext

// Stats returns a snapshot of the aggregate serving statistics.
func (s *Server) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st := s.stats
	st.Epoch = s.gen.Load().Epoch
	st.GenerationsLive = s.live.Load()
	st.WriteQueueDepth = int64(len(s.writeSlots))
	st.PreparedSize = int64(s.prepared.len())
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WALRecords = ws.Records
		st.WALBytes = ws.Bytes
		st.WALFsyncs = ws.Fsyncs
		st.WALTruncations = ws.Truncations
	}
	st.WALReplayed = s.walReplayed
	st.WALSkipped = s.walSkipped
	s.subMu.Lock()
	st.PinnedQueries = int64(len(s.subs))
	s.subMu.Unlock()
	s.ckptMu.Lock()
	st.Checkpoints = s.ckptCount
	st.CheckpointEpoch = s.ckptLastEpoch
	st.CheckpointErrors = s.ckptErrors
	s.ckptMu.Unlock()
	if s.opts.Dist != nil {
		st.DistParts = int64(s.opts.Dist.Parts())
		st.DistDegraded = s.opts.Dist.Degraded()
	}
	return st
}

// ResetStats zeroes the aggregate serving statistics.
func (s *Server) ResetStats() {
	s.statsMu.Lock()
	s.stats = Stats{InFlight: s.stats.InFlight}
	s.statsMu.Unlock()
}

// Latency returns the per-protocol query latency histogram (ProtoHTTP
// or ProtoBinary) that /metrics exports, or nil for an unknown label.
func (s *Server) Latency(proto string) *Histogram { return s.lat[proto] }

// RetryAfter is the backoff both protocols hint with an ErrOverloaded
// refusal (HTTP's Retry-After header, TAGP1's RETRY frame): the
// admission bound rounded up to whole seconds, at least one — once
// that wait expired full, the pool (or write queue) was saturated for
// its whole span, so anything shorter would invite an immediate second
// refusal.
func (s *Server) RetryAfter() time.Duration {
	d := (s.opts.AdmitWait + time.Second - 1).Truncate(time.Second)
	return max(d, time.Second)
}

// Close releases the server's durability resources: it fsyncs and
// closes the attached WAL (releasing the dir's writer lock so a
// successor process can Open it) after waiting for an in-flight
// background checkpoint to settle. Queries and writes must have
// stopped first — Close is the tail of a graceful shutdown, not a way
// to fence live traffic. Idempotent; a memory-only server closes to a
// no-op.
func (s *Server) Close() error {
	// Let a mid-flight periodic checkpoint finish (or fail) before the
	// WAL goes away: closing under it would fail its TruncatePrefix,
	// counting a spurious checkpoint error, and leave it writing the
	// WAL dir after the dir lock is released.
	s.ckptWG.Wait()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// preparedCache is a mutex-guarded LRU of analyzed statements keyed by
// SQL fingerprint.
type preparedCache struct {
	mu      sync.Mutex
	limit   int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type preparedEntry struct {
	fp  string
	sql string // the statement's text, for distributed dispatch
	an  *sql.Analysis
}

func (c *preparedCache) init(limit int) {
	c.limit = limit
	c.entries = make(map[string]*list.Element)
	c.order = list.New()
}

func (c *preparedCache) get(fp string) (*sql.Analysis, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return nil, "", false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*preparedEntry)
	return e.an, e.sql, true
}

// put inserts an analysis unless the fingerprint is already cached, in
// which case the cached value wins (concurrent first preparations race
// to the lock; the loser adopts the winner's Analysis). Returns the
// authoritative Analysis either way.
func (c *preparedCache) put(fp, sqlText string, an *sql.Analysis) *sql.Analysis {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*preparedEntry).an
	}
	for len(c.entries) >= c.limit {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.order.Remove(back)
		delete(c.entries, back.Value.(*preparedEntry).fp)
	}
	c.entries[fp] = c.order.PushFront(&preparedEntry{fp: fp, sql: sqlText, an: an})
	return an
}

func (c *preparedCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
