package serve

import (
	"fmt"
	"time"

	"repro/internal/bsp"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/wal"
)

// Maintainer applies writes to a Server without ever blocking its
// readers, coalescing concurrent writers into shared generation
// publishes (group commit). Each publish cycle runs the generation
// protocol:
//
//  1. clone the current generation's graph copy-on-write (O(|V|) slice
//     headers and lookup maps; edge storage is shared until touched),
//  2. apply every queued write op to the private clone, in arrival
//     order — one Thaw/Freeze per op, re-sorting only the touched
//     vertices. Each op is pre-validated, so a bad op is skipped (its
//     caller gets the error) without poisoning the ops it shares the
//     clone with,
//  3. publish the clone as the next generation with an atomic pointer
//     swap; every coalesced op reports the same epoch.
//
// The first writer to reach the server's writer lock becomes the
// leader and drains the queue — including ops enqueued by writers
// still blocked behind it, which find their result ready when they get
// the lock — up to a per-cycle size budget (an over-budget burst
// publishes across several cycles so its WAL record stays well within
// the log's frame cap). A lone writer therefore still pays one clone
// per batch, but N writers colliding pay one clone per *drain*, which
// is what lifts ingest throughput toward the in-place baselines.
//
// In-flight queries keep their pinned generation until they finish;
// queries that start after the swap see the new one.
type Maintainer struct {
	s *Server
}

// WriteOp is one maintenance batch: inserts into one relation and/or
// deletes (by tuple-vertex id, which must name vertices that already
// exist when the op is submitted), applied atomically — a published
// generation carries either all of an op or none of it.
type WriteOp struct {
	Table  string // target relation for Insert; may be empty when only deleting
	Insert []relation.Tuple
	Delete []bsp.VertexID
}

// queuedWrite is one write op waiting in the server's coalescing
// queue. done closes once the op has been applied (or rejected) and
// res/err are final.
type queuedWrite struct {
	op   WriteOp
	done chan struct{}
	res  *WriteResult
	err  error
}

// WriteResult reports one published batch.
type WriteResult struct {
	Epoch     uint64         // epoch of the generation the batch landed in
	Inserted  []bsp.VertexID // tuple-vertex ids assigned to inserted rows
	Deleted   int
	Coalesced int           // ops that shared this publish (1 = no coalescing)
	Elapsed   time.Duration // clone + apply + publish time of the shared cycle
}

// Apply runs one batch through the coalescing clone/apply/publish
// protocol. On error the op is skipped and the served generation never
// sees it (validation precedes mutation, and a clone only becomes
// visible if at least one op applied). Safe for concurrent use;
// concurrent batches coalesce into one publish.
func (m *Maintainer) Apply(op WriteOp) (*WriteResult, error) {
	if len(op.Insert) == 0 && len(op.Delete) == 0 {
		return nil, fmt.Errorf("serve: empty write")
	}
	if len(op.Insert) > 0 && op.Table == "" {
		return nil, fmt.Errorf("serve: insert without a table")
	}

	s := m.s
	// Admission control: a write occupies a queue slot from here until
	// its result is final. When the queue stays full for the whole
	// bounded wait the write is refused with ErrOverloaded — the same
	// refusal discipline as the query path's session admission — so a
	// write burst backs pressure up to the clients instead of queueing
	// without limit. Boot-time replay bypasses Apply (and applyBatch: it
	// feeds logged ops to applyOps on its own clone) and is never
	// admission-limited.
	select {
	case s.writeSlots <- struct{}{}:
	default:
		timer := time.NewTimer(s.opts.AdmitWait)
		select {
		case s.writeSlots <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			s.statsMu.Lock()
			s.stats.WriteRejected++
			s.statsMu.Unlock()
			return nil, fmt.Errorf("serve: write queue full: %w", ErrOverloaded)
		}
	}
	defer func() { <-s.writeSlots }()

	qw := &queuedWrite{op: op, done: make(chan struct{})}
	s.queueMu.Lock()
	s.writeQ = append(s.writeQ, qw)
	s.queueMu.Unlock()

	s.writeMu.Lock()
	defer s.writeMu.Unlock() // deferred so a panicking batch cannot wedge the writer path
	for {
		select {
		case <-qw.done:
			// A leader (possibly this writer, on a previous loop pass)
			// drained this op.
			return qw.res, qw.err
		default:
		}
		// This writer is the leader: drain a budget-bounded prefix of the
		// queue into one clone→apply→publish cycle, and loop until its own
		// op has gone through. The budget keeps one cycle's ops — which
		// become a single WAL record — well under the codec's frame cap,
		// so a burst of large writes publishes across a few cycles instead
		// of failing every op in one oversized record. While this op is
		// undone it is still queued (the queue only drains under writeMu,
		// which we hold), so every pass makes progress.
		s.queueMu.Lock()
		batch, rest := splitDrain(s.writeQ)
		s.writeQ = rest
		s.queueMu.Unlock()
		if len(batch) == 0 { // unreachable while qw is queued; fail closed
			return nil, fmt.Errorf("serve: write dropped from the queue")
		}
		s.applyBatch(batch)
	}
}

// drainBudget bounds the estimated encoded size of one publish cycle's
// ops (and therefore of its WAL record). Estimates use
// relation.Value.Size, which dominates the codec's per-value encoding,
// so the bound holds on disk too — 64MB sits far under the wal
// package's 256MB frame cap.
const drainBudget = 64 << 20

// splitDrain cuts the queue at the drain budget, always taking at
// least one op (a single op bigger than the budget runs alone).
func splitDrain(q []*queuedWrite) (batch, rest []*queuedWrite) {
	size, n := 0, 0
	for _, qw := range q {
		sz := opSizeEstimate(qw.op)
		if n > 0 && size+sz > drainBudget {
			break
		}
		size += sz
		n++
	}
	return q[:n:n], q[n:]
}

func opSizeEstimate(op WriteOp) int {
	sz := len(op.Table) + 16 + 5*len(op.Delete)
	for _, row := range op.Insert {
		sz += 4
		for _, v := range row {
			sz += v.Size()
		}
	}
	return sz
}

// applyBatch runs one clone→apply→publish cycle over a drained queue.
// The caller holds writeMu. If every op fails validation, nothing is
// published and the served generation is unchanged. A panic while
// applying (a latent bug in a batch operation) is converted into an
// error on every unpublished op — the clone is discarded unpublished,
// waiters are released, and the writer path stays usable.
func (s *Server) applyBatch(batch []*queuedWrite) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: write batch panicked: %v", r)
			for _, qw := range batch {
				// Epoch 0 is never a published write (epochs start at 1), so
				// any op without one did not land.
				if qw.err == nil && (qw.res == nil || qw.res.Epoch == 0) {
					qw.res, qw.err = nil, err
				}
			}
		}
		for _, qw := range batch {
			close(qw.done)
		}
	}()
	start := time.Now()
	next := s.gen.Load().Graph.Clone()
	applied, inserted, deleted := applyOps(next, batch)
	if len(applied) == 0 {
		return
	}
	// Durability barrier: the record must be on the log (synced per its
	// policy) before the swap makes the batch visible, so the log is
	// always a prefix-consistent history of what was ever served. The
	// epoch is stable here — the caller holds writeMu, which publish
	// relies on too.
	if s.wal != nil {
		rec := &wal.Record{Epoch: s.gen.Load().Epoch + 1, Ops: make([]wal.Op, len(applied))}
		for i, qw := range applied {
			rec.Ops[i] = wal.Op{Table: qw.op.Table, Insert: qw.op.Insert, Delete: qw.op.Delete}
		}
		if err := s.wal.Append(rec); err != nil {
			// Applied to the clone but not logged: acknowledging it would
			// let a crash forget an acknowledged write. Fail the cycle —
			// the clone is discarded unpublished and the served state is
			// unchanged, keeping the log's prefix guarantee intact.
			err = fmt.Errorf("serve: wal append: %w", err)
			for _, qw := range applied {
				qw.res, qw.err = nil, err
			}
			return
		}
	}
	gen := s.publish(next, s.gen.Load().Epoch+1, 1, len(applied), inserted, deleted)
	elapsed := time.Since(start)
	for _, qw := range applied {
		qw.res.Epoch = gen.Epoch
		qw.res.Coalesced = len(applied)
		qw.res.Elapsed = elapsed
	}
	// Advance every pinned query to the new epoch while still holding
	// writeMu: the published graph's delta tracking describes exactly
	// this batch, so eligible subscriptions fold it in O(delta) instead
	// of re-running. This runs after the batch's results are finalized,
	// so the writes stay acknowledged even if a refresh fails.
	s.refreshSubscriptions(gen)
	s.maybeCheckpoint(gen)
}

// applyOps applies a drained batch's ops to next, a private clone, in
// order, and returns the ops that applied with their inserted and
// deleted row counts. A failed op records its error on its queuedWrite
// and leaves the clone exactly as it found it. Live writes (applyBatch)
// and boot-time WAL replay (replayLog) share it, so a replayed record
// takes the validate-then-apply path its live publish took. It panics
// only on a state a bug alone can produce; both callers recover.
func applyOps(next *tag.Graph, batch []*queuedWrite) (applied []*queuedWrite, inserted, deleted int) {
	applied = make([]*queuedWrite, 0, len(batch))
	for _, qw := range batch {
		op := qw.op
		// Validate before mutating, then apply the inserts before the
		// deletes. InsertBatch is the only call that can fail after its
		// validation passed (it fails closed), and it re-validates before
		// touching the graph — so a failed op always leaves the shared
		// clone exactly as it found it, and the rest of the drain
		// publishes untorn. (The previous delete-first order could
		// publish a failed op's deletes.) Within one op the order is
		// immaterial: deletes name vertices that predate the op, never
		// the ones its inserts create. The up-front ValidateDelete runs
		// only for mixed ops, where atomicity needs it settled before the
		// insert applies; a pure-delete op leans on DeleteBatch's own
		// all-or-nothing validation instead of being scanned twice.
		mixed := len(op.Insert) > 0 && len(op.Delete) > 0
		if len(op.Insert) > 0 {
			if qw.err = next.ValidateInsert(op.Table, op.Insert); qw.err != nil {
				continue
			}
		}
		if mixed {
			if qw.err = next.ValidateDelete(op.Delete); qw.err != nil {
				continue
			}
		}
		res := &WriteResult{Deleted: len(op.Delete)}
		if len(op.Insert) > 0 {
			ids, err := insertBatch(next, op.Table, op.Insert)
			if err != nil { // unreachable after ValidateInsert; fail closed
				qw.err = err
				continue
			}
			res.Inserted = ids
		}
		if len(op.Delete) > 0 {
			if err := next.DeleteBatch(op.Delete); err != nil {
				if !mixed {
					// Pure delete: DeleteBatch validated before mutating, so
					// the clone is untouched — skip the op like any other
					// validation failure.
					qw.err = err
					continue
				}
				// Unreachable: a mixed op passed ValidateDelete up front, and
				// inserts cannot invalidate a delete. If it ever fires, the
				// clone already holds this op's inserts, so publishing would
				// tear — abandon the whole cycle (the caller's recover fails
				// it and discards the clone unpublished).
				panic(fmt.Errorf("delete failed after validation: %w", err))
			}
		}
		qw.res = res
		inserted += len(op.Insert)
		deleted += len(op.Delete)
		applied = append(applied, qw)
	}
	return applied, inserted, deleted
}

// insertBatch indirects tag.Graph.InsertBatch so the torn-op regression
// test can inject a failure on the "unreachable after validation" path
// and prove a failed op leaves the shared clone untouched.
var insertBatch = (*tag.Graph).InsertBatch

// InsertBatch publishes rows appended to table.
func (m *Maintainer) InsertBatch(table string, rows []relation.Tuple) (*WriteResult, error) {
	return m.Apply(WriteOp{Table: table, Insert: rows})
}

// DeleteBatch publishes the removal of the given tuple vertices.
func (m *Maintainer) DeleteBatch(ids []bsp.VertexID) (*WriteResult, error) {
	return m.Apply(WriteOp{Delete: ids})
}
