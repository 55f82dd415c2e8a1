package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sql"
)

// This file is the pinned-query (subscription) layer: a prepared query
// can be pinned, after which the server maintains its answer across
// generation swaps instead of clients re-running it. For eligible
// queries the maintenance is incremental — after publishing epoch k+1
// the write path folds the batch's delta into the cached epoch-k state
// via core.FoldDelta, re-seeding BSP only from the batch-touched
// vertices — so the per-write cost of a hot pinned query is O(delta),
// not O(graph). Queries the incremental layer cannot maintain (outer
// joins, cyclic plans, subqueries, representative-dependent
// projections) are still pinned, but refreshed by a full cold re-run
// per epoch; both paths are visible in Stats as IncrementalHits vs
// IncrementalFallbacks.
//
// Every refresh happens under the writer lock, immediately after the
// publish that made the new epoch visible, so a subscription's answer
// chain has no holes: epoch k's answer is always derived from epoch
// k-1's state plus exactly that batch (or a cold run of epoch k).

// subscription is one pinned query. The registry key is the statement's
// normalized fingerprint, so textual variants of the same query share
// one subscription; pins counts how many subscribers hold it.
type subscription struct {
	an       *sql.Analysis
	eligible bool
	reason   string // why incremental maintenance is off (eligible == false)

	mu     sync.Mutex
	pins   int
	st     *core.QueryState   // foldable state; nil when ineligible
	epoch  uint64             // epoch answer is valid for
	answer *relation.Relation // canonically sorted rows at epoch
	notify chan struct{}      // closed and replaced on every refresh
}

// SubscribeResult reports a pin: the subscription's fingerprint (the
// handle for polling and unpinning), whether it is maintained
// incrementally, and the current answer.
type SubscribeResult struct {
	FP       string
	Eligible bool
	Reason   string // empty when Eligible
	Epoch    uint64
	Pins     int
	Answer   *relation.Relation
}

// Subscribe pins a query: the server computes its answer now and keeps
// it current across every later write. Pinning an already-pinned
// statement (same fingerprint) adds a pin to the existing subscription
// and returns its current answer without re-running anything.
//
// Subscribe serializes with the write path (it holds the writer lock
// while building the initial state), so the state it installs is
// exactly the served epoch's and the next write folds from it — pins
// are rare and writes are cheap relative to a cold query, so this is
// the simple end of the tradeoff.
func (s *Server) Subscribe(query string) (*SubscribeResult, error) {
	an, fp, _, err := s.prepareFP(query)
	if err != nil {
		return nil, err
	}

	// Fast path: the statement is already pinned.
	s.subMu.Lock()
	if sub, ok := s.subs[fp]; ok {
		s.subMu.Unlock()
		sub.mu.Lock()
		sub.pins++
		res := &SubscribeResult{FP: fp, Eligible: sub.eligible, Reason: sub.reason,
			Epoch: sub.epoch, Pins: sub.pins, Answer: sub.answer}
		sub.mu.Unlock()
		return res, nil
	}
	s.subMu.Unlock()

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	// Re-check under the writer lock: a racing Subscribe may have won.
	s.subMu.Lock()
	if sub, ok := s.subs[fp]; ok {
		s.subMu.Unlock()
		sub.mu.Lock()
		sub.pins++
		res := &SubscribeResult{FP: fp, Eligible: sub.eligible, Reason: sub.reason,
			Epoch: sub.epoch, Pins: sub.pins, Answer: sub.answer}
		sub.mu.Unlock()
		return res, nil
	}
	s.subMu.Unlock()

	gen := s.gen.Load() // stable: we hold writeMu
	sess := core.NewSession(gen.Graph, s.opts.Engine)
	sub := &subscription{an: an, pins: 1, epoch: gen.Epoch,
		notify: make(chan struct{})}
	sub.eligible, sub.reason = sess.IncrementalEligible(an)
	if sub.eligible {
		st, err := sess.BuildState(an, gen.Epoch)
		if err != nil {
			return nil, err
		}
		sub.st, sub.answer = st, st.Answer
	} else {
		out, err := sess.Run(an)
		if err != nil {
			return nil, err
		}
		sub.answer = core.SortCanonical(out)
	}

	s.subMu.Lock()
	s.subs[fp] = sub
	s.subMu.Unlock()
	return &SubscribeResult{FP: fp, Eligible: sub.eligible, Reason: sub.reason,
		Epoch: sub.epoch, Pins: 1, Answer: sub.answer}, nil
}

// Unsubscribe drops one pin from a subscription; the subscription (and
// its maintained state) is removed when the last pin is dropped. It
// reports the remaining pin count, or ok == false for an unknown
// fingerprint.
func (s *Server) Unsubscribe(fp string) (remaining int, ok bool) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	sub, ok := s.subs[fp]
	if !ok {
		return 0, false
	}
	sub.mu.Lock()
	sub.pins--
	remaining = sub.pins
	sub.mu.Unlock()
	if remaining <= 0 {
		delete(s.subs, fp)
	}
	return remaining, true
}

// WaitAnswer long-polls a subscription: it returns as soon as the
// subscription's answer is for an epoch > after (immediately, if it
// already is), or when ctx expires — then with the current answer and
// epoch, which the caller distinguishes by comparing against after.
// ok == false means the fingerprint is not pinned.
func (s *Server) WaitAnswer(ctx context.Context, fp string, after uint64) (answer *relation.Relation, epoch uint64, ok bool) {
	for {
		s.subMu.Lock()
		sub, found := s.subs[fp]
		s.subMu.Unlock()
		if !found {
			return nil, 0, false
		}
		sub.mu.Lock()
		answer, epoch = sub.answer, sub.epoch
		ch := sub.notify
		sub.mu.Unlock()
		if epoch > after {
			return answer, epoch, true
		}
		select {
		case <-ch:
			// refreshed — reload and re-test
		case <-ctx.Done():
			return answer, epoch, true
		}
	}
}

// refreshSubscriptions advances every pinned query to the just-published
// generation. Called by applyBatch under writeMu, right after the swap:
// gen.Graph is the clone the batch was applied to, so its delta
// tracking (armed by tag.Clone) describes exactly the step from epoch-1
// to epoch and core.FoldDelta can fold it. Ineligible subscriptions are
// re-run cold.
//
// With opts.VerifyIncremental set, every folded answer is checked
// byte-identical to a cold re-run of the same epoch; a divergence
// counts Stats.IncrementalMismatches, replaces the answer with the cold
// run's, and rebuilds the foldable state from it — the guard never
// serves an unverified fold.
func (s *Server) refreshSubscriptions(gen *Generation) {
	s.subMu.Lock()
	subs := make([]*subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	if len(subs) == 0 {
		return
	}

	sess := core.NewSession(gen.Graph, s.opts.Engine)
	var hits, falls, mism int64
	for _, sub := range subs {
		answer, outcome, err := s.refreshOne(sess, sub, gen.Epoch)
		if err != nil {
			// The query failed on the new generation (it executed fine when
			// pinned, so this is exceptional). Keep serving the last good
			// answer at its old epoch; the next refresh will rebuild.
			falls++
			continue
		}
		if outcome == core.FoldHit {
			hits++
		} else {
			falls++
		}
		if s.opts.VerifyIncremental && sub.st != nil && outcome == core.FoldHit {
			cold, err := sess.Run(sub.an)
			if err == nil {
				coldSorted := core.SortCanonical(cold)
				if !bytes.Equal(core.CanonicalBytes(answer), core.CanonicalBytes(coldSorted)) {
					mism++
					answer = coldSorted
					if st, err := sess.BuildState(sub.an, gen.Epoch); err == nil {
						sub.st, answer = st, st.Answer
					} else {
						sub.st = nil // stop folding a state we cannot trust
					}
				}
			}
		}
		sub.mu.Lock()
		sub.answer, sub.epoch = answer, gen.Epoch
		close(sub.notify)
		sub.notify = make(chan struct{})
		sub.mu.Unlock()
	}

	s.statsMu.Lock()
	s.stats.IncrementalHits += hits
	s.stats.IncrementalFallbacks += falls
	s.stats.IncrementalMismatches += mism
	s.statsMu.Unlock()
}

// refreshOne advances one subscription to epoch on sess's generation.
func (s *Server) refreshOne(sess *core.Session, sub *subscription, epoch uint64) (*relation.Relation, core.FoldOutcome, error) {
	if sub.st != nil {
		outcome, err := sess.FoldDelta(sub.st, epoch)
		if err != nil {
			return nil, outcome, err
		}
		return sub.st.Answer, outcome, nil
	}
	out, err := sess.Run(sub.an)
	if err != nil {
		return nil, core.FoldFallback, err
	}
	return core.SortCanonical(out), core.FoldFallback, nil
}

// waitBounds clamps a client-requested long-poll wait.
const (
	defaultWait = 10 * time.Second
	maxWait     = 60 * time.Second
)

func clampWait(ms float64) (time.Duration, error) {
	d, err := millis("wait_ms", ms)
	switch {
	case err != nil:
		return 0, err
	case ms < 0:
		return 0, fmt.Errorf("serve: negative wait_ms")
	case ms == 0:
		return defaultWait, nil
	}
	return min(d, maxWait), nil
}
