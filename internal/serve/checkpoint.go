package serve

import (
	"fmt"

	"repro/internal/checkpoint"
)

// The checkpointer bounds recovery work: it snapshots a pinned
// generation to an epoch-stamped checkpoint file in the WAL dir and
// then truncates the covered log prefix, so the next boot loads the
// image and replays only the suffix. Everything runs off the write
// path — the snapshot is taken from a pinned (immutable, frozen)
// generation in a background goroutine, and the only write-path cost
// is the due-check under ckptMu after a publish.

// maybeCheckpoint starts a background checkpoint of gen if one is due
// under the periodic policy (Options.CheckpointEvery epochs and/or
// Options.CheckpointBytes of log growth since the last one) and none
// is already in flight. Called by applyBatch right after a publish;
// it never blocks on I/O.
func (s *Server) maybeCheckpoint(gen *Generation) {
	if s.wal == nil {
		return
	}
	every, grow := s.opts.CheckpointEvery, s.opts.CheckpointBytes
	if every <= 0 && grow <= 0 {
		return
	}
	s.ckptMu.Lock()
	due := every > 0 && gen.Epoch >= s.ckptLastEpoch+uint64(every)
	if !due && grow > 0 && s.wal.Stats().Bytes-s.ckptLastBytes >= grow {
		due = true
	}
	if !due || s.ckptInflight {
		s.ckptMu.Unlock()
		return
	}
	s.ckptInflight = true
	s.ckptMu.Unlock()

	// Pin the head generation (it may already be newer than gen — a
	// newer image covers strictly more of the log, so take it) and
	// snapshot it off the write path.
	pinned := s.acquireGen()
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		defer pinned.release()
		_, err := s.checkpointNow(pinned, !s.opts.CheckpointNoTruncate)
		s.ckptMu.Lock()
		if err != nil {
			s.ckptErrors++
		}
		s.ckptInflight = false
		s.ckptMu.Unlock()
	}()
}

// checkpointNow writes a checkpoint of gen's graph and, when truncate
// is set, truncates the WAL prefix it covers. The caller owns the
// inflight flag and the generation pin. Counter updates happen only
// after both steps succeed; a checkpoint that wrote but failed to
// truncate reports the error (the next attempt re-snapshots and
// re-truncates — correctness never depends on truncation happening).
func (s *Server) checkpointNow(gen *Generation, truncate bool) (uint64, error) {
	if _, err := writeCheckpoint(s.opts.WALDir, gen.Graph, gen.Epoch, s.baseFP); err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	if truncate {
		if err := s.wal.TruncatePrefix(gen.Epoch); err != nil {
			return 0, fmt.Errorf("serve: truncating wal after checkpoint: %w", err)
		}
	}
	s.ckptMu.Lock()
	s.ckptCount++
	s.ckptLastEpoch = gen.Epoch
	s.ckptLastBytes = s.wal.Stats().Bytes
	s.ckptMu.Unlock()
	return gen.Epoch, nil
}

// writeCheckpoint indirects checkpoint.Write so tests can hold a
// checkpoint in flight.
var writeCheckpoint = checkpoint.Write

// Checkpoint synchronously snapshots the currently served generation
// into the WAL dir and returns the epoch the image captures. With
// truncate it also drops the covered log prefix (the normal
// compaction step); without it the full log is kept, so even a torn
// or lost checkpoint still boots via full replay. Errors if the
// server is memory-only or a periodic checkpoint is mid-flight.
func (m *Maintainer) Checkpoint(truncate bool) (uint64, error) {
	s := m.s
	if s.wal == nil {
		return 0, fmt.Errorf("serve: checkpoint requires a WAL dir")
	}
	s.ckptMu.Lock()
	if s.ckptInflight {
		s.ckptMu.Unlock()
		return 0, fmt.Errorf("serve: checkpoint already in flight")
	}
	s.ckptInflight = true
	s.ckptMu.Unlock()

	gen := s.acquireGen()
	defer gen.release()
	epoch, err := s.checkpointNow(gen, truncate)
	s.ckptMu.Lock()
	if err != nil {
		s.ckptErrors++
	}
	s.ckptInflight = false
	s.ckptMu.Unlock()
	return epoch, err
}
