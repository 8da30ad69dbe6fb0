package store

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// ErrReplicaOrder is returned by ApplyReplicated for a batch that is
// not strictly ascending or that starts below the store's sequence
// high-water: applying it would write a duplicate or reorder the spine,
// and the caller (internal/replica) must decide whether the overlap is
// a harmless replay or divergence.
var ErrReplicaOrder = errors.New("store: replicated batch out of sequence order")

// ApplyReplicated durably appends records that already carry their
// global sequence numbers — the replica apply path. Where Append and
// AppendBatch *assign* sequence numbers from the store's own counter, a
// replica must *preserve* the leader's: the paper's Definition-3 audit
// is a function of the totally ordered log, so a replica is only a
// replica if its spine is the leader's spine, sequence for sequence.
//
// Requirements: records must be strictly ascending in Seq and the first
// must be at or above NextSeq (ErrReplicaOrder otherwise), so a batch
// can never duplicate or reorder what the store already holds. A batch
// starting above NextSeq is allowed — it mirrors a hole in the leader's
// spine (a failed append consumed the sequence number), which a
// faithful replica reproduces rather than papering over.
//
// Locking, writing, durability and failure semantics match AppendBatch:
// every touched stripe is held for the whole batch, one write per
// touched segment, one durability barrier over the touched segments,
// and a write failure applies nothing. The sequence counter advances to
// last+1 only after the whole batch is on disk, so a crashed replica
// resumes from a high-water its shards actually back — a batch a crash
// cut short is a prefix or nothing on disk (marks.go) — and a failed
// batch can be retried as is.
//
// ApplyReplicated must not race local Append/AppendBatch callers: a
// replica store has exactly one writer, its Replicator. (The counter
// advance is a CAS-max, so a race corrupts nothing — but interleaved
// local appends would claim sequence numbers the leader will also
// assign, which is divergence by construction.)
func (s *Store) ApplyReplicated(recs []wire.Record) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(recs) == 0 {
		return nil
	}
	for i, r := range recs {
		if err := validateAction(r.Act); err != nil {
			return fmt.Errorf("record %d (seq %d): %w", i, r.Seq, err)
		}
		if i > 0 && r.Seq <= recs[i-1].Seq {
			return fmt.Errorf("%w: seq %d after %d", ErrReplicaOrder, r.Seq, recs[i-1].Seq)
		}
	}
	shards := make(map[string]*shard)
	held, err := s.lockBatch(shards, len(recs), func(i int) string { return recs[i].Act.Principal })
	if err != nil {
		return err
	}
	defer s.unlockStripes(held)
	if next := s.nextSeq.Load(); recs[0].Seq < next {
		return fmt.Errorf("%w: batch starts at seq %d, store high-water is %d", ErrReplicaOrder, recs[0].Seq, next)
	}
	if err := s.writeBatchLocked(shards, len(recs), func(i int) wire.Record { return recs[i] }); err != nil {
		return err
	}
	if s.opts.Fsync {
		if err := s.commitBarrier(shards); err != nil {
			return err
		}
	}
	// CAS-max rather than Store: monotonic even if a misbehaving local
	// appender races (see the contract above).
	last := recs[len(recs)-1].Seq
	for {
		cur := s.nextSeq.Load()
		if last+1 <= cur || s.nextSeq.CompareAndSwap(cur, last+1) {
			break
		}
	}
	s.metrics.BatchAppends.Add(1)
	s.notifyAppend()
	return nil
}
