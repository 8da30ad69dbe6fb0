package store

import (
	"fmt"
	"sort"

	"repro/internal/logs"
	"repro/internal/wire"
)

// AppendBatch durably appends a batch of actions — in slice order, for
// possibly many principals — under one lock round, and returns the
// first assigned sequence number (action i gets base+i; the block is
// contiguous). This is the sink-flush fast path: the runtime pipeline
// drains whatever accumulated during the previous write and hands it
// here, paying one acquisition of each touched stripe and (with
// Options.Fsync) one durability barrier — the touched segments synced
// together, see commitBarrier — instead of one of each per action.
//
// Ordering. Every stripe the batch touches is locked for the whole
// batch, locks taken in index order (the same discipline as the global
// merge, so the two cannot deadlock). Sequence numbers are assigned in
// slice order under those locks, so the store's merged global order —
// which is sequence order — embeds the batch exactly as given: batch
// order on disk ≡ batch order in the caller's log.
//
// Failure. Validation runs before anything is written: an invalid
// action rejects the whole batch untouched. A write failure stops the
// batch at the failing action, leaving records 0..i-1 appended — a
// prefix, never a subset with holes — which is exactly the consistency
// runtime.BatchSink requires. (With Options.Fsync, a failed final sync
// may nonetheless leave some of the batch durable; a retry after such a
// failure can duplicate records, which recovery deduplicates on
// sequence number.)
func (s *Store) AppendBatch(acts []logs.Action) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if len(acts) == 0 {
		return s.nextSeq.Load(), nil
	}
	for i, a := range acts {
		if err := validateAction(a); err != nil {
			// Name the offender: a remote batch appender (the ingest
			// listener) relays this to a client that sent many actions
			// in one request.
			return 0, fmt.Errorf("action %d: %w", i, err)
		}
	}
	// Resolve shards and the stripe set up front: shardFor takes the
	// shards-map lock and must not run under any stripe.
	shards := make(map[string]*shard)
	stripeSet := make(map[int]struct{})
	for _, a := range acts {
		if _, ok := shards[a.Principal]; ok {
			continue
		}
		sh, err := s.shardFor(a.Principal)
		if err != nil {
			return 0, err
		}
		shards[a.Principal] = sh
		stripeSet[s.stripeIdx(a.Principal)] = struct{}{}
	}
	stripes := make([]int, 0, len(stripeSet))
	for i := range stripeSet {
		stripes = append(stripes, i)
	}
	sort.Ints(stripes)
	for _, i := range stripes {
		s.stripes[i].Lock()
	}
	defer func() {
		for _, i := range stripes {
			s.stripes[i].Unlock()
		}
	}()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	base := s.nextSeq.Add(uint64(len(acts))) - uint64(len(acts))
	for i, a := range acts {
		sh := shards[a.Principal]
		r := wire.Record{Seq: base + uint64(i), Act: a}
		if sh.active == nil || sh.active.size >= s.opts.SegmentBytes {
			if err := s.rotateLocked(sh, r.Seq); err != nil {
				return 0, err
			}
		}
		n, err := sh.active.appendRecord(r, false)
		if err != nil {
			return 0, err
		}
		sh.addRec(r)
		s.metrics.Appends.Add(1)
		s.metrics.AppendedBytes.Add(uint64(n))
	}
	if s.opts.Fsync {
		if err := s.commitBarrier(shards); err != nil {
			return 0, err
		}
	}
	s.metrics.BatchAppends.Add(1)
	s.notifyAppend()
	return base, nil
}

// commitBarrier makes a written batch durable: the active segment of
// every shard the batch touched (each entry of shards received at least
// one record) is fsynced, the syncs issued together rather than one
// after another so the filesystem folds them into fewer journal
// commits. The caller holds the shards' stripes.
func (s *Store) commitBarrier(shards map[string]*shard) error {
	segs := make([]*segment, 0, len(shards))
	for _, sh := range shards {
		segs = append(segs, sh.active)
	}
	s.metrics.SyncBarriers.Add(1)
	s.metrics.SegmentSyncs.Add(uint64(len(segs)))
	return fanOut(len(segs), func(i int) error { return segs[i].sync() })
}

// AppendActions adapts AppendBatch to the runtime.BatchSink interface,
// letting a runtime.Net's async pipeline flush whole drained batches
// into the store in one lock round.
func (s *Store) AppendActions(batch []logs.Action) error {
	_, err := s.AppendBatch(batch)
	return err
}
