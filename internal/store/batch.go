package store

import (
	"fmt"
	"math/bits"

	"repro/internal/logs"
	"repro/internal/wire"
)

// AppendBatch durably appends a batch of actions — in slice order, for
// possibly many principals — under one lock round, and returns the
// first assigned sequence number (action i gets base+i; the block is
// contiguous). It is the one way a record enters the store by
// appending (Append is a batch of one): an ingest commit round or a
// runtime pipeline drain hands its whole batch here, paying one
// acquisition of each touched stripe, one write(2) per touched segment
// (see writeBatchLocked) and (with Options.Fsync) one durability
// barrier — the touched segments synced together, see commitBarrier —
// instead of one of each per action.
//
// Ordering. Every stripe the batch touches is locked for the whole
// batch, locks taken in index order (the same discipline as the global
// merge, so the two cannot deadlock). Sequence numbers are assigned in
// slice order under those locks, so the store's merged global order —
// which is sequence order — embeds the batch exactly as given: batch
// order on disk ≡ batch order in the caller's log.
//
// Failure. Validation runs before anything is written: an invalid
// action rejects the whole batch untouched. A write failure appends
// nothing either: every segment the batch wrote is truncated back, and
// the empty prefix meets runtime.Sink's prefix contract. The
// sequence block is burnt all the same. (With Options.Fsync, a failed
// final sync leaves the batch written and may leave some of it durable;
// a retry after such a failure can duplicate records, which recovery
// deduplicates on sequence number.) A process killed mid-batch leaves
// the batch a prefix or nothing on disk, never a subset with holes (see
// marks.go).
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
	shards := make(map[string]*shard)
	held, err := s.lockBatch(shards, len(acts), func(i int) string { return acts[i].Principal })
	if err != nil {
		return 0, err
	}
	defer s.unlockStripes(held)
	base := s.nextSeq.Add(uint64(len(acts))) - uint64(len(acts))
	if err := s.writeBatchLocked(shards, len(acts), func(i int) wire.Record {
		return wire.Record{Seq: base + uint64(i), Act: acts[i]}
	}); err != nil {
		return 0, err
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

// maxStripes bounds Options.Stripes so a batch's stripe set fits one
// uint64 mask.
const maxStripes = 64

// lockBatch resolves the shard of every principal a batch of n records
// names (principal(i) is record i's) into shards and locks their
// stripes in index order, returning the held stripe set — bit i for
// stripe i — for unlockStripes. Shards are resolved before the first
// stripe is taken: shardFor takes the shards-map lock and must not run
// under any stripe. A store closed meanwhile is reported as ErrClosed
// with nothing held.
func (s *Store) lockBatch(shards map[string]*shard, n int, principal func(int) string) (uint64, error) {
	var held uint64
	for i := 0; i < n; i++ {
		p := principal(i)
		if _, ok := shards[p]; ok {
			continue
		}
		sh, err := s.shardFor(p)
		if err != nil {
			return 0, err
		}
		shards[p] = sh
		held |= 1 << s.stripeIdx(p)
	}
	for m := held; m != 0; m &= m - 1 {
		s.stripes[bits.TrailingZeros64(m)].Lock()
	}
	if s.closed.Load() {
		s.unlockStripes(held)
		return 0, ErrClosed
	}
	return held, nil
}

func (s *Store) unlockStripes(held uint64) {
	for m := held; m != 0; m &= m - 1 {
		s.stripes[bits.TrailingZeros64(m)].Unlock()
	}
}

// maxRetainedBuf bounds the frame buffer a segment keeps between
// batches, so one large replicated batch does not pin its size in
// every shard it touched.
const maxRetainedBuf = 64 << 10

// writeBatchLocked appends the n records of a batch — record(i) is
// record i, the same on every call, and its shard is
// shards[record(i).Act.Principal] — all or nothing. The caller holds
// every touched stripe.
//
// The first walk over the batch encodes each shard's frames into its
// active segment's buffer; a shard whose active segment is full rotates
// there, before any byte of the batch is written, to a segment named
// after its run's first sequence number. Then each touched segment gets
// one write(2), in order of its shard's first record. Only once every
// write has succeeded do the segment sizes advance, and a second walk
// adds the records to the in-memory indexes. A failed write truncates
// every segment this batch wrote back to its size before the batch, so
// the batch leaves nothing behind on disk or in memory.
//
// If the shards interleave, a crash between two writes would leave a
// hole in the batch rather than a prefix, so such a batch first marks
// its range in the mark file, and Open drops what a crash left of it
// (see marks.go).
func (s *Store) writeBatchLocked(shards map[string]*shard, n int, record func(int) wire.Record) error {
	gen := s.batchGen.Add(1)
	var first, last *shard // touched shards, linked through batchNext
	interleaved := false
	for i := 0; i < n; i++ {
		r := record(i)
		sh := shards[r.Act.Principal]
		if sh.batchGen == gen {
			// While the batch is still in runs, last is the shard of
			// the record before this one.
			interleaved = interleaved || sh != last
		} else {
			// Refuse before any segment is written, and before a
			// rotation could seal the torn frame into history.
			if sh.active != nil && sh.active.poisoned {
				return errPoisoned
			}
			if sh.active == nil || sh.active.size >= s.opts.SegmentBytes {
				if err := s.rotateLocked(sh, r.Seq); err != nil {
					return err
				}
			}
			sh.batchGen, sh.batchNext = gen, nil
			sh.active.buf = sh.active.buf[:0]
			if last == nil {
				first = sh
			} else {
				last.batchNext = sh
			}
			last = sh
		}
		g := sh.active
		g.buf = wire.AppendRecordFrameScratch(g.buf, r, g.scratch)
	}
	if interleaved {
		r0 := record(0)
		if err := s.marks.mark(s.stripeIdx(r0.Act.Principal), r0.Seq, record(n-1).Seq, n); err != nil {
			return err
		}
	}
	for sh := first; sh != nil; sh = sh.batchNext {
		if err := sh.active.write(sh.active.buf); err != nil {
			for w := first; w != sh; w = w.batchNext {
				err = w.active.rollback(err)
			}
			return err
		}
	}
	bytes := 0
	for sh := first; sh != nil; sh = sh.batchNext {
		g := sh.active
		g.size += int64(len(g.buf))
		bytes += len(g.buf)
		if cap(g.buf) > maxRetainedBuf {
			g.buf = nil
		}
	}
	for i := 0; i < n; i++ {
		r := record(i)
		shards[r.Act.Principal].addRec(r)
	}
	s.metrics.Appends.Add(uint64(n))
	s.metrics.AppendedBytes.Add(uint64(bytes))
	s.metrics.SegmentWrites.Add(uint64(len(shards)))
	return nil
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

// AppendActions adapts AppendBatch to the runtime.Sink interface,
// letting a runtime.Net's async pipeline flush whole drained batches
// into the store in one lock round.
func (s *Store) AppendActions(batch []logs.Action) error {
	_, err := s.AppendBatch(batch)
	return err
}
