package store

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// Compact merges a shard's sealed segments into a single segment file,
// reclaiming per-file overhead and dropping any duplicate frames left by
// an earlier crash. Records are rewritten strictly in sequence order, so
// the shard's log spine — and therefore every information-order fact
// φ ≼ ψ involving it — is preserved exactly: compaction changes the
// file layout, never the log. The active segment is untouched.
//
// Crash safety: the merged file is written to a temporary name, fsynced,
// then renamed over the oldest sealed segment before the remaining
// sealed segments are removed. A crash between rename and removal leaves
// duplicate records on disk; recovery deduplicates on sequence number.
//
// Concurrency: sealed segments are immutable, so the scan and rewrite
// run without the stripe lock — appends (and the runtime mirror behind
// them) are stalled only for the final rename and list swap. Rotation
// only appends to the sealed list, so the snapshot taken here remains a
// prefix of it; a per-shard flag keeps two compactions of one shard
// from racing on the temp file.
func (s *Store) Compact(principal string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil {
		return nil
	}
	st := s.stripeFor(principal)
	st.Lock()
	if sh.compacting || len(sh.sealed) < 2 {
		st.Unlock()
		return nil
	}
	sh.compacting = true
	names := append([]string(nil), sh.sealed...)
	st.Unlock()
	defer func() {
		st.Lock()
		sh.compacting = false
		st.Unlock()
	}()

	var merged []wire.Record
	seen := make(map[uint64]bool)
	dec := new(wire.Decoder)
	for _, name := range names {
		path := segPath(sh.dir, name)
		recs, cleanLen, data, err := scanSegment(path, dec, nil)
		if err != nil {
			return err
		}
		// A sealed segment must scan clean end to end; compacting past
		// damage would destroy the damaged tail along with the source
		// files. Refuse and leave the segment for the operator.
		if int64(len(data)) != cleanLen {
			return fmt.Errorf("store: sealed segment %s damaged at byte %d of %d; refusing to compact shard %s",
				name, cleanLen, len(data), principal)
		}
		for _, r := range recs {
			if !seen[r.Seq] {
				seen[r.Seq] = true
				merged = append(merged, r)
			}
		}
	}
	tmp := filepath.Join(sh.dir, "compact.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var buf []byte
	scratch := wire.NewEncoder()
	for _, r := range merged {
		buf = wire.AppendRecordFrameScratch(buf[:0], r, scratch)
		if _, err := f.Write(buf); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	dst := names[0]
	st.Lock()
	if err := os.Rename(tmp, segPath(sh.dir, dst)); err != nil {
		st.Unlock()
		os.Remove(tmp)
		return err
	}
	// The rename must be on disk before the merged sources go away, or a
	// crash could persist the removals but not the rename.
	if err := syncDir(sh.dir); err != nil {
		st.Unlock()
		return err
	}
	// The merged file durably holds every record, so update the sealed
	// list before the cleanup removals: if one fails, the shard must not
	// keep referencing already-deleted files (leftovers are deduplicated
	// by sequence number at the next recovery). Segments sealed by
	// rotations since the snapshot stay on the list untouched.
	sh.sealed = append([]string{dst}, sh.sealed[len(names):]...)
	s.metrics.Compactions.Add(1)
	st.Unlock()

	var cleanupErr error
	for _, name := range names[1:] {
		if err := os.Remove(segPath(sh.dir, name)); err != nil && cleanupErr == nil {
			cleanupErr = fmt.Errorf("store: compaction of %s succeeded but cleanup failed: %w", principal, err)
		}
	}
	return cleanupErr
}

// CompactAll compacts every shard.
func (s *Store) CompactAll() error {
	for _, p := range s.Principals() {
		if err := s.Compact(p); err != nil {
			return err
		}
	}
	return nil
}

// SegmentCount reports the number of segment files (sealed + active) a
// principal's shard currently uses.
func (s *Store) SegmentCount(principal string) int {
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil {
		return 0
	}
	st := s.stripeFor(principal)
	st.Lock()
	defer st.Unlock()
	n := len(sh.sealed)
	if sh.active != nil {
		n++
	}
	return n
}
