package store

// The session table is the durable half of the ingest path's
// exactly-once guarantee (docs/protocol.md, "Delivery guarantees").
// Every committed sessioned batch is checkpointed here as one
// wire.SessionEntry frame in <dir>/sessions.log — session, per-session
// batch sequence, and the assigned global sequence block — before its
// ack is written. When a client replays a batch (its connection died
// between write and ack), the ingest listener finds the batch sequence
// in this table and re-acks the original block instead of appending a
// duplicate; because the table is recovered on Open, the window
// survives a provd restart.
//
// Recovery is defensive in the direction that matters: an entry is only
// trusted if every global sequence number it claims is actually present
// in the recovered shards. A checkpoint that outran its records (only
// possible without Options.Fsync, where file contents may hit disk out
// of order) is dropped, so the table can never re-ack data the store
// does not hold; the cost of a dropped entry is one possible duplicate
// on replay — the pre-session behaviour.

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/wire"
)

// sessionLogName is the session-table checkpoint file, at the store root.
const sessionLogName = "sessions.log"

// sessionBlock is the committed sequence block of one batch.
type sessionBlock struct {
	base, count uint64
}

// sessionState is one session's in-memory dedup window.
type sessionState struct {
	maxSeen uint64                  // highest committed batch sequence
	lastUse uint64                  // table clock at the last commit; orders LRU eviction
	entries map[uint64]sessionBlock // committed blocks, keyed by batch sequence
}

// floor returns the lowest batch sequence still inside the window.
func (ss *sessionState) floor(window int) uint64 {
	w := uint64(window)
	if ss.maxSeen <= w {
		return 0
	}
	return ss.maxSeen - w
}

// SessionLookup classifies a dedup probe; see Sessions.LookupLocked.
type SessionLookup int

const (
	// SessionNew: the batch sequence has not been committed — append it.
	SessionNew SessionLookup = iota
	// SessionReplay: the batch sequence was committed — re-ack its block.
	SessionReplay
	// SessionEvicted: the batch sequence left the dedup window; whether
	// it committed is unknowable — fail the request.
	SessionEvicted
)

// Sessions is the store's durable ingest session table. All methods are
// safe for concurrent use; the exported Lock/Unlock pair lets the
// ingest listener hold the table across an entire dedup-lookup →
// append → checkpoint round, which is what makes a replay racing its
// original commit on another connection safe: the second round blocks
// on the mutex and then observes the first round's entries.
type Sessions struct {
	mu     sync.Mutex
	path   string
	dir    string // store root, fsynced after a compaction rename
	f      *os.File
	size   int64
	window int
	maxNum int
	fsync  bool
	frame  []byte // checkpoint scratch buffer, reused under mu
	clock  uint64 // bumped per insert; sessionState.lastUse orders LRU eviction
	m      map[string]*sessionState

	compactBytes int64
	metrics      *Metrics
}

// openSessions recovers the session table from the store root: scan the
// checkpoint log, truncate a torn tail, drop entries whose claimed
// sequence blocks the recovered shards do not fully hold, prune each
// session to the dedup window, and compact the log if it has outgrown
// its live contents.
func (s *Store) openSessions() error {
	t := &Sessions{
		path:         filepath.Join(s.dir, sessionLogName),
		dir:          s.dir,
		window:       s.opts.SessionWindow,
		maxNum:       s.opts.MaxSessions,
		fsync:        s.opts.Fsync,
		compactBytes: s.opts.SessionLogBytes,
		metrics:      &s.metrics,
		m:            make(map[string]*sessionState),
	}
	data, err := os.ReadFile(t.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	pos := 0
	var entries []wire.SessionEntry
	for pos < len(data) {
		se, n, err := wire.ReadSessionFrame(data[pos:])
		if err != nil {
			// A torn or corrupt tail. Unlike segment damage this is safe
			// to truncate unconditionally: a lost checkpoint entry can
			// only widen the replay window (a duplicate on replay), never
			// fabricate an ack for data the store does not hold.
			s.metrics.TruncatedBytes.Add(uint64(len(data) - pos))
			break
		}
		entries = append(entries, se)
		pos += n
	}
	if int64(pos) < int64(len(data)) {
		if err := os.Truncate(t.path, int64(pos)); err != nil {
			return err
		}
	}
	t.size = int64(pos)
	if len(entries) > 0 {
		// Trust an entry only if the store actually holds every sequence
		// it claims (see the package comment above). The probe set is
		// built from the *claims* — bounded by the windowed entries, not
		// the store — so a huge log costs one marking pass, not a
		// presence map of every record.
		needed := make(map[uint64]bool)
		live := entries[:0]
		for _, se := range entries {
			if se.Count == 0 || se.Count > wire.MaxIngestBatch {
				continue // a batch that size never committed; the claim is damage
			}
			live = append(live, se)
			for q := se.Base; q < se.Base+se.Count; q++ {
				needed[q] = false
			}
		}
		for _, sh := range s.shards {
			for _, r := range sh.recs {
				if _, ok := needed[r.Seq]; ok {
					needed[r.Seq] = true
				}
			}
		}
		for _, se := range live {
			backed := true
			for q := se.Base; q < se.Base+se.Count; q++ {
				if !needed[q] {
					backed = false
					break
				}
			}
			if backed {
				t.insert(se)
			}
		}
	}
	t.f, err = os.OpenFile(t.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.sessions = t
	if t.size > t.compactBytes {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.compactLocked()
	}
	return nil
}

// insert records one committed entry in the in-memory window, pruning
// entries that fall off it and evicting the least-recently-used session
// beyond the population cap. The caller holds t.mu (or, during open,
// has exclusive access).
func (t *Sessions) insert(se wire.SessionEntry) {
	t.clock++
	ss := t.m[se.Session]
	if ss == nil {
		ss = &sessionState{entries: make(map[uint64]sessionBlock)}
		t.m[se.Session] = ss
		// Over the cap: evict the coldest session rather than refusing
		// new ones — a fleet of restarting clients mints a fresh random
		// session per process, and a hard cap would eventually turn every
		// new producer away for good. Eviction only costs the evicted
		// (idle) session its replay protection, the pre-session baseline.
		for len(t.m) > t.maxNum {
			coldest, oldest := "", t.clock
			for name, st := range t.m {
				if name != se.Session && st.lastUse < oldest {
					coldest, oldest = name, st.lastUse
				}
			}
			delete(t.m, coldest)
			t.metrics.SessionsEvicted.Add(1)
		}
	}
	ss.lastUse = t.clock
	ss.entries[se.BatchSeq] = sessionBlock{base: se.Base, count: se.Count}
	if se.BatchSeq > ss.maxSeen {
		ss.maxSeen = se.BatchSeq
	}
	// Distinct batch sequences within a window of size W fit W entries,
	// so sweeping only when the map outgrows the window twice over keeps
	// the amortised prune cost O(1) per insert.
	if len(ss.entries) > 2*t.window {
		floor := ss.floor(t.window)
		for seq := range ss.entries {
			if seq <= floor {
				delete(ss.entries, seq)
			}
		}
	}
}

// Lock takes the table mutex. The ingest listener holds it across one
// whole commit round — lookups, the store append, and the checkpoint —
// so a replayed batch serialises against its original commit.
func (t *Sessions) Lock() { t.mu.Lock() }

// Unlock releases the table mutex.
func (t *Sessions) Unlock() { t.mu.Unlock() }

// LookupLocked classifies one (session, batchSeq) probe and, for a
// replay, returns the originally committed block. The caller holds the
// table lock.
func (t *Sessions) LookupLocked(session string, batchSeq uint64) (base, count uint64, res SessionLookup) {
	ss := t.m[session]
	if ss == nil {
		return 0, 0, SessionNew
	}
	if b, ok := ss.entries[batchSeq]; ok {
		return b.base, b.count, SessionReplay
	}
	if batchSeq <= ss.floor(t.window) {
		return 0, 0, SessionEvicted
	}
	return 0, 0, SessionNew
}

// Max returns the highest committed batch sequence of a session (0 if
// the session is unknown). This is what the ingest listener's handshake
// reply carries so a resuming client can trim its replay queue.
func (t *Sessions) Max(session string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ss := t.m[session]; ss != nil {
		return ss.maxSeen
	}
	return 0
}

// AppendLocked durably checkpoints a round's committed entries: one
// frame per entry in one write (and, with the store's fsync option, one
// sync), then the in-memory window. The caller holds the table lock and
// must call this after the batch commit succeeds and before any ack is
// written — the checkpoint-before-ack order is what lets a re-ack after
// restart be trusted.
func (t *Sessions) AppendLocked(entries []wire.SessionEntry) error {
	if len(entries) == 0 {
		return nil
	}
	t.frame = t.frame[:0]
	for _, se := range entries {
		t.frame = wire.AppendSessionFrame(t.frame, se)
	}
	if _, err := t.f.Write(t.frame); err != nil {
		return err
	}
	if t.fsync {
		if err := t.f.Sync(); err != nil {
			return err
		}
	}
	t.size += int64(len(t.frame))
	for _, se := range entries {
		t.insert(se)
	}
	if t.size > t.compactBytes {
		return t.compactLocked()
	}
	return nil
}

// Count returns the number of live sessions.
func (t *Sessions) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Entries returns every live windowed entry, sorted by session then
// batch sequence. This is the snapshot-transfer view of the table: a
// replica that installs these entries (via Lock/AppendLocked/Unlock)
// inherits the leader's replay protection, so a producer that fails
// over to the replica cannot double-append a batch the leader already
// committed.
func (t *Sessions) Entries() []wire.SessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []wire.SessionEntry
	for s, ss := range t.m {
		floor := ss.floor(t.window)
		for seq, b := range ss.entries {
			if seq > floor {
				out = append(out, wire.SessionEntry{Session: s, BatchSeq: seq, Base: b.base, Count: b.count})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		return out[i].BatchSeq < out[j].BatchSeq
	})
	return out
}

// EntryCount returns the number of entries across all dedup windows.
func (t *Sessions) EntryCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ss := range t.m {
		n += len(ss.entries)
	}
	return n
}

// compactLocked rewrites the session log with only the live windowed
// entries (write temp, fsync, rename, fsync dir — the same atomic
// replace discipline as shard compaction), bounding the log at roughly
// window × sessions entries no matter how many rounds have been
// checkpointed. The caller holds the table lock.
func (t *Sessions) compactLocked() error {
	var buf []byte
	sessions := make([]string, 0, len(t.m))
	for s := range t.m {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	for _, s := range sessions {
		ss := t.m[s]
		seqs := make([]uint64, 0, len(ss.entries))
		floor := ss.floor(t.window)
		for seq := range ss.entries {
			if seq > floor {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			b := ss.entries[seq]
			buf = wire.AppendSessionFrame(buf, wire.SessionEntry{Session: s, BatchSeq: seq, Base: b.base, Count: b.count})
		}
	}
	tmp := t.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
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
	if err := os.Rename(tmp, t.path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(t.dir); err != nil {
		return err
	}
	old := t.f
	t.f, err = os.OpenFile(t.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.f = old // keep appending to the (renamed-over) handle rather than losing the table
		return err
	}
	old.Close()
	t.size = int64(len(buf))
	t.metrics.SessionCompactions.Add(1)
	return nil
}

// syncLocked flushes the checkpoint file contents. The caller holds the
// table lock.
func (t *Sessions) syncLocked() error { return t.f.Sync() }

// closeLocked closes the checkpoint file. The caller holds the table lock.
func (t *Sessions) closeLocked() error { return t.f.Close() }

// Sessions returns the store's durable ingest session table.
func (s *Store) Sessions() *Sessions { return s.sessions }
