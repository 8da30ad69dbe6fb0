// Package store is a durable, sharded provenance log store: the global
// monitor log φ of the paper's monitored systems (§3.3), persisted so
// that Definition-3 audits survive process restarts. Only durability is
// on disk: every record and its indexes also live in memory, so a
// store's log is bounded by one machine's memory. Each record is held
// there once, in its shard; the shard indexes and the merged global
// view refer to it by position (docs/operations.md, "Store memory").
//
// Layout. Records are sharded by acting principal; each shard is a
// directory of append-only segment files holding checksummed record
// frames (internal/wire). Every record carries a global sequence number
// assigned at append time, so although storage is per-principal, the
// exact monitored-log spine — the total order of actions the middleware
// observed — is recoverable by merging shards on sequence number. That
// totality matters: the Definition-2 denotation of a value is a chain of
// actions by *different* principals, and the information order ≼ can
// only justify such a chain against a log that still knows the
// cross-principal ordering.
//
// Concurrency. Appends take one of a fixed set of stripe locks chosen by
// principal hash, so concurrent appends by different principals proceed
// in parallel while each shard's segment file sees writes in order.
// Reads snapshot under the same stripes.
//
// Durability. Each record frame is length-prefixed and CRC32C-checksummed;
// recovery scans segments, truncates a torn tail (the expected state
// after a crash mid-append), deduplicates on sequence number (possible
// after a crash mid-compaction) and rebuilds the in-memory indexes. With
// Options.Fsync set, every append is fsynced before returning.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/logs"
	"repro/internal/trust"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrInvalidAction is returned by Append for an action the wire codec
// could not round-trip (over-long names, out-of-range kind tags). Such a
// record must be rejected up front: writing it would produce a frame the
// recovery scan rejects, silently discarding it — and everything after
// it in its segment — on restart.
var ErrInvalidAction = errors.New("store: action not representable on the wire")

// MaxPrincipalLen bounds principal names so the hex-encoded shard
// directory name (6 + 2·len bytes) stays under the common filesystem
// NAME_MAX of 255.
const MaxPrincipalLen = 120

// ErrShardCap is returned by Append when creating a shard for a new
// principal would exceed Options.MaxShards. Each shard holds an open
// file descriptor, so an unbounded principal population (e.g. names
// minted by an untrusted appender) would exhaust the process fd limit.
// The cap is per node: a fleet partitioned by principal
// (docs/operations.md, "Running a partitioned fleet") multiplies the
// principal budget by the leader count, which is the supported way past
// it. Rejections are counted in Stats.ShardCapRejects
// (provd_store_shard_cap_rejects_total).
var ErrShardCap = errors.New("store: shard limit reached")

// validateAction checks that the wire codec can round-trip the action
// and that the store can shard it (an empty principal has no shard key
// to recover under).
func validateAction(a logs.Action) error {
	if a.Kind < logs.Snd || a.Kind > logs.IfF {
		return fmt.Errorf("%w: action kind %d", ErrInvalidAction, a.Kind)
	}
	if a.Principal == "" {
		return fmt.Errorf("%w: empty principal", ErrInvalidAction)
	}
	if a.Principal == trust.RedactedPrincipal {
		// The marker is reserved for query-time redaction; storing it
		// would let an appender forge "a hidden principal acted here"
		// history indistinguishable from genuine policy redactions.
		return fmt.Errorf("%w: reserved principal %q", ErrInvalidAction, a.Principal)
	}
	if len(a.Principal) > MaxPrincipalLen {
		return fmt.Errorf("%w: principal name %d bytes long (max %d)", ErrInvalidAction, len(a.Principal), MaxPrincipalLen)
	}
	for _, t := range [2]logs.Term{a.A, a.B} {
		if t.Kind < logs.TName || t.Kind > logs.TUnknown {
			return fmt.Errorf("%w: term kind %d", ErrInvalidAction, t.Kind)
		}
		if len(t.Name) > wire.MaxNameLen {
			return fmt.Errorf("%w: term name %d bytes long", ErrInvalidAction, len(t.Name))
		}
	}
	return nil
}

// Options configures a store.
type Options struct {
	// Stripes is the number of append lock stripes (default 16, at
	// most maxStripes).
	Stripes int
	// SegmentBytes is the active-segment rotation threshold (default 1
	// MiB). It is checked before a shard's run of records in a batch,
	// never inside one, so a segment may pass it by at most one batch's
	// frames for that shard (at most about 9 KB for a 256-action
	// batch).
	SegmentBytes int64
	// Fsync, when set, syncs the segment file on every append. Durable but
	// slow; provd enables it by default.
	Fsync bool
	// MaxShards caps the number of principals (default 4096); each shard
	// keeps an open file descriptor.
	MaxShards int
	// SessionWindow is the per-session ingest dedup window (default
	// 1024): how many batch sequence numbers behind a session's newest
	// the store still recognises as replays. A dedup lookup classifies a
	// batch older than that as SessionEvicted, and ingest refuses it
	// rather than risk a duplicate, so size the window above a client's
	// maximum in-flight batch count.
	SessionWindow int
	// MaxSessions caps the live ingest session population (default
	// 1024); each session pins a dedup window in memory and in the
	// session log. Beyond the cap the least-recently-committed session
	// is evicted — it loses replay protection (the pre-session
	// baseline), but new producers are never turned away by old churn.
	MaxSessions int
	// SessionLogBytes is the session-log compaction threshold (default
	// 4 MiB): past it the log is rewritten with only the live windowed
	// entries.
	SessionLogBytes int64
}

func (o Options) withDefaults() Options {
	if o.Stripes <= 0 {
		o.Stripes = 16
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.MaxShards <= 0 {
		o.MaxShards = 4096
	}
	if o.SessionWindow <= 0 {
		o.SessionWindow = 1024
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	if o.SessionLogBytes <= 0 {
		o.SessionLogBytes = 4 << 20
	}
	return o
}

// shard holds one principal's records: its segment files and the
// in-memory index rebuilt at open. recs is ordered by sequence number
// and is the only copy of each record the store keeps: the global
// merge refers to it by position (see globalCache). recs only ever
// grows at its end, so any prefix of it, once taken, never changes.
type shard struct {
	principal string
	dir       string
	// num is the shard's dense index among the store's shards, fixed
	// when the shard is created: the global merge's references name a
	// shard by it.
	num    int32
	active *segment
	sealed []string // sealed segment file names, append order
	recs   []wire.Record
	byChan map[string][]int32 // recs indexes per channel name (snd/rcv actions)
	byKind [4][]int32         // recs indexes per ActKind
	// count mirrors len(recs) atomically so size queries (Len, Counts,
	// /metrics, /principals) never need the stripe lock.
	count atomic.Int64
	// compacting serialises compactions of this shard (the heavy I/O
	// runs outside the stripe lock; see Compact).
	compacting bool
	// batchGen and batchNext are the batch writer's scratch, guarded by
	// the stripe: batchGen names the last batch that touched the shard
	// and batchNext links the shards of that batch in order of their
	// first record (see writeBatchLocked).
	batchGen  uint64
	batchNext *shard
}

func (sh *shard) addRec(r wire.Record) {
	if r.Act.Principal == sh.principal {
		r.Act.Principal = sh.principal // one string per shard, not per record
	}
	i := int32(len(sh.recs))
	if n := len(sh.recs); n == cap(sh.recs) && n < 256 {
		// Below 256 elements append doubles, and a store holds
		// thousands of small shards, each up to half empty from its
		// last growth on. Growing by a quarter bounds the spare room at
		// a quarter of the records, for a few more copies of small
		// slices; above 256, append's own growth eases toward a quarter.
		sh.recs = append(slices.Grow([]wire.Record(nil), n+n/4+4), sh.recs...)
	}
	sh.recs = append(sh.recs, r)
	sh.byKind[int(r.Act.Kind)] = append(sh.byKind[int(r.Act.Kind)], i)
	if r.Act.Kind == logs.Snd || r.Act.Kind == logs.Rcv {
		if r.Act.A.Kind == logs.TName {
			sh.byChan[r.Act.A.Name] = append(sh.byChan[r.Act.A.Name], i)
		}
	}
	sh.count.Store(int64(len(sh.recs)))
}

// Store is the sharded, durable provenance log store.
type Store struct {
	dir     string
	opts    Options
	nextSeq atomic.Uint64
	closed  atomic.Bool
	// batchGen numbers batch writes, so a shard's batchGen mark can
	// tell whether the current batch has touched it yet.
	batchGen atomic.Uint64
	// marks guards interleaved batches against a crash mid-batch
	// (marks.go).
	marks batchMarks

	mu     sync.RWMutex // guards the shards map (not shard contents)
	shards map[string]*shard

	stripes []sync.Mutex // shard contents are guarded by their stripe

	// global caches the merged view of all shards (see refreshGlobalLocked):
	// audits against a quiescent store pay the merge once, not per query.
	global globalCache

	// sessions is the durable ingest dedup table (session.go), recovered
	// from sessions.log on Open.
	sessions *Sessions

	// watchers are live append subscriptions (watch.go); hasWatchers
	// keeps the append hot path at one atomic load when nobody follows.
	watchMu     sync.Mutex
	watchers    map[*Watcher]struct{}
	hasWatchers atomic.Bool

	metrics Metrics
}

// globalCache memoises the cross-shard merge keyed on the sequence
// counter: any append bumps the counter and marks it stale. It copies
// no record. refs is the merged log, oldest first, as references into
// views, and views[n] is shard n's recs as captured at the last
// refresh — a prefix of the shard's slice, which appends never change,
// so it is read under mu alone. A reference is a shard number and a
// position, not a pointer: a pointer would keep alive every backing
// array a shard has outgrown. The cache is maintained *incrementally*
// — a shard's captured length says how many of its records are already
// merged, and a refresh folds only the new suffixes in — so a mixed
// append/audit workload pays O(new records) per audit, not O(total
// log). idx is the value index logs.LeSpine decides audits with: each
// B term's ascending positions in refs. See refreshGlobalLocked for the
// invariants. Every field is guarded by mu.
type globalCache struct {
	mu    sync.Mutex
	upTo  uint64 // nextSeq value the cache was built at
	views [][]wire.Record
	refs  []recRef
	idx   map[logs.Term][]int32 // nil until the first refresh
}

// recRef locates one merged record: views[shard][pos].
type recRef struct{ shard, pos int32 }

// at returns the i-th record of the merged log; the caller holds mu.
func (g *globalCache) at(i int) *wire.Record {
	r := g.refs[i]
	return &g.views[r.shard][r.pos]
}

// shardDirName maps a principal to a filesystem-safe shard directory
// name. Lower-case identifier-ish names stay readable; anything else —
// including names with upper-case letters, which would collide with
// their lower-case twins on case-insensitive filesystems — is
// hex-encoded (hex output is lower-case, so encoded names cannot
// collide with plain ones either).
func shardDirName(principal string) string {
	safe := principal != ""
	for _, r := range principal {
		if !(r == '_' || r == '-' || ('a' <= r && r <= 'z') || ('0' <= r && r <= '9')) {
			safe = false
			break
		}
	}
	if safe && len(principal) <= 64 {
		return "shard-" + principal
	}
	return fmt.Sprintf("shard+%x", principal)
}

// recoverInternEntries bounds the names Open shares among recovered
// records; a store with more distinct names keeps a copy of the rest
// per record.
const recoverInternEntries = 1 << 18

// Open opens (creating if needed) a store rooted at dir and recovers all
// shards found there.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Stripes > maxStripes {
		return nil, fmt.Errorf("store: %d stripes, at most %d", opts.Stripes, maxStripes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		shards:  make(map[string]*shard),
		stripes: make([]sync.Mutex, opts.Stripes),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// One decoder and one interner for the whole recovery: recovered
	// records share their channel and value names rather than holding a
	// fresh copy of each. The interner lives until Open returns; its
	// bound caps that transient map, not what the records keep.
	dec := new(wire.Decoder)
	dec.SetInterner(wire.NewInternerLimit(recoverInternEntries))
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard") {
			continue
		}
		sh, err := s.recoverShard(filepath.Join(dir, e.Name()), dec)
		if err != nil {
			return nil, fmt.Errorf("store: recovering %s: %w", e.Name(), err)
		}
		if sh == nil {
			continue
		}
		if prev, dup := s.shards[sh.principal]; dup {
			// Two directories resolving to one principal (a stray backup
			// copy, or a hex twin) must not silently shadow each other:
			// queries and audits would miss whichever shard loses.
			return nil, fmt.Errorf("store: principal %q recovered from both %s and %s; remove one",
				sh.principal, filepath.Base(prev.dir), e.Name())
		}
		s.shards[sh.principal] = sh
	}
	if err := s.openMarks(dec); err != nil {
		return nil, fmt.Errorf("store: recovering batch marks: %w", err)
	}
	maxSeq, haveAny := uint64(0), false
	num := int32(0)
	for _, sh := range s.shards {
		sh.num = num
		num++
		if n := len(sh.recs); n > 0 {
			haveAny = true
			maxSeq = max(maxSeq, sh.recs[n-1].Seq)
		}
	}
	if haveAny {
		s.nextSeq.Store(maxSeq + 1)
	}
	// The session table verifies its entries against the recovered
	// shards, so it must open last.
	if err := s.openSessions(); err != nil {
		return nil, fmt.Errorf("store: recovering session table: %w", err)
	}
	return s, nil
}

// recoverShard rebuilds one shard from its directory: scan segments
// with dec, truncate torn tails, deduplicate sequence numbers and
// reopen the last segment for appending. It returns nil for a shard
// directory with no surviving records and no segments.
func (s *Store) recoverShard(dir string, dec *wire.Decoder) (*shard, error) {
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	sh := &shard{dir: dir, byChan: make(map[string][]int32)}
	var all []wire.Record
	var lastClean int64
	for i, name := range names {
		path := segPath(dir, name)
		var cleanLen int64
		var data []byte
		all, cleanLen, data, err = scanSegment(path, dec, all)
		if err != nil {
			return nil, err
		}
		if int64(len(data)) > cleanLen {
			// A torn tail is expected only in the last segment (the one
			// that was active at the crash); sealed segments are fully
			// synced at rotation, so damage there is bit rot or external
			// meddling — refuse, as Compact does, rather than silently
			// destroying mid-history records.
			if i != len(names)-1 {
				return nil, fmt.Errorf("sealed segment %s damaged at byte %d of %d; refusing to open", name, cleanLen, len(data))
			}
			// Even in the last segment, truncation is only safe for a
			// genuine torn tail: mid-file damage with intact frames after
			// it must not cost those records.
			if !tailIsTorn(data, cleanLen) {
				return nil, fmt.Errorf("segment %s has intact frames after damage at byte %d; refusing to truncate", name, cleanLen)
			}
			s.metrics.TruncatedBytes.Add(uint64(int64(len(data)) - cleanLen))
			if err := truncateSegment(path, cleanLen); err != nil {
				return nil, err
			}
		}
		if i == len(names)-1 {
			lastClean = cleanLen
		}
	}
	if len(all) > 0 {
		sh.principal = all[0].Act.Principal
	} else {
		// Segments exist but hold no records (e.g. a fresh segment created
		// just before a crash): derive the principal from the directory
		// name so the shard can be reused.
		sh.principal = principalFromDir(filepath.Base(dir))
	}
	slices.SortFunc(all, func(a, b wire.Record) int { return cmp.Compare(a.Seq, b.Seq) })
	// A crash mid-compaction leaves a merged copy of records beside
	// their sources; after the sort the copies are neighbours.
	all = slices.CompactFunc(all, func(a, b wire.Record) bool { return a.Seq == b.Seq })
	s.metrics.RecoveredRecords.Add(uint64(len(all)))
	// Rebuild indexes from the sorted, deduplicated records, into a
	// slice of their exact size.
	sh.recs = make([]wire.Record, 0, len(all))
	for _, r := range all {
		sh.addRec(r)
	}
	last := names[len(names)-1]
	sh.sealed = names[:len(names)-1]
	sh.active, err = openSegment(segPath(dir, last), lastClean)
	if err != nil {
		return nil, err
	}
	return sh, nil
}

// principalFromDir inverts shardDirName.
func principalFromDir(name string) string {
	if p, ok := strings.CutPrefix(name, "shard-"); ok {
		return p
	}
	if h, ok := strings.CutPrefix(name, "shard+"); ok {
		var b []byte
		if _, err := fmt.Sscanf(h, "%x", &b); err == nil {
			return string(b)
		}
	}
	return name
}

func (s *Store) stripeIdx(principal string) int {
	// Inline FNV-1a: this sits on the append hot path and the
	// hash.Hash32 version allocates per call.
	h := uint32(2166136261)
	for i := 0; i < len(principal); i++ {
		h ^= uint32(principal[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.stripes)))
}

func (s *Store) stripeFor(principal string) *sync.Mutex {
	return &s.stripes[s.stripeIdx(principal)]
}

// shardFor returns (creating if needed) the shard for a principal. The
// caller must NOT hold the principal's stripe lock.
func (s *Store) shardFor(principal string) (*shard, error) {
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh != nil {
		return sh, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh := s.shards[principal]; sh != nil {
		return sh, nil
	}
	if len(s.shards) >= s.opts.MaxShards {
		s.metrics.ShardCapRejects.Add(1)
		return nil, fmt.Errorf("%w: %d principals", ErrShardCap, len(s.shards))
	}
	dir := filepath.Join(s.dir, shardDirName(principal))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if s.opts.Fsync {
		// Persist the shard directory's own entry in the store root, or
		// a crash could drop the whole fsync-acknowledged shard.
		if err := syncDir(s.dir); err != nil {
			return nil, err
		}
	}
	sh = &shard{principal: principal, dir: dir, num: int32(len(s.shards)), byChan: make(map[string][]int32)}
	s.shards[principal] = sh
	return sh, nil
}

// Append durably appends one action to the store, assigning and returning
// its global sequence number: a batch of one, with AppendBatch's locking,
// durability and failure semantics.
func (s *Store) Append(a logs.Action) (uint64, error) {
	return s.AppendBatch([]logs.Action{a})
}

// rotateLocked seals the active segment (if any) and opens a fresh one
// based at seq; the caller holds the shard's stripe lock.
func (s *Store) rotateLocked(sh *shard, seq uint64) error {
	if sh.active != nil {
		if err := sh.active.sync(); err != nil {
			return err
		}
		if err := sh.active.close(); err != nil {
			return err
		}
		sh.sealed = append(sh.sealed, filepath.Base(sh.active.path))
		sh.active = nil
		s.metrics.Rotations.Add(1)
	}
	g, err := openSegment(segPath(sh.dir, segName(seq)), 0)
	if err != nil {
		return err
	}
	if s.opts.Fsync {
		// Persist the directory entry too, or a crash could drop the new
		// file together with its fsynced records.
		if err := syncDir(sh.dir); err != nil {
			g.close()
			return err
		}
	}
	sh.active = g
	return nil
}

// Sync makes everything appended so far durable: every shard's active
// segment contents plus the directory entries (segment files created by
// rotation and shard directories themselves), so batch-durability users
// (Options.Fsync off) lose at most the appends since the last Sync even
// across rotations and new shards.
func (s *Store) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.syncShards(false); err != nil {
		return err
	}
	s.sessions.mu.Lock()
	err := s.sessions.syncLocked()
	s.sessions.mu.Unlock()
	if err != nil {
		return err
	}
	return syncDir(s.dir)
}

// Close syncs (contents and directory entries, so even Fsync-off stores
// are fully durable after a clean close) and closes all segments.
// Further operations return ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	firstErr := s.syncShards(true)
	if err := s.marks.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.sessions.mu.Lock()
	if err := s.sessions.syncLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.sessions.closeLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.sessions.mu.Unlock()
	if err := syncDir(s.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// syncShards is the whole-store durability barrier behind Sync and
// Close: every shard's active segment and directory synced (and, for
// Close, the segment closed) under all stripes, the shards fanned out
// like a commit's touched segments instead of paid one after another.
//
// The shards are listed after the stripes are taken: a shard created
// and appended between an earlier listing and the lock would be skipped,
// breaking Sync's promise to cover new shards. Every append holds its
// stripe, so once all stripes are held the listing covers every record
// appended so far. Taking the shards-map read lock under the stripes is
// the global refresh's lock order too; shardFor never takes a stripe.
func (s *Store) syncShards(closeSegments bool) error {
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
	defer func() {
		for i := range s.stripes {
			s.stripes[i].Unlock()
		}
	}()
	shards := s.snapshotShards()
	s.metrics.SyncBarriers.Add(1)
	return fanOut(len(shards), func(i int) error {
		sh := shards[i]
		var err error
		if sh.active != nil {
			s.metrics.SegmentSyncs.Add(1)
			err = sh.active.sync()
			if closeSegments {
				if cerr := sh.active.close(); err == nil {
					err = cerr
				}
				sh.active = nil
			}
		}
		if derr := syncDir(sh.dir); err == nil {
			err = derr
		}
		return err
	})
}

// snapshotShards returns the current shards in arbitrary order.
func (s *Store) snapshotShards() []*shard {
	s.mu.RLock()
	out := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		out = append(out, sh)
	}
	s.mu.RUnlock()
	return out
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// NextSeq returns the sequence number the next append will receive.
func (s *Store) NextSeq() uint64 { return s.nextSeq.Load() }
