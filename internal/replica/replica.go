// Package replica is the read-replica subsystem: log-shipping
// replication of one provenance store into another, built on the
// primitives the repo already has — the binary snapshot transfer for
// bootstrap, QueryStream/Follow for the delta, and the leader's global
// sequence spine as the replication log.
//
// The model is classic state-machine replication. The leader alone
// assigns sequence numbers; a Replicator deterministically replays the
// ordered log into a local store.Store, preserving every sequence
// number (store.ApplyReplicated). Because the paper's Definition-3
// audit is a pure function of the totally ordered log, a caught-up
// replica answers every read — queries, follows, audits — with exactly
// the leader's verdicts: reads scale horizontally while writes stay
// single-writer.
//
// Lifecycle. An empty replica bootstraps: one snapshot transfer ships
// the leader's committed prefix plus its ingest session table, O(size)
// bulk bytes rather than a paged re-follow. From the snapshot's resume
// cursor the Replicator follows — an unfiltered live Follow stream from
// the local high-water — applying each chunk and asserting the spine
// stays contiguous. Every applied batch is durable before the next is
// requested, so the local high-water IS the checkpoint: crash, restart
// and resume are the same code path (a non-empty store skips bootstrap
// and follows from where it stopped).
//
// Gaps. A discontinuity in the stream (provclient.SeqGapError, or a
// batch landing above the local high-water) is a typed ErrGap: the
// Replicator re-follows from its durable position, and if the same gap
// persists it probes the leader for the missing range — an empty probe
// proves the leader's own log skips those sequences (a failed append
// consumed them), so the hole is accepted as faithful replication
// rather than data loss. A record that contradicts one the replica
// already holds is ErrDiverged — unrecoverable by construction (the
// stores disagree about committed history) — and stops replication
// rather than silently forking the log.
package replica

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provclient"
	"repro/internal/store"
	"repro/internal/wire"
)

// ErrGap marks a sequence discontinuity in the follow stream — a
// retriable condition the Replicator handles by re-following from its
// durable position (and probing a persistent gap against the leader).
var ErrGap = errors.New("replica: sequence gap in replication stream")

// ErrDiverged marks an unrecoverable conflict: the leader served a
// record the replica already holds with different contents. The two
// logs disagree about committed history; replication stops.
var ErrDiverged = errors.New("replica: local log diverged from leader")

// GapError is a typed ErrGap carrying the discontinuity.
type GapError struct {
	Expected uint64
	Got      uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("replica: gap in replication stream: expected seq %d, got %d", e.Expected, e.Got)
}

// Unwrap lets errors.Is(err, ErrGap) classify a GapError.
func (e *GapError) Unwrap() error { return ErrGap }

// divergedError is a typed ErrDiverged naming the conflicting record.
type divergedError struct {
	seq    uint64
	detail string
}

func (e *divergedError) Error() string {
	return fmt.Sprintf("replica: diverged from leader at seq %d: %s", e.seq, e.detail)
}

func (e *divergedError) Unwrap() error { return ErrDiverged }

// stallPolls is how many consecutive lag polls may observe zero local
// progress while the leader is ahead before the open follow stream is
// presumed wedged and forcibly broken to force a re-follow. A stream
// wedges when its most recent chunk is lost in transit with the
// connection still up: the in-stream gap detector only fires on the
// *next* chunk, which a quiet leader may never send.
const stallPolls = 4

// Options tunes a Replicator.
type Options struct {
	// PollInterval is how often the leader's high-water is probed for
	// the lag metrics (default 2s). Lag observation only; replication
	// itself is push via the follow stream.
	PollInterval time.Duration
	// ResyncBackoff is the delay before re-dialing after a broken
	// stream, failed bootstrap, or detected gap (default 200ms).
	ResyncBackoff time.Duration
	// GapProbeRetries is how many times the same gap must recur before
	// the Replicator probes the leader for the missing range and, if
	// the leader's log genuinely skips it, accepts the hole (default 3).
	GapProbeRetries int
	// Logf, when set, receives replication lifecycle events
	// (bootstrap, re-follow, gaps, divergence).
	Logf func(format string, args ...any)
	// TLS, when set, is the replica's client identity toward the
	// leader: every bootstrap, follow and probe connection dials TLS
	// with it. The certificate must map to a replica-role grant in the
	// leader's auth map — snapshot transfer and the unredacted follow
	// are gated on it.
	TLS *tls.Config
	// Token authenticates cleartext connections to a leader enforcing
	// an auth map without TLS (the -insecure dev shape). Unused when
	// TLS is set.
	Token string
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
	if o.ResyncBackoff <= 0 {
		o.ResyncBackoff = 200 * time.Millisecond
	}
	if o.GapProbeRetries <= 0 {
		o.GapProbeRetries = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Status is a snapshot of a Replicator's state for health and metrics
// surfaces (provd's /healthz and /metrics in replica mode).
type Status struct {
	Leader           string  // leader's binary ingest address
	AppliedSeq       uint64  // local sequence high-water (next seq to apply)
	LeaderSeq        uint64  // leader's high-water at last observation
	LagRecords       uint64  // max(0, LeaderSeq - AppliedSeq)
	LagSeconds       float64 // 0 when caught up at last observation, else time since last caught-up instant
	Bootstraps       uint64  // snapshot bootstraps started
	BootstrapRecords uint64  // records applied from snapshot chunks
	Follows          uint64  // follow streams opened
	AppliedBatches   uint64  // follow chunks applied
	AppliedRecords   uint64  // records applied from follow chunks
	Gaps             uint64  // gap events (stream discontinuities seen)
	GapsAccepted     uint64  // gaps proven to be leader holes and accepted
	StallBreaks      uint64  // wedged follow streams broken by the lag poller
	Diverged         bool    // replication stopped on ErrDiverged
	Running          bool    // the replication loop is alive
	LastError        string  // most recent replication error ("" if none)
}

// Replicator replicates a leader's log into a local store. Start it
// once; it owns the store's write path until Stop.
type Replicator struct {
	st     *store.Store
	leader string
	opts   Options
	c      *provclient.Client

	done chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	qs       *provclient.QueryStream    // current follow stream, for Stop to unblock
	snap     *provclient.SnapshotStream // current bootstrap stream, likewise
	lastErr  string
	diverged bool
	running  bool
	tolerate uint64 // a gap head proven to be a leader hole; accepted once

	leaderSeq        atomic.Uint64
	caughtUp         atomic.Bool
	caughtUpBrokenAt atomic.Int64 // unixnano when lag was first observed after being caught up
	bootstraps       atomic.Uint64
	bootstrapRecords atomic.Uint64
	follows          atomic.Uint64
	appliedBatches   atomic.Uint64
	appliedRecords   atomic.Uint64
	gaps             atomic.Uint64
	gapsAccepted     atomic.Uint64
	stallBreaks      atomic.Uint64
}

// New builds a Replicator shipping leader's log (a binary ingest
// address) into st. The store must have no other writer.
func New(st *store.Store, leader string, opts Options) *Replicator {
	return &Replicator{
		st:     st,
		leader: leader,
		opts:   opts.withDefaults(),
		c:      provclient.New(leader, provclient.Options{TLSConfig: opts.TLS, Token: opts.Token}),
		done:   make(chan struct{}),
	}
}

// Start launches the replication loop (bootstrap if the store is
// empty, then follow) and the lag poller.
func (r *Replicator) Start() {
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()
	r.wg.Add(2)
	go r.run()
	go r.poll()
}

// Stop halts replication and releases every connection. The store is
// left at a durable prefix of the leader's log; a new Replicator over
// the same store resumes exactly there.
func (r *Replicator) Stop() {
	r.mu.Lock()
	select {
	case <-r.done:
		r.mu.Unlock()
		r.wg.Wait()
		return
	default:
		close(r.done)
	}
	// Unblock a Next parked in the follow or snapshot stream.
	if r.qs != nil {
		r.qs.Close()
	}
	if r.snap != nil {
		r.snap.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.c.Close()
	r.mu.Lock()
	r.running = false
	r.mu.Unlock()
}

// Status snapshots the replicator's state.
func (r *Replicator) Status() Status {
	r.mu.Lock()
	lastErr, diverged, running := r.lastErr, r.diverged, r.running
	r.mu.Unlock()
	applied := r.st.NextSeq()
	leaderSeq := r.leaderSeq.Load()
	st := Status{
		Leader:           r.leader,
		AppliedSeq:       applied,
		LeaderSeq:        leaderSeq,
		Bootstraps:       r.bootstraps.Load(),
		BootstrapRecords: r.bootstrapRecords.Load(),
		Follows:          r.follows.Load(),
		AppliedBatches:   r.appliedBatches.Load(),
		AppliedRecords:   r.appliedRecords.Load(),
		Gaps:             r.gaps.Load(),
		GapsAccepted:     r.gapsAccepted.Load(),
		StallBreaks:      r.stallBreaks.Load(),
		Diverged:         diverged,
		Running:          running,
		LastError:        lastErr,
	}
	if leaderSeq > applied {
		st.LagRecords = leaderSeq - applied
	}
	if !r.caughtUp.Load() {
		if at := r.caughtUpBrokenAt.Load(); at > 0 {
			st.LagSeconds = time.Since(time.Unix(0, at)).Seconds()
		}
	}
	return st
}

// setErr records the most recent replication error for Status.
func (r *Replicator) setErr(err error) {
	r.mu.Lock()
	if err == nil {
		r.lastErr = ""
	} else {
		r.lastErr = err.Error()
	}
	r.mu.Unlock()
}

// observeLeader folds a sighting of the leader's high-water into the
// lag bookkeeping. Monotonic: the leader's spine never shrinks, and a
// stale poll racing a fresher follow must not resurrect old lag.
func (r *Replicator) observeLeader(next uint64) {
	for {
		cur := r.leaderSeq.Load()
		if next <= cur {
			break
		}
		if r.leaderSeq.CompareAndSwap(cur, next) {
			break
		}
	}
	r.markProgress()
}

// markProgress recomputes the caught-up flag and the instant lag
// appeared, the basis of the lag_seconds metric.
func (r *Replicator) markProgress() {
	caught := r.st.NextSeq() >= r.leaderSeq.Load()
	was := r.caughtUp.Swap(caught)
	if caught {
		r.caughtUpBrokenAt.Store(0)
	} else if was || r.caughtUpBrokenAt.Load() == 0 {
		r.caughtUpBrokenAt.Store(time.Now().UnixNano())
	}
}

// sleep waits d or until Stop.
func (r *Replicator) sleep(d time.Duration) bool {
	select {
	case <-r.done:
		return false
	case <-time.After(d):
		return true
	}
}

// stopped reports whether Stop has begun. Stop closes done before it
// sweeps the registered streams, so a stream registered after the sweep
// observes done closed here and must close itself — otherwise its
// blocked Next would outlive Stop's wg.Wait forever.
func (r *Replicator) stopped() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// run is the replication loop: bootstrap an empty store, then follow
// forever, re-following after every retriable failure from the durable
// local position — crash, restart and resume are one code path.
func (r *Replicator) run() {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		r.running = false
		r.mu.Unlock()
	}()
	gapStreak := 0
	var lastGap GapError
	for {
		select {
		case <-r.done:
			return
		default:
		}
		if r.st.NextSeq() == 0 {
			if err := r.bootstrap(); err != nil {
				r.setErr(err)
				r.opts.Logf("replica: bootstrap failed (will retry): %v", err)
				if !r.sleep(r.opts.ResyncBackoff) {
					return
				}
				continue
			}
			r.setErr(nil)
		}
		err := r.followOnce()
		switch {
		case err == nil:
			// Clean end (leader drained its stream). Re-follow.
			r.setErr(nil)
		case errors.Is(err, ErrDiverged):
			r.setErr(err)
			r.mu.Lock()
			r.diverged = true
			r.mu.Unlock()
			r.opts.Logf("replica: %v — replication stopped", err)
			return
		case errors.Is(err, ErrGap):
			r.gaps.Add(1)
			r.setErr(err)
			var ge *GapError
			if errors.As(err, &ge) && *ge == lastGap {
				gapStreak++
			} else if ge != nil {
				lastGap, gapStreak = *ge, 1
			}
			if ge != nil && gapStreak >= r.opts.GapProbeRetries {
				// The same gap keeps coming back: ask the leader whether
				// anything exists in [expected, got). An empty probe
				// proves the leader's log skips those sequences — a hole
				// to replicate, not data lost in transit.
				recs, _, perr := r.c.QueryAll(wire.QuerySpec{MinSeq: ge.Expected, CeilSeq: ge.Got, Limit: 1})
				if perr == nil && len(recs) == 0 {
					r.mu.Lock()
					r.tolerate = ge.Got
					r.mu.Unlock()
					r.gapsAccepted.Add(1)
					gapStreak = 0
					r.opts.Logf("replica: leader log skips [%d,%d); accepting hole", ge.Expected, ge.Got)
				}
			}
			r.opts.Logf("replica: %v — re-following from seq %d", err, r.st.NextSeq())
		default:
			r.setErr(err)
			r.opts.Logf("replica: follow ended (%v) — re-following from seq %d", err, r.st.NextSeq())
		}
		if !r.sleep(r.opts.ResyncBackoff) {
			return
		}
	}
}

// bootstrap fetches one snapshot transfer and applies it: record
// chunks as they arrive (each durable before the next is read), then
// the session table. A bootstrap killed mid-transfer leaves a durable
// prefix; the restart skips bootstrap (the store is non-empty) and
// converges by following — O(delta), never a second full transfer.
func (r *Replicator) bootstrap() error {
	ss, err := r.c.FetchSnapshot()
	if err != nil {
		return fmt.Errorf("snapshot fetch: %w", err)
	}
	r.mu.Lock()
	r.snap = ss
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.snap = nil
		r.mu.Unlock()
		ss.Close()
	}()
	if r.stopped() {
		return errors.New("replicator stopping")
	}
	r.bootstraps.Add(1)
	r.observeLeader(ss.Meta().Ceil)
	r.opts.Logf("replica: bootstrapping from %s: ~%d records to seq %d", r.leader, ss.Meta().Records, ss.Meta().Ceil)
	var entries []wire.SessionEntry
	for {
		part, err := ss.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("snapshot stream: %w", err)
		}
		if len(part.Recs) > 0 {
			if err := r.apply(part.Recs, true); err != nil {
				return err
			}
			r.bootstrapRecords.Add(uint64(len(part.Recs)))
		}
		entries = append(entries, part.Entries...)
	}
	if len(entries) > 0 {
		// Install the leader's session table so producers that fail
		// over keep their replay protection. Records first, entries
		// second: an entry is only trustworthy once the store holds
		// every sequence it claims.
		tab := r.st.Sessions()
		tab.Lock()
		err := tab.AppendLocked(entries)
		tab.Unlock()
		if err != nil {
			return fmt.Errorf("installing session table: %w", err)
		}
	}
	r.markProgress()
	r.opts.Logf("replica: bootstrap complete at seq %d (%d records, %d session entries)", r.st.NextSeq(), r.bootstrapRecords.Load(), len(entries))
	return nil
}

// followOnce runs one follow stream from the local high-water until it
// breaks, returning nil only on a clean server-side end. A proven
// leader hole moves the stream's start past it — the stream's own gap
// detector (provclient.SeqGapError) is seeded from MinSeq, so
// re-following from below an accepted hole would just trip it again.
func (r *Replicator) followOnce() error {
	minSeq := r.st.NextSeq()
	r.mu.Lock()
	if r.tolerate > minSeq {
		minSeq = r.tolerate
	}
	r.mu.Unlock()
	qs, err := r.c.Query(wire.QuerySpec{MinSeq: minSeq, Follow: true})
	if err != nil {
		return fmt.Errorf("follow dial: %w", err)
	}
	r.mu.Lock()
	r.qs = qs
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.qs = nil
		r.mu.Unlock()
		qs.Close()
	}()
	if r.stopped() {
		return nil
	}
	r.follows.Add(1)
	for {
		recs, err := qs.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			var ge *provclient.SeqGapError
			if errors.As(err, &ge) {
				return &GapError{Expected: ge.Expected, Got: ge.Got}
			}
			return err
		}
		if err := r.apply(recs, false); err != nil {
			return err
		}
		r.appliedBatches.Add(1)
	}
}

// apply lands one ordered batch in the local store. Records at or
// below the local high-water are verified against what the store holds
// (identical ⇒ harmless replay, dropped; different ⇒ ErrDiverged). A
// batch starting above the high-water is a gap — refused unless it
// came from a snapshot (whose ceiling pins the full prefix) or the gap
// was proven to be a leader hole.
func (r *Replicator) apply(recs []wire.Record, fromSnapshot bool) error {
	next := r.st.NextSeq()
	i := 0
	for i < len(recs) && recs[i].Seq < next {
		have := r.st.ScanGlobal(recs[i].Seq, recs[i].Seq+1, 1)
		if len(have) == 0 {
			return &divergedError{seq: recs[i].Seq, detail: "leader holds a record in a range the local log skips"}
		}
		if have[0] != recs[i] {
			return &divergedError{seq: recs[i].Seq, detail: "local record differs from leader's"}
		}
		i++
	}
	recs = recs[i:]
	if len(recs) == 0 {
		r.markProgress()
		return nil
	}
	if recs[0].Seq > next && !fromSnapshot {
		r.mu.Lock()
		tolerated := r.tolerate == recs[0].Seq
		if tolerated {
			r.tolerate = 0
		}
		r.mu.Unlock()
		if !tolerated {
			return &GapError{Expected: next, Got: recs[0].Seq}
		}
	}
	if err := r.st.ApplyReplicated(recs); err != nil {
		return fmt.Errorf("applying batch at seq %d: %w", recs[0].Seq, err)
	}
	if !fromSnapshot {
		r.appliedRecords.Add(uint64(len(recs)))
	}
	r.observeLeader(recs[len(recs)-1].Seq + 1)
	r.markProgress()
	return nil
}

// poll periodically observes the leader's high-water so lag is
// reported even when no records flow (an idle leader, a broken
// stream).
func (r *Replicator) poll() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.PollInterval)
	defer t.Stop()
	var lastApplied uint64
	stalls := 0
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
		}
		recs, _, err := r.c.QueryAll(wire.QuerySpec{Tail: true, Limit: 1})
		if err != nil || len(recs) == 0 {
			continue
		}
		r.observeLeader(recs[0].Seq + 1)

		// Stall watchdog. The leader is reachable (the probe above just
		// succeeded) and ahead, yet nothing has been applied for several
		// polls: the open follow stream is presumed wedged — its latest
		// chunk lost in transit with the connection still up, a loss the
		// in-stream gap detector cannot see until the leader commits
		// again. Break the stream; the run loop re-follows from the
		// durable high-water.
		applied := r.st.NextSeq()
		if applied < r.leaderSeq.Load() && applied == lastApplied {
			stalls++
			if stalls >= stallPolls {
				stalls = 0
				r.mu.Lock()
				qs := r.qs
				r.mu.Unlock()
				if qs != nil {
					r.stallBreaks.Add(1)
					r.opts.Logf("replica: no progress for %d polls at seq %d (leader %d); breaking follow stream", stallPolls, applied, r.leaderSeq.Load())
					qs.Close()
				}
			}
		} else {
			stalls = 0
		}
		lastApplied = applied
	}
}
