package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/denote"
	"repro/internal/logs"
	"repro/internal/syntax"
	"repro/internal/wire"
)

// Principals returns the principals with at least one shard, sorted.
func (s *Store) Principals() []string {
	out := s.PrincipalsUnsorted()
	sort.Strings(out)
	return out
}

// PrincipalsUnsorted returns the principals with at least one shard in
// arbitrary order — for callers (the query engine's multi-shard merge,
// which re-orders by sequence number anyway) that would pay the sort
// per page or per follow wake-up for nothing.
func (s *Store) PrincipalsUnsorted() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.shards))
	for p := range s.shards {
		out = append(out, p)
	}
	s.mu.RUnlock()
	return out
}

// Len returns the total number of stored records. Served from the
// atomically mirrored per-shard counts, so it takes no stripe lock.
func (s *Store) Len() int {
	s.mu.RLock()
	n := 0
	for _, sh := range s.shards {
		n += int(sh.count.Load())
	}
	s.mu.RUnlock()
	return n
}

// refreshGlobalLocked folds the records appended since the last refresh
// into the cached merge and its value index; the caller holds
// global.mu, which makes this the cache's only writer. The zero-append
// case — an audit service over a quiescent or restarted store — is O(1)
// after the first merge; otherwise a refresh costs O(new records ·
// log(new)) plus one walk of the shard map under the stripes, never a
// from-scratch O(total log) rebuild.
//
// Why the increment is sound: while every stripe is held, no append can
// be mid-flight (sequence numbers are assigned under the acting
// principal's stripe, and the record lands in its shard before that
// stripe is released), so every sequence number a future append will
// use is strictly greater than any record visible now. Consuming each
// shard's unvisited suffix and merging the union by sequence number
// therefore always extends the cached merge monotonically — later
// refreshes can only append records with higher sequence numbers, never
// insert below ones already folded in. (A gap in the visible sequence
// numbers — an append that assigned a number and then failed its disk
// write — is permanently dead for the same reason, so the merge skips
// it exactly as the old full rebuild did.)
//
// Why the references stay valid without the stripes: each shard's recs
// is captured into views under its stripe, and appends only ever write
// past the end of a captured prefix (or into a new backing array once
// the shard outgrows it), so the records a reference names are never
// written again.
func (s *Store) refreshGlobalLocked() {
	g := &s.global
	if s.nextSeq.Load() == g.upTo && g.idx != nil {
		return // quiescent store: no stripe is touched
	}
	// Hold every stripe while collecting: releasing one stripe before
	// locking the next would let an append assign seq N on a visited
	// shard while seq N+1 lands on an unvisited one, merging a log
	// with a hole — a state that never existed, against which a
	// Definition-3 audit could return a wrong verdict. Stripes are
	// always taken in index order here (as in AppendBatch) and singly
	// everywhere else, so this cannot deadlock. The hold is one walk
	// of the shard map and a reference per new record, nothing sorted
	// and no record copied.
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
	type seqRef struct {
		seq uint64
		ref recRef
	}
	var fresh []seqRef
	s.mu.RLock()
	for len(g.views) < len(s.shards) {
		g.views = append(g.views, nil)
	}
	for _, sh := range s.shards {
		if v := g.views[sh.num]; len(v) < len(sh.recs) {
			for p := len(v); p < len(sh.recs); p++ {
				fresh = append(fresh, seqRef{sh.recs[p].Seq, recRef{sh.num, int32(p)}})
			}
			g.views[sh.num] = sh.recs
		}
	}
	s.mu.RUnlock()
	// Re-read the counter under the stripes: everything at or below it
	// is now folded in, so the next quiescent query is the O(1) path.
	target := s.nextSeq.Load()
	for i := range s.stripes {
		s.stripes[i].Unlock()
	}
	slices.SortFunc(fresh, func(a, b seqRef) int { return cmp.Compare(a.seq, b.seq) })
	if g.idx == nil {
		g.idx = make(map[logs.Term][]int32)
	}
	g.refs = slices.Grow(g.refs, len(fresh))
	for _, f := range fresh {
		b := g.views[f.ref.shard][f.ref.pos].Act.B
		g.idx[b] = append(g.idx[b], int32(len(g.refs)))
		g.refs = append(g.refs, f.ref)
	}
	g.upTo = target
}

// ShardLog returns one principal's actions as a log spine (most recent
// action at the head). Note the shard log alone cannot justify
// cross-principal provenance chains; use AuditTerm for Definition-3
// audits.
func (s *Store) ShardLog(principal string) logs.Log {
	return spineOf(s.ScanShardTail(principal, Filter{}, 0, -1))
}

// GlobalLog reconstructs the global monitor log φ: the spine of all
// stored actions in sequence order, most recent first — exactly the log
// a runtime.Net mirroring into this store holds in memory. It builds the
// spine on every call, O(n) time and memory: it is for tests and tools.
// Audits never build it (AuditTerm).
func (s *Store) GlobalLog() logs.Log {
	g := &s.global
	g.mu.Lock()
	s.refreshGlobalLocked()
	acts := make([]logs.Action, len(g.refs))
	for i := range acts {
		acts[i] = g.at(i).Act
	}
	g.mu.Unlock()
	return logs.Spine(acts)
}

// spineOf is the log spine of records given in sequence order.
func spineOf(recs []wire.Record) logs.Log {
	acts := make([]logs.Action, len(recs))
	for i, r := range recs {
		acts[i] = r.Act
	}
	return logs.Spine(acts)
}

// AuditTerm runs the Definition-3 correctness check for one claimed
// value V:κ against the recovered global log: ⟦V:κ⟧ ≼ φ. V may be the
// unknown-channel symbol ? (logs.UnknownT). The decision is
// logs.LeSpine over the cached merge and its value index, under the
// cache's mutex but no stripe. For a genuine claim its cost follows the
// claim and its candidate records, not the log's length. A forged claim
// over a value forwarded again and again is exponential in the claim:
// every candidate path is tried, nothing learned is kept, and the mutex
// — which ScanGlobal and ScanGlobalTail also take — is held throughout.
// A 40-event forged claim over testdata/forwarding-loop.pc runs for
// more than 20 s (ROADMAP item 11).
func (s *Store) AuditTerm(t logs.Term, k syntax.Prov) error {
	s.metrics.Audits.Add(1)
	claim := denote.DenoteTerm(t, k)
	g := &s.global
	g.mu.Lock()
	s.refreshGlobalLocked()
	ok := logs.LeSpine(claim, len(g.refs), func(i int) logs.Action { return g.at(i).Act }, g.idx)
	g.mu.Unlock()
	if !ok {
		s.metrics.AuditFailures.Add(1)
		return fmt.Errorf("store: value %s:(%s) has provenance not justified by the stored log", t, k)
	}
	return nil
}

// Audit checks an annotated value against the recovered global log
// (Definition 3), mirroring runtime.Net.AuditValue on the durable state.
func (s *Store) Audit(v syntax.AnnotatedValue) error {
	return s.AuditTerm(logs.NameT(v.V.Name), v.K)
}
