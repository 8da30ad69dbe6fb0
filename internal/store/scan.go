package store

import (
	"sort"

	"repro/internal/logs"
	"repro/internal/wire"
)

// Bounded scan primitives: the storage half of the query engine
// (internal/query). Each call locks one stripe (or, for the cached
// global merge, its mutex), binary-searches the shard's in-memory indexes to the
// requested sequence window, copies out at most max records, and
// unlocks — so the lock hold and the copy are proportional to the
// examined slice of the narrowest matching index (for single-dimension
// filters, exactly the batch returned), never to the shard. The engine composes these into
// paginated, cursor-stable result sets.

// Filter selects records within a shard scan. The zero Filter matches
// everything.
type Filter struct {
	// Channel, when nonempty, selects snd/rcv records on this channel
	// (served from the shard's channel index).
	Channel string
	// Kind, when KindSet, selects records of one action kind (served
	// from the shard's kind index when Channel is empty).
	Kind    logs.ActKind
	KindSet bool
}

// matches reports whether a record passes the filter (used on top of an
// index walk when both dimensions are constrained).
func (f Filter) matches(r wire.Record) bool {
	if f.KindSet && r.Act.Kind != f.Kind {
		return false
	}
	return true
}

// idxView is one shard's record positions matching a filter's indexed
// dimension, in ascending sequence order; the caller holds the stripe
// lock. direct means positions are the identity (the whole shard).
type idxView struct {
	sh     *shard
	idx    []int32 // nil when direct
	direct bool
}

// view resolves the filter to the narrowest index. Returns ok=false for
// a filter that can match nothing: an out-of-range kind, or a channel
// filter intersected with a kind the channel index never holds (only
// snd/rcv records are channel-indexed) — without the latter shortcut, a
// hostile chan+kind=ift query would walk a whole channel index under
// the stripe lock to return nothing.
func view(sh *shard, f Filter) (idxView, bool) {
	if f.KindSet && (f.Kind < 0 || int(f.Kind) >= len(sh.byKind)) {
		return idxView{}, false
	}
	switch {
	case f.Channel != "":
		if f.KindSet && f.Kind != logs.Snd && f.Kind != logs.Rcv {
			return idxView{}, false
		}
		return idxView{sh: sh, idx: sh.byChan[f.Channel]}, true
	case f.KindSet:
		return idxView{sh: sh, idx: sh.byKind[int(f.Kind)]}, true
	default:
		return idxView{sh: sh, direct: true}, true
	}
}

func (v idxView) len() int {
	if v.direct {
		return len(v.sh.recs)
	}
	return len(v.idx)
}

func (v idxView) seqAt(i int) uint64 {
	if v.direct {
		return v.sh.recs[i].Seq
	}
	return v.sh.recs[v.idx[i]].Seq
}

func (v idxView) recAt(i int) wire.Record {
	if v.direct {
		return v.sh.recs[i]
	}
	return v.sh.recs[v.idx[i]]
}

// window binary-searches the view to the positions holding sequence
// numbers in [from, ceil) — ceil 0 means unbounded. Index entries are
// appended in sequence order, so the view is sorted by seq.
func (v idxView) window(from, ceil uint64) (lo, hi int) {
	lo = sort.Search(v.len(), func(i int) bool { return v.seqAt(i) >= from })
	hi = v.len()
	if ceil > 0 {
		hi = sort.Search(v.len(), func(i int) bool { return v.seqAt(i) >= ceil })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ScanShard copies up to max of one principal's records matching f with
// sequence numbers in [from, ceil), ascending; ceil 0 means unbounded,
// max < 0 means all. The stripe lock is held only for the index search
// and the bounded copy.
func (s *Store) ScanShard(principal string, f Filter, from, ceil uint64, max int) []wire.Record {
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil || max == 0 {
		return nil
	}
	st := s.stripeFor(principal)
	st.Lock()
	defer st.Unlock()
	v, ok := view(sh, f)
	if !ok {
		return nil
	}
	lo, hi := v.window(from, ceil)
	var out []wire.Record
	for i := lo; i < hi; i++ {
		r := v.recAt(i)
		if !f.matches(r) {
			continue
		}
		out = append(out, r)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// ScanShardTail copies the n most recent of one principal's records
// matching f with sequence numbers below ceil (0 = unbounded),
// ascending; n < 0 means all. Like ScanShard, the lock is held for the
// tail only.
func (s *Store) ScanShardTail(principal string, f Filter, ceil uint64, n int) []wire.Record {
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil || n == 0 {
		return nil
	}
	st := s.stripeFor(principal)
	st.Lock()
	defer st.Unlock()
	v, ok := view(sh, f)
	if !ok {
		return nil
	}
	_, hi := v.window(0, ceil)
	var out []wire.Record
	for i := hi - 1; i >= 0; i-- {
		r := v.recAt(i)
		if !f.matches(r) {
			continue
		}
		out = append(out, r)
		if n > 0 && len(out) == n {
			break
		}
	}
	// Collected newest-first; reverse to the ascending order every scan
	// returns.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ScanGlobal copies up to max records of the merged cross-shard view
// with sequence numbers in [from, ceil), ascending; ceil 0 means
// unbounded, max < 0 means all. Served from the incrementally
// maintained global merge, so a bounded page against a quiescent store
// costs a binary search plus the copy, both under the merge's mutex.
func (s *Store) ScanGlobal(from, ceil uint64, max int) []wire.Record {
	if max == 0 {
		return nil
	}
	g := &s.global
	g.mu.Lock()
	defer g.mu.Unlock()
	s.refreshGlobalLocked()
	lo, hi := g.window(from, ceil)
	if max > 0 && hi-lo > max {
		hi = lo + max
	}
	return g.copyOut(lo, hi)
}

// ScanGlobalTail copies the n most recent records of the merged view
// with sequence numbers below ceil (0 = unbounded), ascending; n < 0
// means all.
func (s *Store) ScanGlobalTail(ceil uint64, n int) []wire.Record {
	if n == 0 {
		return nil
	}
	g := &s.global
	g.mu.Lock()
	defer g.mu.Unlock()
	s.refreshGlobalLocked()
	_, hi := g.window(0, ceil)
	lo := 0
	if n >= 0 && hi-n > 0 {
		lo = hi - n
	}
	return g.copyOut(lo, hi)
}

// window binary-searches the merge to the positions holding sequence
// numbers in [from, ceil) — ceil 0 means unbounded; the caller holds
// mu.
func (g *globalCache) window(from, ceil uint64) (lo, hi int) {
	n := len(g.refs)
	lo = sort.Search(n, func(i int) bool { return g.at(i).Seq >= from })
	hi = n
	if ceil > 0 {
		hi = sort.Search(n, func(i int) bool { return g.at(i).Seq >= ceil })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// copyOut copies the merged records at positions [lo, hi); the caller
// holds mu.
func (g *globalCache) copyOut(lo, hi int) []wire.Record {
	if lo == hi {
		return nil
	}
	out := make([]wire.Record, hi-lo)
	for i := range out {
		out[i] = *g.at(lo + i)
	}
	return out
}

// PrincipalCount is one shard's size in Counts.
type PrincipalCount struct {
	Principal string
	Records   int
}

// Counts is the store's cheap size snapshot: per-principal record
// counts plus the global sequence high-water (the next sequence number
// to be assigned). Unlike a scan it takes no stripe lock at all — the
// counts are mirrored atomically on append — so /metrics and
// /principals can poll it at any rate without touching the write path.
type Counts struct {
	Records    int
	NextSeq    uint64
	Principals []PrincipalCount // sorted by principal
}

// Counts snapshots the per-principal record counts and the sequence
// high-water without locking any stripe.
func (s *Store) Counts() Counts {
	s.mu.RLock()
	out := Counts{Principals: make([]PrincipalCount, 0, len(s.shards))}
	for _, sh := range s.shards {
		n := int(sh.count.Load())
		out.Principals = append(out.Principals, PrincipalCount{Principal: sh.principal, Records: n})
		out.Records += n
	}
	s.mu.RUnlock()
	out.NextSeq = s.nextSeq.Load()
	sort.Slice(out.Principals, func(i, j int) bool { return out.Principals[i].Principal < out.Principals[j].Principal })
	return out
}
