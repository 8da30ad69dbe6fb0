package cluster

// The merged read plane: a query.Runner over a whole partitioned fleet.
// A coordinator provd wires a Fleet where a single-node provd wires a
// query.Engine, and every read surface on top — the HTTP endpoints, the
// binary query/follow pumps — works unchanged.
//
// Shard reads route: a query naming a principal goes whole to the
// partition leader owning it, cursors passed through verbatim, so the
// answer (records, redaction, pagination, audit inputs) is the owner's
// answer bit for bit. Global reads merge: one fetch per leader feeding
// a query.Merger k-way merge, paginated by vector cursors
// {epoch, pos[leader]} (wire.VectorCursor). The two cursor families are
// disjoint on the wire ("q1." vs "v1."), so a cursor always resumes on
// the plane that minted it — and a vector cursor handed back to a
// shard-routed query is translated to the owner's position rather than
// refused, so a follower that drifted between views still resumes.
//
// Sequence numbers are per-leader. The merged order (seq, leader index)
// is deterministic for a fixed map, agrees with every leader's own
// order, and carries no cross-leader happened-before claim — the
// Definition-3 audit never needs one, because a principal's records all
// live on one leader (docs/architecture.md, "The partition layer").

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/wire"
)

// Fleet serves merged reads over the partition leaders, through the
// routing client's per-leader connections. It implements query.Runner.
type Fleet struct {
	c *Client
}

// NewFleet wires the read plane over a routing client.
func NewFleet(c *Client) *Fleet { return &Fleet{c: c} }

// Map returns the fleet's current partition map.
func (f *Fleet) Map() *Map { return f.c.Map() }

var _ query.Runner = (*Fleet)(nil)

// toSpec maps an engine query to its wire form for a leader.
func toSpec(q query.Query) wire.QuerySpec {
	var lim uint64
	if q.Limit > 0 {
		lim = uint64(q.Limit)
	}
	return wire.QuerySpec{
		Principal: q.Principal,
		Channel:   q.Channel,
		Kind:      q.Kind,
		KindSet:   q.KindSet,
		Observer:  q.Observer,
		MinSeq:    q.MinSeq,
		CeilSeq:   q.CeilSeq,
		Limit:     lim,
		Tail:      q.Tail,
		Cursor:    q.Cursor,
	}
}

// leaderSentinels are the errors a leader reports by message that the
// HTTP surface maps to a status of their own: query-end errors (403 for
// denials, 400 for cursors and queries) and a store's up-front append
// rejections (400 invalid action, 429 shard cap).
var leaderSentinels = []error{
	query.ErrDenied, query.ErrBadCursor, query.ErrBadQuery,
	store.ErrInvalidAction, store.ErrShardCap,
}

// leaderErr recovers the sentinel behind a leader's rejection, so a
// surface over the fleet maps it exactly as one over a local store
// does. Anything else — a transport failure above all — passes through.
func leaderErr(err error) error {
	var se *provclient.ServerError
	if errors.As(err, &se) {
		for _, sentinel := range leaderSentinels {
			if matches(se.Msg, sentinel) {
				return fmt.Errorf("%w (from partition leader)", sentinel)
			}
		}
	}
	return err
}

// matches reports whether a leader's message opens with the sentinel's
// text — after the "action N: " position store.AppendBatch puts in front
// of a batch's validation failure, if there is one.
func matches(msg string, sentinel error) bool {
	if rest, ok := strings.CutPrefix(msg, "action "); ok {
		if _, after, ok := strings.Cut(rest, ": "); ok {
			msg = after
		}
	}
	return strings.HasPrefix(msg, sentinel.Error())
}

// Run serves one page. Single-principal queries route to the owner;
// global queries k-way merge every leader.
func (f *Fleet) Run(q query.Query) (query.Page, error) {
	m := f.c.Map()
	if q.Principal != "" {
		return f.runShard(m, q)
	}
	if q.Tail {
		return f.runTail(m, q)
	}
	return f.runMerged(m, q)
}

// runShard routes a principal-scoped page to its owner. The owner's
// cursor is served back verbatim; a vector cursor (minted by a merged
// or follow walk) is translated to the owner's own position first.
func (f *Fleet) runShard(m *Map, q query.Query) (query.Page, error) {
	owner := m.Owner(q.Principal)
	spec := toSpec(q)
	if wire.IsVectorCursor(q.Cursor) {
		v, err := wire.DecodeVectorCursor(q.Cursor)
		if err != nil {
			return query.Page{}, fmt.Errorf("%w: %v", query.ErrBadCursor, err)
		}
		if v.Epoch != m.Epoch || len(v.Pos) != len(m.Leaders) {
			return query.Page{}, fmt.Errorf("%w: vector cursor from epoch %d/%d leaders, fleet at epoch %d/%d", query.ErrBadCursor, v.Epoch, len(v.Pos), m.Epoch, len(m.Leaders))
		}
		spec.Cursor = ""
		spec.MinSeq = max(spec.MinSeq, v.Pos[owner])
	}
	cl, err := f.c.Leader(m.Leaders[owner].ID)
	if err != nil {
		return query.Page{}, err
	}
	recs, cursor, err := cl.QueryAll(spec)
	if err != nil {
		return query.Page{}, leaderErr(err)
	}
	return query.Page{Records: recs, Cursor: cursor, Snapshot: snapOf(recs)}, nil
}

// runMerged serves one page of the merged global walk.
func (f *Fleet) runMerged(m *Map, q query.Query) (query.Page, error) {
	mg := &query.Merger{Epoch: m.Epoch, Sources: f.sources(m, q)}
	cursor := q.Cursor
	if cursor == "" && q.MinSeq > 0 {
		// Seed every leader's position with the caller's floor; the
		// merger owns all position state from here on.
		pos := make([]uint64, len(m.Leaders))
		for i := range pos {
			pos[i] = q.MinSeq
		}
		cursor = wire.VectorCursor{Epoch: m.Epoch, Pos: pos}.Encode()
	}
	recs, next, err := mg.Page(cursor, q.Limit)
	if err != nil {
		return query.Page{}, err
	}
	return query.Page{Records: recs, Cursor: next, Snapshot: snapOf(recs)}, nil
}

// runTail serves the merged tail as a single page: each leader's own
// tail of the window, merged in (seq, leader) order, trimmed to the
// newest limit. Backward pagination across independent sequence
// counters has no stable meaning, so the merged tail does not paginate;
// walk ?from= forward for history (docs/operations.md).
func (f *Fleet) runTail(m *Map, q query.Query) (query.Page, error) {
	limit := q.Limit
	if limit <= 0 {
		limit = query.DefaultLimit
	}
	spec := toSpec(q)
	spec.Limit = uint64(limit)
	type res struct {
		idx  int
		recs []wire.Record
		err  error
	}
	out := make([]res, len(m.Leaders))
	var wg sync.WaitGroup
	for i, l := range m.Leaders {
		wg.Add(1)
		go func(i int, l Leader) {
			defer wg.Done()
			cl, err := f.c.Leader(l.ID)
			if err != nil {
				out[i] = res{idx: i, err: err}
				return
			}
			recs, _, err := cl.QueryAll(spec)
			out[i] = res{idx: i, recs: recs, err: err}
		}(i, l)
	}
	wg.Wait()
	var merged []wire.Record
	for _, r := range out {
		if r.err != nil {
			return query.Page{}, leaderErr(r.err)
		}
		merged = append(merged, r.recs...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	if len(merged) > limit {
		merged = merged[len(merged)-limit:]
	}
	return query.Page{Records: merged, Snapshot: snapOf(merged)}, nil
}

// sources builds one merge source per leader, capturing the query's
// filters; each Fetch is a bounded remote page.
func (f *Fleet) sources(m *Map, q query.Query) []query.Source {
	srcs := make([]query.Source, len(m.Leaders))
	for i, l := range m.Leaders {
		srcs[i] = &leaderSource{f: f, id: l.ID, spec: toSpec(q)}
	}
	return srcs
}

type leaderSource struct {
	f    *Fleet
	id   string
	spec wire.QuerySpec
}

func (s *leaderSource) Fetch(min uint64, limit int) ([]wire.Record, error) {
	cl, err := s.f.c.Leader(s.id)
	if err != nil {
		return nil, err
	}
	spec := s.spec
	spec.Cursor = ""
	spec.MinSeq = min
	spec.Limit = uint64(limit)
	recs, _, err := cl.QueryAll(spec)
	if err != nil {
		return nil, leaderErr(err)
	}
	return recs, nil
}

// snapOf derives the page's stability bound from what was actually
// served: in a fleet there is no single high-water to promise, so the
// honest bound is one past the highest sequence on the page.
func snapOf(recs []wire.Record) uint64 {
	var hi uint64
	for _, r := range recs {
		if r.Seq >= hi {
			hi = r.Seq + 1
		}
	}
	return hi
}

// FollowStream opens a merged live tail: one follow per relevant leader
// fanned into a single stream. Chunks preserve each leader's order;
// cross-leader interleaving carries no order claim (none exists). The
// follower's cursor is a vector cursor and resumes through Run or a new
// FollowStream on any coordinator with the same epoch.
func (f *Fleet) FollowStream(q query.Query) (query.FollowStream, error) {
	m := f.c.Map()
	width := len(m.Leaders)
	pos := make([]uint64, width)
	for i := range pos {
		pos[i] = q.MinSeq
	}
	spec := toSpec(q)
	spec.Follow = true
	spec.Cursor = ""
	if q.Cursor != "" {
		if !wire.IsVectorCursor(q.Cursor) {
			if q.Principal == "" {
				return nil, fmt.Errorf("%w: a merged follow resumes from a vector cursor", query.ErrBadCursor)
			}
			// A principal-scoped follow may resume from the owner's own
			// cursor, passed through verbatim.
			spec.Cursor = q.Cursor
		} else {
			v, err := wire.DecodeVectorCursor(q.Cursor)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", query.ErrBadCursor, err)
			}
			if v.Epoch != m.Epoch || len(v.Pos) != width {
				return nil, fmt.Errorf("%w: vector cursor from epoch %d/%d leaders, fleet at epoch %d/%d", query.ErrBadCursor, v.Epoch, len(v.Pos), m.Epoch, width)
			}
			copy(pos, v.Pos)
		}
	}

	leaders := m.Leaders
	only := -1
	if q.Principal != "" {
		only = m.Owner(q.Principal)
	}
	ff := &fleetFollower{
		epoch: m.Epoch,
		pos:   pos,
		ch:    make(chan taggedChunk, width),
	}
	for i, l := range leaders {
		if only >= 0 && i != only {
			continue
		}
		cl, err := f.c.Leader(l.ID)
		if err != nil {
			ff.Close()
			return nil, err
		}
		sp := spec
		if sp.Cursor == "" {
			sp.MinSeq = pos[i]
		}
		qs, err := cl.Query(sp)
		if err != nil {
			ff.Close()
			return nil, leaderErr(err)
		}
		ff.streams = append(ff.streams, qs)
		ff.wg.Add(1)
		go ff.pump(i, qs)
	}
	go func() {
		ff.wg.Wait()
		close(ff.ch)
	}()
	return ff, nil
}

type taggedChunk struct {
	idx  int // leader index the records came from
	recs []wire.Record
}

// fleetFollower fans k leader follows into one query.FollowStream.
// NextChunk and Cursor are single-consumer, like every follower.
type fleetFollower struct {
	epoch   uint64
	streams []*provclient.QueryStream
	wg      sync.WaitGroup
	ch      chan taggedChunk

	pos []uint64 // per-leader resume floor, advanced as records deliver
	buf taggedChunk

	closeOnce sync.Once
}

func (ff *fleetFollower) pump(idx int, qs *provclient.QueryStream) {
	defer ff.wg.Done()
	for {
		recs, err := qs.Next()
		if err != nil {
			// io.EOF: the server drained or cancelled this leg. Anything
			// else (connection loss included) also ends the merged follow;
			// the caller resumes from the vector cursor.
			_ = err
			if !errors.Is(err, io.EOF) {
				_ = qs.Close()
			}
			return
		}
		ff.ch <- taggedChunk{idx: idx, recs: recs}
	}
}

// NextChunk delivers up to max records from one leader's next chunk.
func (ff *fleetFollower) NextChunk(max int, stop <-chan struct{}) ([]wire.Record, bool) {
	if max <= 0 {
		max = 1
	}
	for len(ff.buf.recs) == 0 {
		select {
		case tc, ok := <-ff.ch:
			if !ok {
				return nil, false
			}
			ff.buf = tc
		case <-stop:
			return nil, false
		}
	}
	n := min(max, len(ff.buf.recs))
	out := ff.buf.recs[:n]
	ff.buf.recs = ff.buf.recs[n:]
	ff.pos[ff.buf.idx] = out[n-1].Seq + 1
	return out, true
}

// Cursor mints the vector resume cursor at the follower's position.
func (ff *fleetFollower) Cursor() string {
	return wire.VectorCursor{Epoch: ff.epoch, Pos: ff.pos}.Encode()
}

// Close tears down every leg. Pumps blocked in Next are unblocked by
// their connection closing; the fan-in channel closes when all exit.
func (ff *fleetFollower) Close() {
	ff.closeOnce.Do(func() {
		for _, qs := range ff.streams {
			_ = qs.Cancel()
			_ = qs.Close()
		}
	})
}

// --- audit + append routing, for the coordinator's HTTP surface ---

// AuditPrincipals returns the distinct owners of the principals a
// provenance names — the audit router's input (provd's fleet backend).
func (f *Fleet) AuditPrincipals(k syntax.Prov) map[string][]string {
	m := f.c.Map()
	owners := make(map[string][]string)
	var walk func(k syntax.Prov)
	seen := make(map[string]bool)
	walk = func(k syntax.Prov) {
		for _, e := range k {
			if !seen[e.Principal] {
				seen[e.Principal] = true
				id := m.OwnerLeader(e.Principal).ID
				owners[id] = append(owners[id], e.Principal)
			}
			walk(e.ChanProv)
		}
	}
	walk(k)
	return owners
}

// Leaders snapshots the current leader list.
func (f *Fleet) Leaders() []Leader {
	return f.c.Map().Leaders
}

// AppendActions routes a batch through the fleet's write plane — the
// coordinator's HTTP append surface proxies here. A leader's up-front
// rejection comes back as the store sentinel it was.
func (f *Fleet) AppendActions(batch []logs.Action) error {
	return leaderErr(f.c.AppendActions(batch))
}
