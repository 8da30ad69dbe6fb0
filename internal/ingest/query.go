package ingest

// The binary read path: query/follow ops served on the same listener
// (and connections) as ingest. Each OpQuery runs in its own goroutine,
// streaming chunks through the connection's serialised reply writer —
// so queries interleave with ingest acks, pipelining like any other
// request — and ends with exactly one OpQueryEnd carrying the resume
// cursor. A follow keeps streaming until the client cancels
// (OpQueryCancel), the connection ends, or the server drains; its end
// frame carries the cursor where the tail stopped, so a reconnecting
// follower resumes without gaps.
//
// Backpressure is the transport's: a slow query consumer stalls its
// connection's reply writer (and therefore the ingest acks sharing it).
// Clients that tail aggressively should query on a dedicated
// connection — internal/provclient does.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/auth"
	"repro/internal/query"
	"repro/internal/wire"
)

// maxChunkRecs caps records per engine page on the binary path; chunks
// are further split by encoded size (chunkBytes) before framing.
const maxChunkRecs = 4096

// chunkBytes is the target encoded size of one chunk frame — half of
// wire.MaxFrameLen, so even a pathological record census cannot push a
// frame over the stream codec's bound.
const chunkBytes = wire.MaxFrameLen / 2

// connQueries tracks one connection's running queries: their cancel
// signals, a WaitGroup the connection teardown waits on, and a done
// channel that stops every query when the reader exits.
type connQueries struct {
	done    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	running map[uint64]chan struct{}
}

func newConnQueries() *connQueries {
	return &connQueries{done: make(chan struct{}), running: make(map[uint64]chan struct{})}
}

// register reserves a query id, enforcing the per-connection cap.
func (cq *connQueries) register(id uint64, cap int) (chan struct{}, error) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if _, dup := cq.running[id]; dup {
		return nil, fmt.Errorf("query id %d already running", id)
	}
	if len(cq.running) >= cap {
		return nil, fmt.Errorf("connection query cap (%d) reached", cap)
	}
	cancel := make(chan struct{})
	cq.running[id] = cancel
	return cancel, nil
}

// cancel signals a running query; unknown ids are ignored (the query
// may have just ended — its end frame is already on the wire).
func (cq *connQueries) cancel(id uint64) {
	cq.mu.Lock()
	ch, ok := cq.running[id]
	if ok {
		delete(cq.running, id)
	}
	cq.mu.Unlock()
	if ok {
		close(ch)
	}
}

// unregister removes a finished query (a no-op after cancel already
// removed it).
func (cq *connQueries) unregister(id uint64) {
	cq.mu.Lock()
	delete(cq.running, id)
	cq.mu.Unlock()
}

// active reports the number of queries (including follows) currently
// running. A connection must not park while this is nonzero: the
// query goroutines write through the reply encoder parking releases.
func (cq *connQueries) active() int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return len(cq.running)
}

// handleQueryMsg dispatches one query-family message from the reader.
// It reports whether the connection is still trustworthy; per-query
// failures are answered with a query-end error and keep it alive. A
// grant gates the read role and coerces the observer: whatever view the
// caller asked for, it reads as the observer its identity maps to
// (replica-role grants pass through — replication needs the log
// unredacted).
func (s *Server) handleQueryMsg(cq *connQueries, replies *replyWriter, env []byte, grant *auth.Grant) bool {
	m, err := wire.DecodeQuery(env)
	if err != nil {
		return s.closeConn(replies, fmt.Sprintf("bad query message: %v", err))
	}
	switch m.Op {
	case wire.OpQuery:
		if m.ID == 0 {
			return s.closeConn(replies, "query id 0 is reserved")
		}
		if grant != nil {
			if !grant.CanRead() {
				s.queryRejects.Add(1)
				s.opts.Auth.QueryRejects.Add(1)
				msg := fmt.Sprintf("identity %q lacks the read role", grant.Name)
				return replies.send(func(e *wire.Encoder) { e.QueryEnd(m.ID, "", msg) })
			}
			m.Spec.Observer = grant.CoerceObserver(m.Spec.Observer)
		}
		cancel, err := cq.register(m.ID, s.opts.MaxQueriesPerConn)
		if err != nil {
			s.queryRejects.Add(1)
			return replies.send(func(e *wire.Encoder) { e.QueryEnd(m.ID, "", err.Error()) })
		}
		s.queries.Add(1)
		if m.Spec.Follow {
			s.follows.Add(1)
		}
		cq.wg.Add(1)
		go func(id uint64, spec wire.QuerySpec) {
			defer cq.wg.Done()
			defer cq.unregister(id)
			s.runQuery(cq, replies, id, spec, cancel)
		}(m.ID, m.Spec)
		return true
	case wire.OpQueryCancel:
		cq.cancel(m.ID)
		return true
	default:
		// Chunks and ends only flow server → client.
		return s.closeConn(replies, fmt.Sprintf("unexpected query opcode %#x from client", m.Op))
	}
}

// specQuery maps the wire spec to an engine query; the page limit is
// set per call by the pump loops.
func specQuery(spec wire.QuerySpec) query.Query {
	return query.Query{
		Principal: spec.Principal,
		Channel:   spec.Channel,
		Kind:      spec.Kind,
		KindSet:   spec.KindSet,
		Observer:  spec.Observer,
		MinSeq:    spec.MinSeq,
		CeilSeq:   spec.CeilSeq,
		Tail:      spec.Tail,
		Cursor:    spec.Cursor,
	}
}

// estSize approximates a record's encoded size for chunk splitting.
func estSize(r wire.Record) int {
	return 32 + len(r.Act.Principal) + len(r.Act.A.Name) + len(r.Act.B.Name)
}

// maxChunkFrame caps records per chunk frame: the query and snapshot
// codecs' bounds (both 8192).
const maxChunkFrame = min(wire.MaxQueryChunk, wire.MaxSnapshotChunk)

// sendChunks ships recs as one or more chunk frames built by frame —
// query or snapshot chunks — each under maxChunkFrame records and about
// chunkBytes encoded, so no frame outgrows the stream codec's bound.
// sent counts the records shipped; the result reports write success.
func sendChunks(replies *replyWriter, recs []wire.Record, sent *atomic.Uint64, frame func(*wire.Encoder, []wire.Record)) bool {
	for len(recs) > 0 {
		n, bytes := 0, 0
		for n < len(recs) && n < maxChunkFrame {
			sz := estSize(recs[n])
			if n > 0 && bytes+sz > chunkBytes {
				break
			}
			bytes += sz
			n++
		}
		if !replies.send(func(e *wire.Encoder) { frame(e, recs[:n]) }) {
			return false
		}
		sent.Add(uint64(n))
		recs = recs[n:]
	}
	return true
}

// stopped reports whether a running query or snapshot must end early:
// its client cancelled it, the connection's reader is gone (client EOF
// or drain kick), or the server is draining.
func (s *Server) stopped(cq *connQueries, cancel chan struct{}) bool {
	select {
	case <-cancel:
	case <-cq.done:
	case <-s.done:
	default:
		return false
	}
	return true
}

// runQuery executes one query to completion: paginated for a plain
// query, live for a follow. Exactly one end frame terminates it unless
// the connection is already unwritable.
func (s *Server) runQuery(cq *connQueries, replies *replyWriter, id uint64, spec wire.QuerySpec, cancel chan struct{}) {
	q := specQuery(spec)
	if spec.Follow {
		s.runFollow(cq, replies, id, spec, q, cancel)
		return
	}
	remaining := int64(-1) // unbounded: a binary query streams the whole walk
	if spec.Limit > 0 {
		remaining = int64(spec.Limit)
	}
	chunk := func(e *wire.Encoder, recs []wire.Record) { e.QueryChunk(id, recs) }
	cur, msg := spec.Cursor, ""
	// Stopped early, the end frame is best effort but still attempted:
	// the client deserves its resume cursor.
	for !s.stopped(cq, cancel) {
		lim := int64(maxChunkRecs)
		if remaining >= 0 && remaining < lim {
			lim = remaining
		}
		q.Cursor, q.Limit = cur, int(lim)
		page, err := s.engine.Run(q)
		if err != nil {
			s.queryRejects.Add(1)
			cur, msg = "", err.Error()
			break
		}
		if !sendChunks(replies, page.Records, &s.queryRecords, chunk) {
			return
		}
		cur = page.Cursor
		if remaining >= 0 {
			remaining -= int64(len(page.Records))
		}
		if cur == "" || remaining == 0 {
			break
		}
	}
	replies.send(func(e *wire.Encoder) { e.QueryEnd(id, cur, msg) })
}

// runFollow pumps a live tail until cancelled, the connection ends, or
// the server drains; the end frame carries the tail's resume cursor.
func (s *Server) runFollow(cq *connQueries, replies *replyWriter, id uint64, spec wire.QuerySpec, q query.Query, cancel chan struct{}) {
	if spec.Limit > 0 {
		// Tail-backlog size: honoured as given (chunking bounds frames
		// independently, so a backlog larger than one chunk streams in
		// pieces rather than being silently truncated).
		q.Limit = int(min(spec.Limit, uint64(1<<31-1)))
	}
	f, err := s.engine.FollowStream(q)
	if err != nil {
		s.queryRejects.Add(1)
		replies.send(func(e *wire.Encoder) { e.QueryEnd(id, "", err.Error()) })
		return
	}
	defer f.Close()
	// Merge the three stop conditions into the one channel the follower
	// blocks on; qdone bounds the merger goroutine to this query.
	stop := make(chan struct{})
	qdone := make(chan struct{})
	defer close(qdone)
	go func() {
		select {
		case <-cancel:
		case <-cq.done:
		case <-s.done:
		case <-qdone:
		}
		close(stop)
	}()
	chunk := func(e *wire.Encoder, recs []wire.Record) { e.QueryChunk(id, recs) }
	for {
		recs, ok := f.NextChunk(maxChunkRecs, stop)
		if !ok {
			replies.send(func(e *wire.Encoder) { e.QueryEnd(id, f.Cursor(), "") })
			return
		}
		if !sendChunks(replies, recs, &s.queryRecords, chunk) {
			return
		}
	}
}
