package provclient

// Remote queries: the client side of the binary read path. Reads never
// share the pooled, pipelined append connections. QueryAll — a bounded
// walk the client owns from request to end frame — runs on a kept read
// connection: one whose last query ended cleanly goes back to a small
// idle list (at most Options.Conns) instead of being closed, so a
// reader pays the TCP and TLS handshakes once, not per page. Query,
// whose stream the caller holds (a live follow may run for hours, and
// its Close may race Next from another goroutine), dials its own
// connection, as do FetchSnapshot and every follow. This is what makes
// a provd remotely replicable and auditable off-box: Follow the log
// into a local store, replay the Definition-3 audit against the replica.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"repro/internal/wire"
)

// SeqGapError reports a discontinuity in the global sequence spine of
// an unfiltered stream: the server delivered Got where the stream's
// order promised Expected next. The stream is finished (Next returns
// io.EOF afterwards); the error is retriable — reconnect and resume
// from the last applied sequence (LastSeq + 1). A gap that persists
// across retries means the leader's log genuinely skips Expected (a
// failed append consumed the sequence number) or the stream's source
// lost data; internal/replica's Replicator arbitrates between the two.
type SeqGapError struct {
	Expected uint64 // the next sequence the stream promised
	Got      uint64 // the sequence that arrived instead
}

func (e *SeqGapError) Error() string {
	return fmt.Sprintf("provclient: follow-stream sequence gap: expected seq %d, got %d (retriable: resume from last applied)", e.Expected, e.Got)
}

// qconn is one read-path connection: the socket, its stream codec and
// the id of the last request it carried. Ids count upward and are never
// reused on a connection: the server frees a query's id only after
// writing its end frame, so a reused id could be refused as "already
// running" by its own predecessor.
type qconn struct {
	nc  net.Conn
	enc *wire.StreamEncoder
	dec *wire.StreamDecoder
	id  uint64

	replied bool // a frame answering request id has arrived
	settled bool // request id's final frame was read: the stream is at a clean boundary
}

// dialConn dials a read-path connection; what names the request in a
// dial error.
func (c *Client) dialConn(what string) (*qconn, error) {
	nc, err := dial(c.addr, c.opts.DialTimeout, c.opts.TLSConfig, c.opts.Token)
	if err != nil {
		return nil, fmt.Errorf("provclient: %s dial: %w", what, err)
	}
	return &qconn{nc: nc, enc: wire.NewStreamEncoder(nc), dec: wire.NewStreamDecoder(nc)}, nil
}

// next opens the connection's next request and returns its id.
func (qc *qconn) next() uint64 {
	qc.id++
	qc.replied, qc.settled = false, false
	return qc.id
}

// send writes one request envelope.
func (qc *qconn) send(env []byte) error {
	if err := qc.enc.Envelope(env); err != nil {
		return err
	}
	return qc.enc.Flush()
}

// read returns the next frame of the request in flight, whose message
// family is family. An ingest error — the server closing the connection,
// since a read connection sends no ingest requests — comes back as
// *ServerError, and a transport failure as itself.
func (qc *qconn) read(family func(byte) bool, what string) ([]byte, error) {
	env, err := qc.dec.Envelope()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: connection closed before %s end", errConnBroken, what)
		}
		return nil, err
	}
	op, err := wire.PeekOp(env)
	if err != nil {
		return nil, err
	}
	if !family(op) {
		if m, err := wire.DecodeIngest(env); err == nil && m.Op == wire.OpIngestError {
			return nil, &ServerError{Msg: m.Msg}
		}
		return nil, fmt.Errorf("provclient: unexpected opcode %#x on %s stream", op, what)
	}
	qc.replied = true
	return env, nil
}

// exchange runs one request on a kept read connection — taken from the
// idle list, dialed only when the list is empty — and keeps the
// connection again if run read the request's final frame. A kept
// connection may have died while idle (the server restarted, a proxy
// cut it), so a failure on one before any reply to this request arrived
// — the send failed, the read failed, or the server closed it — is
// retried once on a fresh dial: every request here is a read, safe to
// repeat. A failure on a fresh dial is returned as is.
func (c *Client) exchange(what string, run func(*qconn) error) error {
	qc, kept, err := c.takeConn(what)
	if err != nil {
		return err
	}
	err = run(qc)
	if err != nil && kept && !qc.replied {
		qc.nc.Close()
		if qc, err = c.dialConn(what); err != nil {
			return err
		}
		err = run(qc)
	}
	c.keepConn(qc)
	return err
}

// takeConn pops the most recently kept read connection, or dials one
// when none is idle; kept reports which.
func (c *Client) takeConn(what string) (qc *qconn, kept bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		qc = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return qc, true, nil
	}
	c.mu.Unlock()
	qc, err = c.dialConn(what)
	return qc, false, err
}

// keepConn returns a settled connection to the idle list, its stream
// buffers released so that an idle connection costs only its socket
// and TLS state. Any other is closed: one whose request did not end
// cleanly, one past the Options.Conns idle cap, any after Close.
func (c *Client) keepConn(qc *qconn) {
	if qc.settled {
		qc.enc.ReleaseBuffers()
		qc.dec.ReleaseBuffers()
		c.mu.Lock()
		if !c.closed && len(c.idle) < c.opts.Conns {
			c.idle = append(c.idle, qc)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	qc.nc.Close()
}

// QueryStream is one running remote query. Next is not safe for
// concurrent use; Cancel and Close may race Next freely.
type QueryStream struct {
	qc  *qconn
	id  uint64
	wmu sync.Mutex // serialises Cancel's writes

	done    bool
	cursor  string
	pending error // a gap detected mid-chunk, surfaced after its clean prefix

	// Gap detection: only an unfiltered, forward stream promises the
	// dense global spine; a filtered one skips sequences by design.
	checkGaps bool
	expect    uint64 // next sequence the spine promises (valid if expectSet)
	expectSet bool

	last uint64 // highest sequence Next has returned (valid if seen)
	seen bool
}

// Query opens a dedicated connection and starts the query described by
// spec (see wire.QuerySpec: filters, sequence window, observer, limit,
// cursor, tail/follow). The stream must be Closed when done.
func (c *Client) Query(spec wire.QuerySpec) (*QueryStream, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	qc, err := c.dialConn("query")
	if err != nil {
		return nil, err
	}
	qs, err := qc.query(spec)
	if err != nil {
		qc.nc.Close()
		return nil, err
	}
	return qs, nil
}

// query starts spec as the connection's next request.
func (qc *qconn) query(spec wire.QuerySpec) (*QueryStream, error) {
	qs := &QueryStream{qc: qc, id: qc.next()}
	// Only an unfiltered forward walk traverses the dense global spine;
	// filters skip sequences by design and a tail pages newest-first.
	qs.checkGaps = spec.Principal == "" && spec.Channel == "" && !spec.KindSet && !spec.Tail
	if qs.checkGaps && spec.Cursor == "" {
		// A cursor resume's base is opaque; there, the first record
		// seeds the spine and only intra-stream continuity is checked.
		qs.expect, qs.expectSet = spec.MinSeq, true
	}
	e := wire.NewEncoder()
	e.Query(qs.id, spec)
	if err := qc.send(e.Bytes()); err != nil {
		return nil, fmt.Errorf("provclient: sending query: %w", err)
	}
	return qs, nil
}

// Next returns the next chunk of results: records in ascending
// sequence order within the chunk. At the end of the query it returns
// io.EOF (check Cursor for the resume token); a server-side failure
// comes back as *ServerError. For a follow, Next blocks until records
// commit, the follow is Cancelled, or the server drains.
func (qs *QueryStream) Next() ([]wire.Record, error) {
	if qs.pending != nil {
		err := qs.pending
		qs.pending = nil
		return nil, err
	}
	if qs.done {
		return nil, io.EOF
	}
	for {
		env, err := qs.qc.read(wire.IsQueryOp, "query")
		if err != nil {
			return nil, err
		}
		m, err := wire.DecodeQuery(env)
		if err != nil {
			return nil, err
		}
		if m.ID != qs.id {
			return nil, fmt.Errorf("provclient: query frame for unknown query id %d", m.ID)
		}
		switch m.Op {
		case wire.OpQueryChunk:
			if len(m.Recs) == 0 {
				continue // heartbeat-shaped; nothing to surface
			}
			if qs.checkGaps {
				for i, r := range m.Recs {
					if qs.expectSet && r.Seq != qs.expect {
						// The stream can no longer be trusted as the spine;
						// finish it so the caller's retry starts clean. The
						// chunk's clean prefix is still delivered — it is
						// contiguous history the caller should apply before
						// retrying — with the gap surfaced on the next call.
						qs.done = true
						gap := &SeqGapError{Expected: qs.expect, Got: r.Seq}
						if i == 0 {
							return nil, gap
						}
						qs.pending = gap
						qs.last, qs.seen = m.Recs[i-1].Seq, true
						return m.Recs[:i], nil
					}
					qs.expect, qs.expectSet = r.Seq+1, true
				}
			}
			qs.last, qs.seen = m.Recs[len(m.Recs)-1].Seq, true
			return m.Recs, nil
		case wire.OpQueryEnd:
			// The server sends exactly one end per query, error or not:
			// mark the stream finished so a retried Next cannot block on
			// a reply that will never come.
			qs.done, qs.qc.settled = true, true
			if m.Err != "" {
				return nil, &ServerError{Msg: m.Err}
			}
			qs.cursor = m.Cursor
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("provclient: unexpected query opcode %#x from server", m.Op)
		}
	}
}

// Cursor is the query's resume token, valid once Next has returned
// io.EOF: "" means the walk is exhausted; anything else resumes in a
// later Query (same filters) exactly where this one ended — including
// where a cancelled or drained follow stopped.
func (qs *QueryStream) Cursor() string { return qs.cursor }

// LastSeq returns the highest sequence number Next has delivered and
// whether any record has been delivered at all. Unlike Cursor it is
// valid mid-stream — after every Next — which makes it the durable
// checkpoint primitive for replication: persist LastSeq with each
// applied batch and a crashed follower resumes with MinSeq = LastSeq+1,
// never re-reading what it applied and never skipping what it did not.
func (qs *QueryStream) LastSeq() (uint64, bool) { return qs.last, qs.seen }

// Cancel asks the server to end the query (most usefully a live
// follow). Results already in flight still arrive; Next returns io.EOF
// once the server's end frame lands.
func (qs *QueryStream) Cancel() error {
	e := wire.NewEncoder()
	e.QueryCancel(qs.id)
	qs.wmu.Lock()
	defer qs.wmu.Unlock()
	return qs.qc.send(e.Bytes())
}

// Close tears the stream's connection down. A Next blocked in a follow
// is unblocked with an error; prefer Cancel first to collect the
// resume cursor.
func (qs *QueryStream) Close() error { return qs.qc.nc.Close() }

// QueryAll runs a (non-follow) query to completion on a kept read
// connection and returns all its records in ascending sequence order,
// plus the final resume cursor ("" when the walk is exhausted). Tail
// queries page newest-first on the wire; QueryAll reassembles them into
// ascending order.
func (c *Client) QueryAll(spec wire.QuerySpec) ([]wire.Record, string, error) {
	if spec.Follow {
		return nil, "", fmt.Errorf("provclient: QueryAll cannot run a follow; use Query")
	}
	var recs []wire.Record
	var cursor string
	err := c.exchange("query", func(qc *qconn) error {
		qs, err := qc.query(spec)
		if err != nil {
			return err
		}
		for {
			chunk, err := qs.Next()
			if errors.Is(err, io.EOF) {
				cursor = qs.Cursor()
				return nil
			}
			if err != nil {
				return err
			}
			recs = append(recs, chunk...)
		}
	})
	if err != nil {
		return nil, "", err
	}
	if spec.Tail {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	}
	return recs, cursor, nil
}
