package provclient

// Snapshot fetch: the client side of the bulk replica-bootstrap
// transfer (wire/snapshot.go, docs/protocol.md "Snapshot transfer").
// FetchSnapshot streams the leader's committed prefix — records in
// ascending sequence order, then the ingest session table, then the
// resume cursor a follow continues from — over a dedicated connection,
// the same isolation discipline as QueryStream.

import (
	"fmt"
	"io"

	"repro/internal/wire"
)

// SnapshotMeta is the transfer's header: the pinned sequence ceiling
// (which doubles as the follow resume cursor) and sizing hints.
type SnapshotMeta struct {
	Ceil     uint64 // sequence high-water pinned at snapshot start
	Records  uint64 // approximate record count (appends race the snapshot)
	Sessions uint64 // approximate session-entry count
}

// SnapshotPart is one delivery from Next: a record chunk or a batch of
// session-table entries, never both.
type SnapshotPart struct {
	Recs    []wire.Record
	Entries []wire.SessionEntry
}

// SnapshotStream is one running snapshot transfer. Next is not safe
// for concurrent use; Close may race it freely.
type SnapshotStream struct {
	qc   *qconn
	id   uint64
	meta SnapshotMeta

	done   bool
	resume uint64
}

// FetchSnapshot opens a dedicated connection and starts a snapshot
// transfer. The returned stream's Meta is already populated; drain it
// with Next until io.EOF, then Resume is the MinSeq a follow continues
// from. The stream must be Closed when done.
func (c *Client) FetchSnapshot() (*SnapshotStream, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	qc, err := c.dialConn("snapshot")
	if err != nil {
		return nil, err
	}
	ss := &SnapshotStream{qc: qc, id: qc.next()}
	e := wire.NewEncoder()
	e.Snapshot(ss.id)
	if err := qc.send(e.Bytes()); err != nil {
		qc.nc.Close()
		return nil, fmt.Errorf("provclient: sending snapshot request: %w", err)
	}
	// The first frame must be the meta header (or a refusal).
	m, err := ss.next()
	if err != nil {
		qc.nc.Close()
		return nil, err
	}
	if m.Op != wire.OpSnapshotMeta {
		qc.nc.Close()
		return nil, fmt.Errorf("provclient: snapshot opened with opcode %#x, want meta", m.Op)
	}
	ss.meta = SnapshotMeta{Ceil: m.Ceil, Records: m.Records, Sessions: m.Sessions}
	return ss, nil
}

// Meta returns the transfer's header.
func (ss *SnapshotStream) Meta() SnapshotMeta { return ss.meta }

// next decodes one snapshot frame, translating transport-level and
// server-refusal replies into errors.
func (ss *SnapshotStream) next() (wire.SnapshotMsg, error) {
	env, err := ss.qc.read(wire.IsSnapshotOp, "snapshot")
	if err != nil {
		return wire.SnapshotMsg{}, err
	}
	m, err := wire.DecodeSnapshot(env)
	if err != nil {
		return wire.SnapshotMsg{}, err
	}
	if m.ID != ss.id {
		return wire.SnapshotMsg{}, fmt.Errorf("provclient: snapshot frame for unknown id %d", m.ID)
	}
	return m, nil
}

// Next returns the next part of the snapshot: a chunk of records (in
// ascending sequence order, across all chunks) or a batch of
// session-table entries (always after every record). At the end of the
// transfer it returns io.EOF with Resume set; a failed or cancelled
// transfer comes back as *ServerError, and what arrived before it is a
// clean but incomplete prefix.
func (ss *SnapshotStream) Next() (SnapshotPart, error) {
	if ss.done {
		return SnapshotPart{}, io.EOF
	}
	for {
		m, err := ss.next()
		if err != nil {
			return SnapshotPart{}, err
		}
		switch m.Op {
		case wire.OpSnapshotChunk:
			if len(m.Recs) == 0 {
				continue
			}
			return SnapshotPart{Recs: m.Recs}, nil
		case wire.OpSnapshotSessions:
			if len(m.Entries) == 0 {
				continue
			}
			return SnapshotPart{Entries: m.Entries}, nil
		case wire.OpSnapshotEnd:
			ss.done = true
			if m.Err != "" {
				return SnapshotPart{}, &ServerError{Msg: m.Err}
			}
			ss.resume = m.Ceil
			return SnapshotPart{}, io.EOF
		default:
			return SnapshotPart{}, fmt.Errorf("provclient: unexpected snapshot opcode %#x from server", m.Op)
		}
	}
}

// Resume is the sequence a follow continues from, valid once Next has
// returned io.EOF: the snapshot holds every record below it, so a
// follow with MinSeq = Resume makes snapshot + delta the leader's whole
// log with no gap and no overlap.
func (ss *SnapshotStream) Resume() uint64 { return ss.resume }

// Close tears the stream's connection down.
func (ss *SnapshotStream) Close() error { return ss.qc.nc.Close() }
