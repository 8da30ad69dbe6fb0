package ingest

// The snapshot transfer path: bulk replica bootstrap served on the same
// listener as ingest and queries (wire/snapshot.go has the frame spec,
// docs/protocol.md the protocol contract). An OpSnapshot pins the
// store's sequence high-water as the snapshot ceiling and streams the
// committed prefix below it — meta, record chunks in ascending sequence
// order via the store's global merge (ScanGlobal), the session-table
// entries that prefix fully backs, then one end frame repeating the
// ceiling as the follow resume cursor. Appends racing the snapshot land
// above the ceiling and are invisible to it; the follow the replica
// starts from the resume cursor picks them up, so snapshot + delta is
// exactly the leader's log.
//
// Snapshots share the query id space and cancel op on a connection:
// OpQueryCancel with a snapshot's id stops it mid-stream with an
// end-frame error, as does a server drain. A partial snapshot is
// explicitly marked failed — the replica keeps the applied prefix
// (every chunk is durable on arrival) and retries; re-bootstrap after a
// partial apply resumes by following, not by re-fetching.

import (
	"fmt"

	"repro/internal/auth"
	"repro/internal/wire"
)

// handleSnapshotMsg dispatches one snapshot-family message from the
// reader, reporting whether the connection is still trustworthy. A
// snapshot ships the whole unredacted log, so a grant must hold the
// replica role — read alone is not enough.
func (s *Server) handleSnapshotMsg(cq *connQueries, replies *replyWriter, env []byte, grant *auth.Grant) bool {
	if s.store == nil {
		return s.closeConn(replies, "coordinator serves no snapshots; bootstrap from a partition leader")
	}
	m, err := wire.DecodeSnapshot(env)
	if err != nil {
		return s.closeConn(replies, fmt.Sprintf("bad snapshot message: %v", err))
	}
	if m.Op != wire.OpSnapshot {
		// Meta, chunks, sessions and ends only flow server → client.
		return s.closeConn(replies, fmt.Sprintf("unexpected snapshot opcode %#x from client", m.Op))
	}
	if m.ID == 0 {
		return s.closeConn(replies, "snapshot id 0 is reserved")
	}
	if grant != nil && !grant.CanReplicate() {
		s.queryRejects.Add(1)
		s.opts.Auth.SnapshotRejects.Add(1)
		msg := fmt.Sprintf("identity %q lacks the replica role", grant.Name)
		return replies.send(func(e *wire.Encoder) { e.SnapshotEnd(m.ID, 0, msg) })
	}
	cancel, err := cq.register(m.ID, s.opts.MaxQueriesPerConn)
	if err != nil {
		s.queryRejects.Add(1)
		return replies.send(func(e *wire.Encoder) { e.SnapshotEnd(m.ID, 0, err.Error()) })
	}
	s.snapshots.Add(1)
	cq.wg.Add(1)
	go func(id uint64) {
		defer cq.wg.Done()
		defer cq.unregister(id)
		s.runSnapshot(cq, replies, id, cancel)
	}(m.ID)
	return true
}

// runSnapshot streams one snapshot transfer: pin the ceiling, page the
// global log below it, then the backed session entries, then the end.
func (s *Server) runSnapshot(cq *connQueries, replies *replyWriter, id uint64, cancel chan struct{}) {
	ceil := s.store.Counts().NextSeq
	// Only entries whose whole claimed block lies under the ceiling are
	// shipped: the snapshot's record prefix must back every entry it
	// installs, or replica recovery would (rightly) drop them.
	var entries []wire.SessionEntry
	for _, se := range s.store.Sessions().Entries() {
		if se.Base+se.Count <= ceil {
			entries = append(entries, se)
		}
	}
	// Sizing hint only; racing appends make the record count approximate.
	total := min(uint64(s.store.Counts().Records), ceil)
	if !replies.send(func(e *wire.Encoder) { e.SnapshotMeta(id, ceil, total, uint64(len(entries))) }) {
		return
	}
	end := func(msg string) { replies.send(func(e *wire.Encoder) { e.SnapshotEnd(id, ceil, msg) }) }
	chunk := func(e *wire.Encoder, recs []wire.Record) { e.SnapshotChunk(id, recs) }
	from := uint64(0)
	for {
		if s.stopped(cq, cancel) {
			end("snapshot cancelled")
			return
		}
		recs := s.store.ScanGlobal(from, ceil, maxChunkRecs)
		if len(recs) == 0 {
			break
		}
		from = recs[len(recs)-1].Seq + 1
		if !sendChunks(replies, recs, &s.snapshotRecords, chunk) {
			return
		}
	}
	for off := 0; off < len(entries); off += wire.MaxSnapshotSessions {
		if s.stopped(cq, cancel) {
			end("snapshot cancelled")
			return
		}
		batch := entries[off:min(off+wire.MaxSnapshotSessions, len(entries))]
		if !replies.send(func(e *wire.Encoder) { e.SnapshotSessions(id, batch) }) {
			return
		}
	}
	end("")
}
