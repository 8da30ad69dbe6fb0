package wire

// Snapshot transfer messages: the bulk-bootstrap layer of the binary
// protocol (docs/protocol.md, "Snapshot transfer"). It streams the
// leader's committed prefix — records in ascending sequence order, then
// the ingest session table, then a resume cursor — and bootstrap
// continues with a follow from that cursor. A follow from sequence zero
// would stream the same records, in chunks and without round trips; the
// snapshot is there for two things a follow lacks. Its pinned ceiling
// vouches for the whole prefix, so the replica applies its chunks across
// leader holes without gap probes. And it carries the session table, so
// producers that fail over keep their replay protection. Each message
// travels as one stream frame (stream.go) whose envelope payload is:
//
//	snapshot := op(1) uvarint(id)                               client → server
//	meta     := op(1) uvarint(id) uvarint(ceil)
//	            uvarint(records) uvarint(sessions)              server → client
//	chunk    := op(1) uvarint(id) uvarint(n) record*n           server → client
//	sessions := op(1) uvarint(id) uvarint(n) entry*n            server → client
//	end      := op(1) uvarint(id) uvarint(ceil) string(err)     server → client
//
// id is a client-assigned request identifier (nonzero, shared with the
// query id space on a connection). The server pins ceil — the sequence
// high-water at the moment the snapshot starts — and serves exactly the
// records with sequence numbers below it: meta first, then record
// chunks in ascending sequence order, then the session-table entries
// whose claimed sequence blocks the prefix fully backs, then exactly
// one end. The end's ceil repeats the pinned high-water: it is the
// resume cursor, the MinSeq a follow should continue from so snapshot
// plus delta reconstruct the leader's log with no gap and no overlap.
// The record and session counts in meta are informational sizing hints
// (appends race the snapshot); the end frame is the authority that the
// prefix arrived complete. An end with a nonempty err means the
// snapshot failed or was cancelled and the records received are an
// arbitrary prefix.

import "fmt"

// Snapshot opcodes.
const (
	OpSnapshot         byte = 0x41
	OpSnapshotMeta     byte = 0x42
	OpSnapshotChunk    byte = 0x43
	OpSnapshotSessions byte = 0x44
	OpSnapshotEnd      byte = 0x45
)

// MaxSnapshotChunk bounds the number of records in one snapshot chunk
// frame; together with MaxFrameLen it caps the memory one frame can pin
// on the receiver.
const MaxSnapshotChunk = 1 << 13

// MaxSnapshotSessions bounds the number of session-table entries in one
// sessions frame.
const MaxSnapshotSessions = 1 << 13

// SnapshotMsg is one decoded snapshot protocol message; which fields
// are meaningful depends on Op (see the layout above).
type SnapshotMsg struct {
	Op       byte
	ID       uint64
	Ceil     uint64         // OpSnapshotMeta/OpSnapshotEnd: pinned high-water = resume cursor
	Records  uint64         // OpSnapshotMeta: approximate record count (sizing hint)
	Sessions uint64         // OpSnapshotMeta: approximate session-entry count (sizing hint)
	Recs     []Record       // OpSnapshotChunk
	Entries  []SessionEntry // OpSnapshotSessions
	Err      string         // OpSnapshotEnd: nonempty = the snapshot failed
}

// IsSnapshotOp reports whether op belongs to the snapshot message
// family — the listener's routing test alongside IsQueryOp.
func IsSnapshotOp(op byte) bool {
	return op >= OpSnapshot && op <= OpSnapshotEnd
}

// Snapshot encodes a client snapshot request.
func (e *Encoder) Snapshot(id uint64) {
	e.byte(OpSnapshot)
	e.uvarint(id)
}

// SnapshotMeta encodes the server's snapshot header: the pinned
// sequence high-water and sizing hints for the transfer.
func (e *Encoder) SnapshotMeta(id, ceil, records, sessions uint64) {
	e.byte(OpSnapshotMeta)
	e.uvarint(id)
	e.uvarint(ceil)
	e.uvarint(records)
	e.uvarint(sessions)
}

// SnapshotChunk encodes one batch of snapshot records.
func (e *Encoder) SnapshotChunk(id uint64, recs []Record) {
	e.byte(OpSnapshotChunk)
	e.uvarint(id)
	e.uvarint(uint64(len(recs)))
	for _, r := range recs {
		e.Record(r)
	}
}

// SnapshotSessions encodes one batch of session-table entries.
func (e *Encoder) SnapshotSessions(id uint64, entries []SessionEntry) {
	e.byte(OpSnapshotSessions)
	e.uvarint(id)
	e.uvarint(uint64(len(entries)))
	for _, se := range entries {
		e.SessionEntry(se)
	}
}

// SnapshotEnd encodes the end of a snapshot: the resume cursor, or,
// with a nonempty errMsg, a failure. Over-long messages are truncated
// so the reply always round-trips the codec's string bound.
func (e *Encoder) SnapshotEnd(id, ceil uint64, errMsg string) {
	if len(errMsg) > MaxNameLen {
		errMsg = errMsg[:MaxNameLen]
	}
	e.byte(OpSnapshotEnd)
	e.uvarint(id)
	e.uvarint(ceil)
	e.string(errMsg)
}

// SnapshotMsg decodes one snapshot protocol message.
func (d *Decoder) SnapshotMsg() (SnapshotMsg, error) {
	op, err := d.byte()
	if err != nil {
		return SnapshotMsg{}, err
	}
	m := SnapshotMsg{Op: op}
	if m.ID, err = d.uvarint(); err != nil {
		return SnapshotMsg{}, err
	}
	switch op {
	case OpSnapshot:
		// id only
	case OpSnapshotMeta:
		if m.Ceil, err = d.uvarint(); err != nil {
			return SnapshotMsg{}, err
		}
		if m.Records, err = d.uvarint(); err != nil {
			return SnapshotMsg{}, err
		}
		if m.Sessions, err = d.uvarint(); err != nil {
			return SnapshotMsg{}, err
		}
	case OpSnapshotChunk:
		n, err := d.uvarint()
		if err != nil {
			return SnapshotMsg{}, err
		}
		if n > MaxSnapshotChunk {
			return SnapshotMsg{}, fmt.Errorf("%w: snapshot chunk of %d records", ErrTooLarge, n)
		}
		// Cap the up-front allocation: the claimed count is untrusted
		// and the body may be truncated.
		m.Recs = make([]Record, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			r, err := d.Record()
			if err != nil {
				return SnapshotMsg{}, err
			}
			m.Recs = append(m.Recs, r)
		}
	case OpSnapshotSessions:
		n, err := d.uvarint()
		if err != nil {
			return SnapshotMsg{}, err
		}
		if n > MaxSnapshotSessions {
			return SnapshotMsg{}, fmt.Errorf("%w: snapshot sessions frame of %d entries", ErrTooLarge, n)
		}
		m.Entries = make([]SessionEntry, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			se, err := d.SessionEntry()
			if err != nil {
				return SnapshotMsg{}, err
			}
			m.Entries = append(m.Entries, se)
		}
	case OpSnapshotEnd:
		if m.Ceil, err = d.uvarint(); err != nil {
			return SnapshotMsg{}, err
		}
		if m.Err, err = d.string(); err != nil {
			return SnapshotMsg{}, err
		}
	default:
		return SnapshotMsg{}, ErrBadTag
	}
	return m, nil
}

// DecodeSnapshot is a convenience one-shot snapshot message decoder.
func DecodeSnapshot(env []byte) (SnapshotMsg, error) {
	d, err := NewDecoder(env)
	if err != nil {
		return SnapshotMsg{}, err
	}
	m, err := d.SnapshotMsg()
	if err != nil {
		return SnapshotMsg{}, err
	}
	if err := d.Done(); err != nil {
		return SnapshotMsg{}, err
	}
	return m, nil
}
