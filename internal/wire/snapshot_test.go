package wire

import (
	"errors"
	"testing"

	"repro/internal/logs"
)

func TestSnapshotRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Snapshot(7)
	m, err := DecodeSnapshot(e.Bytes())
	if err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if m.Op != OpSnapshot || m.ID != 7 {
		t.Fatalf("request decoded as %+v", m)
	}

	e.Reset()
	e.SnapshotMeta(7, 1000, 998, 3)
	m, err = DecodeSnapshot(e.Bytes())
	if err != nil {
		t.Fatalf("decode meta: %v", err)
	}
	if m.Op != OpSnapshotMeta || m.ID != 7 || m.Ceil != 1000 || m.Records != 998 || m.Sessions != 3 {
		t.Fatalf("meta decoded as %+v", m)
	}

	recs := []Record{
		{Seq: 4, Act: logs.SndAct("a", logs.NameT("m"), logs.NameT("v"))},
		{Seq: 5, Act: logs.RcvAct("b", logs.NameT("m"), logs.NameT("v"))},
	}
	e.Reset()
	e.SnapshotChunk(7, recs)
	m, err = DecodeSnapshot(e.Bytes())
	if err != nil {
		t.Fatalf("decode chunk: %v", err)
	}
	if m.Op != OpSnapshotChunk || len(m.Recs) != 2 || m.Recs[0] != recs[0] || m.Recs[1] != recs[1] {
		t.Fatalf("chunk decoded as %+v", m)
	}

	entries := []SessionEntry{{Session: "s1", BatchSeq: 9, Base: 100, Count: 64}}
	e.Reset()
	e.SnapshotSessions(7, entries)
	m, err = DecodeSnapshot(e.Bytes())
	if err != nil {
		t.Fatalf("decode sessions: %v", err)
	}
	if m.Op != OpSnapshotSessions || len(m.Entries) != 1 || m.Entries[0] != entries[0] {
		t.Fatalf("sessions decoded as %+v", m)
	}

	e.Reset()
	e.SnapshotEnd(7, 1000, "")
	m, err = DecodeSnapshot(e.Bytes())
	if err != nil {
		t.Fatalf("decode end: %v", err)
	}
	if m.Op != OpSnapshotEnd || m.Ceil != 1000 || m.Err != "" {
		t.Fatalf("end decoded as %+v", m)
	}

	e.Reset()
	e.SnapshotEnd(7, 12, "snapshot cancelled")
	m, err = DecodeSnapshot(e.Bytes())
	if err != nil {
		t.Fatalf("decode failed end: %v", err)
	}
	if m.Err != "snapshot cancelled" {
		t.Fatalf("end error decoded as %q", m.Err)
	}
}

func TestSnapshotDecodeBounds(t *testing.T) {
	// A chunk claiming more records than MaxSnapshotChunk is refused
	// before any allocation proportional to the claim.
	e := NewEncoder()
	e.byte(OpSnapshotChunk)
	e.uvarint(1)
	e.uvarint(MaxSnapshotChunk + 1)
	if _, err := DecodeSnapshot(e.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized chunk claim: got %v, want ErrTooLarge", err)
	}

	e.Reset()
	e.byte(OpSnapshotSessions)
	e.uvarint(1)
	e.uvarint(MaxSnapshotSessions + 1)
	if _, err := DecodeSnapshot(e.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized sessions claim: got %v, want ErrTooLarge", err)
	}

	// Truncated bodies yield errors, not panics.
	e.Reset()
	e.SnapshotMeta(1, 10, 10, 1)
	env := e.Bytes()
	for i := 3; i < len(env); i++ {
		if _, err := DecodeSnapshot(env[:i]); err == nil {
			t.Fatalf("truncated meta at %d decoded cleanly", i)
		}
	}

	// Trailing bytes after a complete message are rejected.
	e.Reset()
	e.Snapshot(1)
	withTrailing := append(append([]byte(nil), e.Bytes()...), 0x00)
	if _, err := DecodeSnapshot(withTrailing); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing bytes: got %v, want ErrTrailing", err)
	}

	// An unknown opcode in the snapshot range's neighbourhood is refused.
	bad := []byte{magicHi, magicLo, version, 0x4F, 0x01}
	if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrBadTag) {
		t.Fatalf("unknown opcode: got %v, want ErrBadTag", err)
	}
}

func TestIsSnapshotOp(t *testing.T) {
	for _, op := range []byte{OpSnapshot, OpSnapshotMeta, OpSnapshotChunk, OpSnapshotSessions, OpSnapshotEnd} {
		if !IsSnapshotOp(op) {
			t.Fatalf("IsSnapshotOp(%#x) = false", op)
		}
	}
	for _, op := range []byte{0x00, OpIngestBatch2, OpQuery, OpQueryCancel, 0x46, 0xFF} {
		if IsSnapshotOp(op) {
			t.Fatalf("IsSnapshotOp(%#x) = true", op)
		}
	}
}

// FuzzDecodeSnapshot: hostile snapshot-transfer envelopes (the frames a
// replica accepts from whatever answers the leader address) never panic
// the decoder, and everything that decodes re-encodes to an equivalent
// message.
func FuzzDecodeSnapshot(f *testing.F) {
	e := NewEncoder()
	e.Snapshot(1)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.SnapshotMeta(1, 500, 499, 2)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.SnapshotChunk(1, []Record{{Seq: 3, Act: logs.SndAct("a", logs.NameT("m"), logs.NameT("v"))}})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.SnapshotSessions(1, []SessionEntry{{Session: "s", BatchSeq: 2, Base: 10, Count: 4}})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.SnapshotEnd(1, 500, "")
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{magicHi, magicLo, version, OpSnapshotChunk})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		re := NewEncoder()
		switch m.Op {
		case OpSnapshot:
			re.Snapshot(m.ID)
		case OpSnapshotMeta:
			re.SnapshotMeta(m.ID, m.Ceil, m.Records, m.Sessions)
		case OpSnapshotChunk:
			re.SnapshotChunk(m.ID, m.Recs)
		case OpSnapshotSessions:
			re.SnapshotSessions(m.ID, m.Entries)
		case OpSnapshotEnd:
			re.SnapshotEnd(m.ID, m.Ceil, m.Err)
		}
		m2, err := DecodeSnapshot(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot message failed to decode: %v", err)
		}
		if m2.Op != m.Op || m2.ID != m.ID || m2.Ceil != m.Ceil || m2.Err != m.Err ||
			len(m2.Recs) != len(m.Recs) || len(m2.Entries) != len(m.Entries) {
			t.Fatalf("re-encoded snapshot message changed: %+v vs %+v", m2, m)
		}
	})
}
