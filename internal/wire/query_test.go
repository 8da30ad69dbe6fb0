package wire

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/logs"
)

func TestQuerySpecRoundTrip(t *testing.T) {
	specs := []QuerySpec{
		{},
		{Principal: "alice", Channel: "m", Observer: "bob", Cursor: "c1",
			Kind: logs.Rcv, KindSet: true, MinSeq: 10, CeilSeq: 99, Limit: 7},
		{Tail: true, Limit: 100},
		{Follow: true, MinSeq: 42},
		{Kind: logs.IfF, KindSet: true, Tail: true, Follow: true},
	}
	for i, q := range specs {
		e := NewEncoder()
		e.Query(uint64(i+1), q)
		m, err := DecodeQuery(e.Bytes())
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if m.Op != OpQuery || m.ID != uint64(i+1) || m.Spec != q {
			t.Fatalf("spec %d round-trip: got %+v want %+v", i, m.Spec, q)
		}
	}
}

func TestQueryChunkRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Act: logs.SndAct("a", logs.NameT("m"), logs.NameT("v"))},
		{Seq: 5, Act: logs.IffAct("b", logs.VarT("x"), logs.UnknownT())},
	}
	e := NewEncoder()
	e.QueryChunk(9, recs)
	m, err := DecodeQuery(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpQueryChunk || m.ID != 9 || len(m.Recs) != 2 {
		t.Fatalf("chunk decoded to %+v", m)
	}
	for i := range recs {
		if m.Recs[i] != recs[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, m.Recs[i], recs[i])
		}
	}
	// Empty chunk is legal (a follow heartbeat would use it).
	e.Reset()
	e.QueryChunk(9, nil)
	if m, err = DecodeQuery(e.Bytes()); err != nil || len(m.Recs) != 0 {
		t.Fatalf("empty chunk: %+v %v", m, err)
	}
}

func TestQueryEndAndCancelRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.QueryEnd(3, "resume-here", "")
	m, err := DecodeQuery(e.Bytes())
	if err != nil || m.Op != OpQueryEnd || m.Cursor != "resume-here" || m.Err != "" {
		t.Fatalf("end: %+v %v", m, err)
	}
	e.Reset()
	e.QueryEnd(3, "", "denied")
	if m, err = DecodeQuery(e.Bytes()); err != nil || m.Err != "denied" {
		t.Fatalf("end err: %+v %v", m, err)
	}
	e.Reset()
	e.QueryCancel(8)
	if m, err = DecodeQuery(e.Bytes()); err != nil || m.Op != OpQueryCancel || m.ID != 8 {
		t.Fatalf("cancel: %+v %v", m, err)
	}
}

func TestQueryEndTruncatesOverlongStrings(t *testing.T) {
	e := NewEncoder()
	e.QueryEnd(1, strings.Repeat("c", MaxCursorLen+50), strings.Repeat("e", MaxNameLen+50))
	m, err := DecodeQuery(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cursor) != MaxCursorLen || len(m.Err) != MaxNameLen {
		t.Fatalf("lengths %d/%d, want %d/%d", len(m.Cursor), len(m.Err), MaxCursorLen, MaxNameLen)
	}
}

func TestQueryDecodeRejects(t *testing.T) {
	// Unknown flags bit.
	raw := []byte{magicHi, magicLo, version, OpQuery, 0x01, 0x80}
	if _, err := DecodeQuery(raw); !errors.Is(err, ErrBadTag) {
		t.Fatalf("bad flags: %v", err)
	}
	// Out-of-range kind byte (not the no-filter sentinel).
	raw = []byte{magicHi, magicLo, version, OpQuery, 0x01, 0x00, 0x07}
	if _, err := DecodeQuery(raw); !errors.Is(err, ErrBadTag) {
		t.Fatalf("bad kind: %v", err)
	}
	// Over-long cursor in a query.
	e := NewEncoder()
	e.byte(OpQuery)
	e.uvarint(1)
	e.byte(0)
	e.byte(noKind)
	e.uvarint(0)
	e.uvarint(0)
	e.uvarint(0)
	e.string("")
	e.string("")
	e.string("")
	e.string(strings.Repeat("c", MaxCursorLen+1))
	if _, err := DecodeQuery(e.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("overlong cursor: %v", err)
	}
	// Oversized chunk claim refused before the body decodes.
	e.Reset()
	e.byte(OpQueryChunk)
	e.uvarint(1)
	e.uvarint(MaxQueryChunk + 1)
	if _, err := DecodeQuery(e.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized chunk: %v", err)
	}
	// Unknown opcode.
	raw = []byte{magicHi, magicLo, version, 0x3F, 0x01}
	if _, err := DecodeQuery(raw); !errors.Is(err, ErrBadTag) {
		t.Fatalf("unknown op: %v", err)
	}
	// Trailing bytes.
	e.Reset()
	e.QueryCancel(1)
	withTrailing := append(append([]byte(nil), e.Bytes()...), 0x00)
	if _, err := DecodeQuery(withTrailing); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing: %v", err)
	}
}

func TestPeekOpAndIsQueryOp(t *testing.T) {
	e := NewEncoder()
	e.Query(1, QuerySpec{})
	op, err := PeekOp(e.Bytes())
	if err != nil || op != OpQuery {
		t.Fatalf("peek: %#x %v", op, err)
	}
	if _, err := PeekOp([]byte{magicHi, magicLo, version}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty payload peek: %v", err)
	}
	for _, op := range []byte{OpQuery, OpQueryChunk, OpQueryEnd, OpQueryCancel} {
		if !IsQueryOp(op) {
			t.Fatalf("op %#x not recognised as query", op)
		}
	}
	for _, op := range []byte{OpIngestBatch2, OpIngestAck, OpIngestHello, 0x30, 0x35} {
		if IsQueryOp(op) {
			t.Fatalf("op %#x misrecognised as query", op)
		}
	}
}
