package wire

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/logs"
)

func encodeIngest(build func(e *Encoder)) []byte {
	e := NewEncoder()
	build(e)
	return e.Bytes()
}

// retiredV1Batch is a well-formed batch of the retired sessionless
// protocol: opcode 0x21, id, count, actions.
func retiredV1Batch() []byte {
	return encodeIngest(func(e *Encoder) {
		e.byte(0x21)
		e.uvarint(1)
		e.uvarint(1)
		e.Action(logs.SndAct("a", logs.NameT("m"), logs.NameT("v")))
	})
}

// TestIngestBatchRoundTrip: a batch request survives the codec with its
// id, batch sequence, order and every action intact.
func TestIngestBatchRoundTrip(t *testing.T) {
	acts := []logs.Action{
		logs.SndAct("alice", logs.NameT("m"), logs.NameT("v")),
		logs.RcvAct("bob", logs.NameT("m"), logs.VarT("x")),
		{Principal: "carol", Kind: logs.IfT, A: logs.NameT("c"), B: logs.UnknownT()},
	}
	env := encodeIngest(func(e *Encoder) { e.IngestBatch2(7, 13, acts) })
	m, err := DecodeIngest(env)
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpIngestBatch2 || m.ID != 7 || m.BatchSeq != 13 || len(m.Acts) != len(acts) {
		t.Fatalf("got %+v", m)
	}
	for i := range acts {
		if m.Acts[i] != acts[i] {
			t.Fatalf("action %d: got %+v want %+v", i, m.Acts[i], acts[i])
		}
	}
}

// TestIngestAckErrorRoundTrip: acks and errors round-trip, and error
// messages are truncated to the codec's string bound rather than
// producing an unencodable reply.
func TestIngestAckErrorRoundTrip(t *testing.T) {
	m, err := DecodeIngest(encodeIngest(func(e *Encoder) { e.IngestAck(3, 100, 17) }))
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpIngestAck || m.ID != 3 || m.Base != 100 || m.Count != 17 {
		t.Fatalf("ack: got %+v", m)
	}

	long := strings.Repeat("x", MaxNameLen+100)
	m, err = DecodeIngest(encodeIngest(func(e *Encoder) { e.IngestError(9, long) }))
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpIngestError || m.ID != 9 || m.Msg != long[:MaxNameLen] {
		t.Fatalf("error: got op=%#x id=%d len(msg)=%d", m.Op, m.ID, len(m.Msg))
	}
}

// TestIngestDecodeRejects: bad opcodes — the retired v1 batch among
// them — oversized counts and trailing bytes are errors, not misparses.
func TestIngestDecodeRejects(t *testing.T) {
	bad := encodeIngest(func(e *Encoder) { e.byte(0x77); e.uvarint(1) })
	if _, err := DecodeIngest(bad); !errors.Is(err, ErrBadTag) {
		t.Fatalf("bad op: got %v", err)
	}
	if _, err := DecodeIngest(retiredV1Batch()); !errors.Is(err, ErrBadTag) {
		t.Fatalf("retired v1 batch: got %v", err)
	}

	big := encodeIngest(func(e *Encoder) {
		e.byte(OpIngestBatch2)
		e.uvarint(1)
		e.uvarint(1)
		e.uvarint(MaxIngestBatch + 1)
	})
	if _, err := DecodeIngest(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized count: got %v", err)
	}

	trailing := append(encodeIngest(func(e *Encoder) { e.IngestAck(1, 2, 3) }), 0x00)
	if _, err := DecodeIngest(trailing); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing bytes: got %v", err)
	}
}

// TestIngestHandshakeRoundTrip: the hello/helloack handshake survives
// the codec with revision, session and replay floor intact.
func TestIngestHandshakeRoundTrip(t *testing.T) {
	m, err := DecodeIngest(encodeIngest(func(e *Encoder) { e.IngestHello(IngestV2, "sess-abc") }))
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpIngestHello || m.Version != IngestV2 || m.Session != "sess-abc" {
		t.Fatalf("hello: got %+v", m)
	}

	m, err = DecodeIngest(encodeIngest(func(e *Encoder) { e.IngestHelloAck(IngestV2, 41) }))
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpIngestHelloAck || m.Version != IngestV2 || m.BatchSeq != 41 {
		t.Fatalf("helloack: got %+v", m)
	}
}

// TestIngestHandshakeRejects: over-long sessions are refused both on
// decode (a hand-rolled frame) and truncated on encode, so a hostile
// hello cannot smuggle an unbounded session id into the durable table.
func TestIngestHandshakeRejects(t *testing.T) {
	long := strings.Repeat("s", MaxSessionLen+1)
	raw := encodeIngest(func(e *Encoder) {
		e.byte(OpIngestHello)
		e.uvarint(IngestV2)
		e.string(long)
	})
	if _, err := DecodeIngest(raw); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized session: got %v", err)
	}
	m, err := DecodeIngest(encodeIngest(func(e *Encoder) { e.IngestHello(IngestV2, long) }))
	if err != nil {
		t.Fatal(err)
	}
	if m.Session != long[:MaxSessionLen] {
		t.Fatalf("encoder did not truncate session: %d bytes", len(m.Session))
	}
}

// TestSessionFrameRoundTrip: session-log frames round-trip, and a torn
// or corrupt frame yields the same precise errors as record frames.
func TestSessionFrameRoundTrip(t *testing.T) {
	se := SessionEntry{Session: "client-1", BatchSeq: 9, Base: 1024, Count: 256}
	frame := AppendSessionFrame(nil, se)
	got, n, err := ReadSessionFrame(frame)
	if err != nil || n != len(frame) || got != se {
		t.Fatalf("round-trip: %+v %d %v", got, n, err)
	}
	if _, _, err := ReadSessionFrame(frame[:len(frame)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn frame: got %v", err)
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := ReadSessionFrame(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame: got %v", err)
	}
}

// FuzzDecodeIngest: hostile ingest envelopes — batches, handshakes,
// acks, errors, the retired v1 batch — error instead of panicking or
// over-reading, the retired opcode never decodes, and whatever decodes
// re-encodes to an envelope that decodes to the same message (codec
// idempotence on the valid subset).
func FuzzDecodeIngest(f *testing.F) {
	f.Add(retiredV1Batch())
	f.Add(encodeIngest(func(e *Encoder) { e.IngestAck(2, 50, 4) }))
	f.Add(encodeIngest(func(e *Encoder) { e.IngestError(3, "nope") }))
	f.Add(encodeIngest(func(e *Encoder) { e.IngestHello(IngestV2, "s-1") }))
	f.Add(encodeIngest(func(e *Encoder) { e.IngestHelloAck(IngestV2, 7) }))
	f.Add(encodeIngest(func(e *Encoder) { e.IngestAuth("t0ken") }))
	f.Add(encodeIngest(func(e *Encoder) {
		e.IngestBatch2(4, 11, []logs.Action{logs.RcvAct("b", logs.NameT("m"), logs.VarT("x"))})
	}))
	f.Add([]byte{magicHi, magicLo, version, 0x21, 0x01, 0xFF})
	f.Add([]byte{magicHi, magicLo, version, OpIngestHello, 0x02, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeIngest(data)
		if err != nil {
			return
		}
		if m.Op == 0x21 {
			t.Fatalf("retired v1 batch opcode decoded: %+v", m)
		}
		reenc := encodeIngest(func(e *Encoder) {
			switch m.Op {
			case OpIngestAck:
				e.IngestAck(m.ID, m.Base, m.Count)
			case OpIngestError:
				e.IngestError(m.ID, m.Msg)
			case OpIngestHello:
				e.IngestHello(m.Version, m.Session)
			case OpIngestHelloAck:
				e.IngestHelloAck(m.Version, m.BatchSeq)
			case OpIngestBatch2:
				e.IngestBatch2(m.ID, m.BatchSeq, m.Acts)
			case OpIngestAuth:
				e.IngestAuth(m.Token)
			}
		})
		m2, err := DecodeIngest(reenc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if m2.Op != m.Op || m2.ID != m.ID || m2.Base != m.Base || m2.Count != m.Count ||
			m2.Msg != m.Msg || len(m2.Acts) != len(m.Acts) ||
			m2.Version != m.Version || m2.Session != m.Session || m2.BatchSeq != m.BatchSeq ||
			m2.Token != m.Token {
			t.Fatalf("round-trip changed message: %+v vs %+v", m, m2)
		}
	})
}

// FuzzReadSessionFrame: hostile session-log bytes never panic the
// recovery scan, never claim a frame longer than the input, and valid
// entries round-trip through the frame codec.
func FuzzReadSessionFrame(f *testing.F) {
	f.Add(AppendSessionFrame(nil, SessionEntry{Session: "s", BatchSeq: 1, Base: 2, Count: 3}))
	f.Add([]byte{0x05, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		se, n, err := ReadSessionFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame length %d out of bounds (input %d bytes)", n, len(data))
		}
		got, _, err := ReadSessionFrame(AppendSessionFrame(nil, se))
		if err != nil || got != se {
			t.Fatalf("re-framed entry mismatch: %+v %v", got, err)
		}
	})
}
