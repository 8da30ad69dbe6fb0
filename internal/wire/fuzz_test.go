package wire

import (
	"bytes"
	"testing"

	"repro/internal/logs"
)

// Fuzz targets for the one-shot decoders: the codec's contract is that
// adversarial bytes error, never panic — the middleware decodes peer
// input with these. CI runs each target for a short smoke budget on
// every PR (see .github/workflows/ci.yml).

// FuzzDecodeAction: hostile action envelopes never panic, and valid
// ones re-encode to the identical envelope (canonical encoding).
func FuzzDecodeAction(f *testing.F) {
	f.Add(EncodeAction(logs.SndAct("alice", logs.NameT("m"), logs.NameT("v"))))
	f.Add(EncodeAction(logs.IffAct("bob", logs.VarT("x"), logs.UnknownT())))
	f.Add([]byte{magicHi, magicLo, version})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAction(data)
		if err != nil {
			return
		}
		if _, err := DecodeAction(EncodeAction(a)); err != nil {
			t.Fatalf("re-encoded action failed to decode: %v", err)
		}
	})
}

// FuzzReadRecordFrame: hostile segment-file frames never panic, never
// report a frame longer than the input, and valid ones round-trip.
func FuzzReadRecordFrame(f *testing.F) {
	r := Record{Seq: 9, Act: logs.RcvAct("carol", logs.NameT("m"), logs.VarT("y"))}
	f.Add(AppendRecordFrame(nil, r))
	f.Add(AppendRecordFrame(AppendRecordFrame(nil, r), Record{Seq: 10, Act: r.Act}))
	f.Add([]byte{0x05, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := ReadRecordFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame length %d out of bounds (input %d bytes)", n, len(data))
		}
		got, m, err := ReadRecordFrame(AppendRecordFrame(nil, rec))
		if err != nil || got != rec {
			t.Fatalf("re-framed record mismatch: %+v %d %v", got, m, err)
		}
	})
}

// FuzzDecodeQuery: hostile query-protocol envelopes (the read path a
// remote auditor drives) never panic, and whatever decodes re-encodes
// to a decodable message with the same meaning.
func FuzzDecodeQuery(f *testing.F) {
	e := NewEncoder()
	e.Query(1, QuerySpec{Principal: "a", Channel: "m", Observer: "o",
		Kind: logs.Snd, KindSet: true, MinSeq: 3, CeilSeq: 9, Limit: 4, Tail: true})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.QueryChunk(2, []Record{{Seq: 7, Act: logs.SndAct("a", logs.NameT("m"), logs.NameT("v"))}})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.QueryEnd(3, "cursor", "")
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.QueryCancel(4)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{magicHi, magicLo, version, OpQuery})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeQuery(data)
		if err != nil {
			return
		}
		re := NewEncoder()
		switch m.Op {
		case OpQuery:
			re.Query(m.ID, m.Spec)
		case OpQueryChunk:
			re.QueryChunk(m.ID, m.Recs)
		case OpQueryEnd:
			re.QueryEnd(m.ID, m.Cursor, m.Err)
		case OpQueryCancel:
			re.QueryCancel(m.ID)
		}
		m2, err := DecodeQuery(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded query message failed to decode: %v", err)
		}
		if m2.Op != m.Op || m2.ID != m.ID || m2.Spec != m.Spec ||
			m2.Cursor != m.Cursor || m2.Err != m.Err || len(m2.Recs) != len(m.Recs) {
			t.Fatalf("re-encoded query message changed: %+v vs %+v", m2, m)
		}
	})
}

// FuzzDecodeMessage: hostile message envelopes (the transport payload a
// malicious peer controls end to end) never panic the decoder.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{magicHi, magicLo, version, 0x01, 'm', 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if _, err := DecodeMessage(EncodeMessage(m)); err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
	})
}

// FuzzPooledDecodeIngest is the reuse-pollution target for the pooled
// decode mode of the ingest hot path: hostile bytes go through
// DecodeIngestInto with a *reused* message and interner — exactly the
// per-connection state the listener keeps — and must neither panic nor
// pollute the next, valid decode. A failed decode leaves the message
// as scratch; the contract under fuzz is that the subsequent good
// decode comes out bit-identical to a fresh one.
func FuzzPooledDecodeIngest(f *testing.F) {
	good := NewEncoder()
	good.IngestBatch2(3, 9, []logs.Action{
		logs.SndAct("alice", logs.NameT("m"), logs.NameT("v")),
		logs.RcvAct("bob", logs.NameT("ch"), logs.VarT("x")),
	})
	f.Add(append([]byte(nil), good.Bytes()...))
	f.Add([]byte{magicHi, magicLo, version, 0x21, 0x01, 0xFF}) // the retired v1 batch
	f.Add([]byte{magicHi, magicLo, version})
	f.Fuzz(func(t *testing.T, data []byte) {
		it := NewInterner()
		var m IngestMsg
		// First pass: the hostile input, into the reused state. Errors
		// are expected; panics are the bug.
		if err := DecodeIngestInto(data, &m, it); err == nil {
			// Whatever decoded must also decode fresh to the same thing.
			var fresh IngestMsg
			if err := DecodeIngestInto(data, &fresh, nil); err != nil {
				t.Fatalf("decode succeeded reused but failed fresh: %v", err)
			}
			if m.Op != fresh.Op || m.ID != fresh.ID || len(m.Acts) != len(fresh.Acts) {
				t.Fatalf("reused decode diverged: %+v vs %+v", m, fresh)
			}
		}
		// Second pass: a known-good envelope through the same (possibly
		// polluted) message and interner must be exactly right.
		env := good.Bytes()
		if err := DecodeIngestInto(env, &m, it); err != nil {
			t.Fatalf("good envelope failed after hostile decode: %v", err)
		}
		var want IngestMsg
		if err := DecodeIngestInto(env, &want, nil); err != nil {
			t.Fatal(err)
		}
		if m.Op != want.Op || m.ID != want.ID || m.BatchSeq != want.BatchSeq || len(m.Acts) != len(want.Acts) {
			t.Fatalf("reused decode polluted: %+v want %+v", m, want)
		}
		for i := range want.Acts {
			if m.Acts[i] != want.Acts[i] {
				t.Fatalf("action %d polluted by previous decode: %+v want %+v", i, m.Acts[i], want.Acts[i])
			}
		}
	})
}

// FuzzStreamRelease: a stream decoder that releases and reacquires its
// pooled buffers mid-stream (the idle-park shape) decodes the same
// frames as one that never released.
func FuzzStreamRelease(f *testing.F) {
	e := NewEncoder()
	e.IngestBatch2(1, 1, []logs.Action{logs.SndAct("p", logs.NameT("m"), logs.NameT("v"))})
	var frames bytes.Buffer
	se := NewStreamEncoder(&frames)
	se.Envelope(e.Bytes())
	se.Envelope(e.Bytes())
	se.Flush()
	f.Add(frames.Bytes(), uint8(1))
	f.Fuzz(func(t *testing.T, stream []byte, releaseAt uint8) {
		plain := NewStreamDecoder(bytes.NewReader(stream))
		parky := NewStreamDecoder(bytes.NewReader(stream))
		for i := 0; ; i++ {
			// Release only at a frame boundary with nothing buffered —
			// the only state the listener parks in. Buffered bytes keep
			// the reader resident, matching ReleaseBuffers' contract.
			if uint8(i) == releaseAt && parky.Buffered() == 0 {
				parky.ReleaseBuffers()
			}
			wantEnv, wantErr := plain.Envelope()
			gotEnv, gotErr := parky.Envelope()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("frame %d: release changed outcome: %v vs %v", i, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if !bytes.Equal(wantEnv, gotEnv) {
				t.Fatalf("frame %d: release changed payload", i)
			}
		}
	})
}
