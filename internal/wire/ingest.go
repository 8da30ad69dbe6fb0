package wire

// Ingest protocol messages: the message layer of the pipelined binary
// append path (docs/protocol.md). Each message travels as one stream
// frame (stream.go) whose envelope payload is:
//
//	ingest   := op(1) body
//	ack      := uvarint(id) uvarint(base) uvarint(n)           server → client
//	error    := uvarint(id) string(msg)                        server → client
//	hello    := uvarint(proto) string(session)                 client → server
//	helloack := uvarint(proto) uvarint(maxBatchSeq)            server → client
//	batch2   := uvarint(id) uvarint(batchSeq) uvarint(n) action*n  client → server
//	auth     := string(token)                                  client → server
//
// id is a client-assigned request identifier, opaque to the server and
// echoed verbatim in the reply, so many requests can be in flight on
// one connection and replies can be matched out of band. An ack means
// the batch's n actions were durably appended with the contiguous
// global sequence numbers base..base+n-1, in batch order. An error
// means the server appended none of the batch's actions (a request
// error, e.g. validation); frame-level corruption is answered with id 0
// and closes the connection, since request boundaries can no longer be
// trusted.
//
// auth is the cleartext-connection authentication frame: when the
// server enforces an identity map without TLS (the -insecure dev
// shape), the first frame on a connection must carry a token the map
// knows. There is no success reply — the connection simply proceeds —
// and an unknown token is answered with an id-0 error and a close. On
// a TLS connection identity comes from the client certificate and the
// frame is accepted and ignored, so clients can send it uniformly.
//
// Delivery is exactly-once: a connection's hello names a client-chosen
// idempotency session before its first batch, and every batch2 carries
// the session's monotonic batch sequence number, so the server can
// recognise a replayed batch and re-ack its original sequence block
// instead of appending it again. The helloack tells a resuming client
// the highest batch sequence the server has committed for the session
// (0 = none). Opcode 0x21, the sessionless batch of protocol revision
// 1, is retired: it no longer decodes (ErrBadTag) and is never to be
// reused.

import (
	"fmt"

	"repro/internal/logs"
)

// Ingest opcodes. 0x21 is retired (see above).
const (
	OpIngestAck      byte = 0x22
	OpIngestError    byte = 0x23
	OpIngestHello    byte = 0x24
	OpIngestHelloAck byte = 0x25
	OpIngestBatch2   byte = 0x26
	OpIngestAuth     byte = 0x27
)

// MaxTokenLen bounds the auth frame's token, keeping the frame — and
// every auth-map entry worth comparing it against — small.
const MaxTokenLen = 256

// IngestV2 is the protocol revision the session handshake negotiates,
// and the only one served.
const IngestV2 = 2

// MaxSessionLen bounds the ingest session identifier, keeping hello
// frames — and every durable session-table entry derived from them —
// small.
const MaxSessionLen = 128

// MaxIngestBatch bounds the number of actions in one ingest batch
// frame. Together with MaxFrameLen it caps the memory one request can
// pin on the server.
const MaxIngestBatch = 1 << 14

// IngestMsg is one decoded ingest protocol message; which fields are
// meaningful depends on Op (see the layout above).
type IngestMsg struct {
	Op       byte
	ID       uint64
	Base     uint64        // OpIngestAck: first assigned sequence number
	Count    uint64        // OpIngestAck: size of the assigned block
	Msg      string        // OpIngestError: what the server rejected
	Acts     []logs.Action // OpIngestBatch2: the actions to append
	Version  uint64        // OpIngestHello/OpIngestHelloAck: negotiated protocol revision
	Session  string        // OpIngestHello: the client's idempotency session
	BatchSeq uint64        // OpIngestBatch2: per-session batch sequence; OpIngestHelloAck: highest committed batch sequence (0 = none)
	Token    string        // OpIngestAuth: the cleartext authentication token
}

// IngestHello encodes the session handshake, which a client sends on
// every connection before its first batch. Sessions longer than
// MaxSessionLen are truncated so the frame always round-trips the
// codec's bound (servers reject such sessions anyway).
func (e *Encoder) IngestHello(version uint64, session string) {
	if len(session) > MaxSessionLen {
		session = session[:MaxSessionLen]
	}
	e.byte(OpIngestHello)
	e.uvarint(version)
	e.string(session)
}

// IngestHelloAck encodes the server's handshake reply: the negotiated
// protocol revision and the highest batch sequence number the server
// has durably committed for the session (0 = a fresh session), so a
// resuming client can trim its replay queue.
func (e *Encoder) IngestHelloAck(version, maxBatchSeq uint64) {
	e.byte(OpIngestHelloAck)
	e.uvarint(version)
	e.uvarint(maxBatchSeq)
}

// IngestBatch2 encodes an append request: the request id, the
// session's monotonic batch sequence number (the key the server's
// dedup window recognises replays by) and the actions.
func (e *Encoder) IngestBatch2(id, batchSeq uint64, acts []logs.Action) {
	e.byte(OpIngestBatch2)
	e.uvarint(id)
	e.uvarint(batchSeq)
	e.uvarint(uint64(len(acts)))
	for _, a := range acts {
		e.Action(a)
	}
}

// IngestAuth encodes the cleartext authentication frame: the first
// frame a token-authenticated client sends on every connection. An
// identity map admits no token longer than MaxTokenLen (auth.Map.Add),
// so every token worth sending fits the decoder's bound.
func (e *Encoder) IngestAuth(token string) {
	e.byte(OpIngestAuth)
	e.string(token)
}

// IngestAck encodes a server ack: the request's actions hold the
// contiguous sequence block base..base+count-1.
func (e *Encoder) IngestAck(id, base, count uint64) {
	e.byte(OpIngestAck)
	e.uvarint(id)
	e.uvarint(base)
	e.uvarint(count)
}

// IngestError encodes a server rejection. Messages longer than
// MaxNameLen are truncated so the reply always round-trips the codec's
// string bound.
func (e *Encoder) IngestError(id uint64, msg string) {
	if len(msg) > MaxNameLen {
		msg = msg[:MaxNameLen]
	}
	e.byte(OpIngestError)
	e.uvarint(id)
	e.string(msg)
}

// Ingest decodes one ingest protocol message.
func (d *Decoder) Ingest() (IngestMsg, error) {
	var m IngestMsg
	if err := d.IngestInto(&m); err != nil {
		return IngestMsg{}, err
	}
	return m, nil
}

// IngestInto decodes one ingest protocol message into *m, reusing
// m.Acts' backing array — the zero-steady-state-allocation decode mode
// of the ingest hot path. Ownership contract: the caller owns m.Acts
// until it hands the slice back to whatever pool it came from; this
// decoder only ever writes m.Acts[:0] onward, never retains it. On
// error m is left partially filled and must not be interpreted.
func (d *Decoder) IngestInto(m *IngestMsg) error {
	acts := m.Acts[:0]
	op, err := d.byte()
	if err != nil {
		return err
	}
	*m = IngestMsg{Op: op, Acts: acts}
	switch op {
	case OpIngestHello:
		if m.Version, err = d.uvarint(); err != nil {
			return err
		}
		if m.Session, err = d.string(); err != nil {
			return err
		}
		if len(m.Session) > MaxSessionLen {
			return fmt.Errorf("%w: session id of %d bytes", ErrTooLarge, len(m.Session))
		}
		return nil
	case OpIngestHelloAck:
		if m.Version, err = d.uvarint(); err != nil {
			return err
		}
		if m.BatchSeq, err = d.uvarint(); err != nil {
			return err
		}
		return nil
	case OpIngestAuth:
		if m.Token, err = d.string(); err != nil {
			return err
		}
		if len(m.Token) > MaxTokenLen {
			return fmt.Errorf("%w: auth token of %d bytes", ErrTooLarge, len(m.Token))
		}
		return nil
	}
	if m.ID, err = d.uvarint(); err != nil {
		return err
	}
	switch op {
	case OpIngestBatch2:
		if m.BatchSeq, err = d.uvarint(); err != nil {
			return err
		}
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > MaxIngestBatch {
			return fmt.Errorf("%w: ingest batch of %d actions", ErrTooLarge, n)
		}
		// Cap the up-front allocation: the claimed count is attacker
		// chosen and the body may be truncated, so grow into large
		// batches rather than trusting n before the actions decode.
		if c := int(min(n, 1024)); cap(m.Acts) < c {
			m.Acts = make([]logs.Action, 0, c)
		}
		for i := uint64(0); i < n; i++ {
			a, err := d.Action()
			if err != nil {
				return err
			}
			m.Acts = append(m.Acts, a)
		}
	case OpIngestAck:
		if m.Base, err = d.uvarint(); err != nil {
			return err
		}
		if m.Count, err = d.uvarint(); err != nil {
			return err
		}
	case OpIngestError:
		if m.Msg, err = d.string(); err != nil {
			return err
		}
	default:
		return ErrBadTag
	}
	return nil
}

// DecodeIngest is a convenience one-shot ingest message decoder.
func DecodeIngest(env []byte) (IngestMsg, error) {
	var m IngestMsg
	if err := DecodeIngestInto(env, &m, nil); err != nil {
		return IngestMsg{}, err
	}
	return m, nil
}

// DecodeIngestInto is the reuse-everything one-shot decoder of the
// ingest hot path: it decodes env into *m (reusing m.Acts' backing
// array) with an optional string interner, allocating nothing in the
// steady state. See Decoder.IngestInto for the ownership contract on
// m.Acts; it is the ingest listener's per-connection freelists that
// make the reuse safe.
func DecodeIngestInto(env []byte, m *IngestMsg, it *Interner) error {
	var d Decoder
	if err := d.Reset(env); err != nil {
		return err
	}
	d.intern = it
	if err := d.IngestInto(m); err != nil {
		return err
	}
	return d.Done()
}
