package testutil

// The fault-injection proxy. Every distributed failure the suites care
// about is some corruption of the path between a client and a listener:
// an ack that never arrives, a connection that dies mid-batch, a
// partition, a follow-stream chunk that evaporates. Proxy produces all
// of them from one place: client→server bytes pipe transparently, while
// server→client traffic is relayed frame by frame (the wire stream
// codec), so individual protocol messages can be swallowed at exact,
// reproducible points.
//
// The proxy's own listen address is stable across backend restarts
// (SetBackend), which is what lets a harness kill and restart a daemon
// while its clients keep dialing one address — the same idiom the
// pre-extraction ackEater used in internal/provd's exactly-once e2e.

import (
	"crypto/tls"
	"io"
	"net"
	"sync"

	"repro/internal/wire"
)

// Proxy is a frame-aware TCP proxy for fault injection. Zero faults
// armed, it is a transparent (if slower) pipe.
//
// With TLS configs (NewProxyTLS) the proxy terminates TLS on both
// sides — tls.Server toward its clients, tls.Client toward the
// backend — so the frame-aware relay still sees plaintext frames to
// drop at exact points while every byte on either wire is encrypted.
// This is what lets the harness inject its reproducible faults into a
// fully mutually-authenticated cluster: the proxy holds the client
// identity its producers would, which is exactly the
// trusted-middlebox position docs/security.md warns about.
type Proxy struct {
	ln       net.Listener
	serveTLS *tls.Config // client-facing; nil = cleartext
	dialTLS  *tls.Config // backend-facing; nil = cleartext

	mu          sync.Mutex
	backend     string
	partitioned bool
	closed      bool
	pairs       map[net.Conn]net.Conn // client conn → backend conn

	ackSeen       int             // batch acks relayed or dropped, 1-based ordinals
	dropAckAt     map[int]bool    // ordinals to swallow-and-kill (set before traffic)
	armedAcks     []chan struct{} // one-shot swallow-and-kill of the next ack
	armedChunks   []chan struct{} // one-shot swallow (keep conn) of the next query chunk
	armedHolds    []replyHold     // one-shot stall of the next batch reply
	acksDropped   int
	chunksDropped int
}

// NewProxy listens on loopback and relays to backend.
func NewProxy(backend string) (*Proxy, error) {
	return NewProxyTLS(backend, nil, nil)
}

// NewProxyTLS listens on loopback and relays to backend, terminating
// TLS: serve is the identity presented to clients (nil = cleartext
// toward them), dial the client identity presented to the backend (nil
// = cleartext toward it).
func NewProxyTLS(backend string, serve, dial *tls.Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, serveTLS: serve, dialTLS: dial, backend: backend, pairs: make(map[net.Conn]net.Conn)}
	go p.accept()
	return p, nil
}

// Addr is the proxy's stable client-facing address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetBackend repoints the proxy (new connections only) — the restarted
// daemon's new listen address.
func (p *Proxy) SetBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// DropAckAt schedules batch acks by global 1-based ordinal (counted
// across all connections) to be swallowed, killing the carrying
// connection — the precise "server committed, client never learned"
// window that forces a client replay.
func (p *Proxy) DropAckAt(ordinals ...int) {
	p.mu.Lock()
	if p.dropAckAt == nil {
		p.dropAckAt = make(map[int]bool)
	}
	for _, n := range ordinals {
		p.dropAckAt[n] = true
	}
	p.mu.Unlock()
}

// ArmAckDrop arms a one-shot fault: the next batch ack (any
// connection) is swallowed and its connection killed. The returned
// channel closes when the drop fires.
func (p *Proxy) ArmAckDrop() <-chan struct{} {
	ch := make(chan struct{})
	p.mu.Lock()
	p.armedAcks = append(p.armedAcks, ch)
	p.mu.Unlock()
	return ch
}

// replyHold is one armed stall: held closes when a reply is caught,
// release (closed by the test) lets it through.
type replyHold struct{ held, release chan struct{} }

// ArmReplyHold arms a one-shot stall: the next batch reply (an ack or a
// rejection, any connection) is caught and its connection's
// server→client direction stops relaying until release is called. held
// closes when the reply is caught — the server has answered and the
// client is still waiting, so the request stays in flight for exactly
// as long as the test needs it to. Nothing is lost: release delivers
// the caught reply and everything queued behind it.
func (p *Proxy) ArmReplyHold() (held <-chan struct{}, release func()) {
	h := replyHold{held: make(chan struct{}), release: make(chan struct{})}
	p.mu.Lock()
	p.armedHolds = append(p.armedHolds, h)
	p.mu.Unlock()
	var once sync.Once
	return h.held, func() { once.Do(func() { close(h.release) }) }
}

// ArmChunkDrop arms a one-shot fault: the next query chunk frame (a
// follow or query result batch) silently evaporates while the
// connection stays up — a sequence gap the downstream gap detector
// must catch. The returned channel closes when the drop fires.
func (p *Proxy) ArmChunkDrop() <-chan struct{} {
	ch := make(chan struct{})
	p.mu.Lock()
	p.armedChunks = append(p.armedChunks, ch)
	p.mu.Unlock()
	return ch
}

// CutConns kills every live connection pair (mid-stream connection
// drop); the proxy keeps accepting new ones.
func (p *Proxy) CutConns() {
	p.mu.Lock()
	for c, b := range p.pairs {
		c.Close()
		b.Close()
	}
	p.mu.Unlock()
}

// Partition cuts every live connection and refuses new ones until
// Heal — the network between this proxy's clients and the backend is
// gone.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	for c, b := range p.pairs {
		c.Close()
		b.Close()
	}
	p.mu.Unlock()
}

// Heal ends a Partition. Idempotent.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// AcksDropped reports how many batch acks the proxy has swallowed.
func (p *Proxy) AcksDropped() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acksDropped
}

// ChunksDropped reports how many query chunk frames the proxy has
// swallowed.
func (p *Proxy) ChunksDropped() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.chunksDropped
}

// Close stops the proxy and kills every live connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.CutConns()
}

func (p *Proxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		backend := p.backend
		refuse := p.partitioned || p.closed
		p.mu.Unlock()
		if refuse {
			c.Close()
			continue
		}
		b, err := net.Dial("tcp", backend)
		if err != nil {
			c.Close()
			continue
		}
		if p.dialTLS != nil {
			conf := p.dialTLS
			if conf.ServerName == "" && !conf.InsecureSkipVerify {
				host, _, err := net.SplitHostPort(backend)
				if err != nil {
					host = backend
				}
				conf = conf.Clone()
				conf.ServerName = host
			}
			b = tls.Client(b, conf)
		}
		if p.serveTLS != nil {
			c = tls.Server(c, p.serveTLS)
		}
		p.mu.Lock()
		if p.partitioned || p.closed {
			p.mu.Unlock()
			c.Close()
			b.Close()
			continue
		}
		p.pairs[c] = b
		p.mu.Unlock()
		go func() { io.Copy(b, c); b.Close(); c.Close() }() // client → server, transparent
		go p.relay(c, b)
	}
}

// relay is the frame-aware server→client direction: every envelope is
// decoded far enough to spot the ops the armed faults target.
func (p *Proxy) relay(c, b net.Conn) {
	defer func() {
		p.mu.Lock()
		delete(p.pairs, c)
		p.mu.Unlock()
	}()
	kill := func() { c.Close(); b.Close() }
	dec := wire.NewStreamDecoder(b)
	enc := wire.NewStreamEncoder(c)
	for {
		env, err := dec.Envelope()
		if err != nil {
			kill()
			return
		}
		if op, err := wire.PeekOp(env); err == nil {
			if op == wire.OpIngestAck || op == wire.OpIngestError {
				p.mu.Lock()
				var hold *replyHold
				if len(p.armedHolds) > 0 {
					hold = &p.armedHolds[0]
					p.armedHolds = p.armedHolds[1:]
				}
				p.mu.Unlock()
				if hold != nil {
					close(hold.held)
					<-hold.release
				}
			}
			switch op {
			case wire.OpIngestAck:
				p.mu.Lock()
				p.ackSeen++
				drop := p.dropAckAt[p.ackSeen]
				if !drop && len(p.armedAcks) > 0 {
					armed := p.armedAcks[0]
					p.armedAcks = p.armedAcks[1:]
					close(armed)
					drop = true
				}
				if drop {
					p.acksDropped++
				}
				p.mu.Unlock()
				if drop {
					kill()
					return
				}
			case wire.OpQueryChunk:
				p.mu.Lock()
				drop := false
				if len(p.armedChunks) > 0 {
					armed := p.armedChunks[0]
					p.armedChunks = p.armedChunks[1:]
					close(armed)
					p.chunksDropped++
					drop = true
				}
				p.mu.Unlock()
				if drop {
					continue // the chunk evaporates; the stream lives on
				}
			}
		}
		if enc.Envelope(env) != nil || enc.Flush() != nil {
			kill()
			return
		}
	}
}
