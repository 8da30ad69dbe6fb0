package cluster

// The routing client: one producer-facing write surface over a
// partitioned fleet. Every batch is split by owning partition under the
// client's current map and each slice is delivered to its leader
// through a dedicated provclient.Client — so each leader sees an
// ordinary exactly-once session, with batch sequences minted once and
// never re-minted across transport retries (that discipline lives in
// provclient.sendChunk and is inherited wholesale). Sessions are keyed
// by *leader ID*, not partition index: an epoch rollout that moves
// principals around keeps every leader's session — and with it the
// dedup floor — intact.
//
// Stale maps heal in-band. A leader that does not own a batch's
// principal under its own map refuses the batch per request with an
// error starting "cluster:" (nothing appended); the client refetches
// the map from the fleet, re-splits the refused slice under the fresh
// epoch, and re-sends each piece to its new owner — under the new
// owner's session and a freshly minted sequence, which is safe exactly
// because the refusal guaranteed none of it landed. Slices are capped
// at one wire chunk so a refusal is always all-or-nothing.

import (
	"crypto/rand"
	"crypto/tls"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/wire"
)

// ClientOptions tunes a routing client.
type ClientOptions struct {
	// Session is the base idempotency session; each leader's session is
	// "<Session>@<leaderID>" (random base by default), so one logical
	// producer resumes all its per-leader sessions together.
	Session string
	// Conns, MaxBatch, DialTimeout, RequestTimeout, Retries tune each
	// per-leader provclient.Client (see provclient.Options).
	Conns          int
	MaxBatch       int
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	Retries        int
	// TLS is the template config for every leader dial; each leader's
	// clone sets ServerName to the leader's TLSName when the map names
	// one.
	TLS *tls.Config
	// Token authenticates cleartext connections (the dev shape).
	Token string
	// JournalDir, when set, gives each per-leader client a write-ahead
	// journal at <JournalDir>/<leaderID>.journal, replayed when the
	// leader's client is first built — exactly-once across producer
	// crashes, per partition (see provclient.OpenJournal).
	JournalDir string
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Session == "" {
		var b [16]byte
		rand.Read(b[:])
		o.Session = hex.EncodeToString(b[:])
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBatch > wire.MaxIngestBatch {
		o.MaxBatch = wire.MaxIngestBatch
	}
	return o
}

// mapRetries bounds how many map refresh + re-route rounds one slice
// may take before its error surfaces.
const mapRetries = 2

// PartitionAck reports one leader's share of an Append.
type PartitionAck struct {
	Leader  string // leader ID
	Base    uint64 // first global sequence the leader assigned this call
	Records int    // actions acked durable on this leader
}

// leaderConn pins a per-leader client to the address it was built for,
// so an epoch that moves a leader ID to a new address rebuilds it.
type leaderConn struct {
	cl   *provclient.Client
	addr string
}

// Client is a routing ingest client over a partitioned fleet.
type Client struct {
	opts ClientOptions

	mu     sync.Mutex
	m      *Map
	conns  map[string]*leaderConn // by leader ID
	closed bool
}

// NewClient returns a routing client over a validated map. Connections
// are established lazily per leader.
func NewClient(m *Map, opts ClientOptions) *Client {
	return &Client{opts: opts.withDefaults(), m: m, conns: make(map[string]*leaderConn)}
}

// Map returns the client's current partition map.
func (c *Client) Map() *Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Session returns the client's base session identifier.
func (c *Client) Session() string { return c.opts.Session }

// leaderClient returns (building if needed) the exactly-once client for
// one leader.
func (c *Client) leaderClient(l Leader) (*provclient.Client, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, provclient.ErrClosed
	}
	if lc, ok := c.conns[l.ID]; ok && lc.addr == l.Ingest {
		c.mu.Unlock()
		return lc.cl, nil
	}
	c.mu.Unlock()

	// Build outside the lock (journal open + replay can touch disk and
	// network), then install under it, first build wins.
	var tlsConf *tls.Config
	if c.opts.TLS != nil {
		tlsConf = c.opts.TLS.Clone()
		if l.TLSName != "" {
			tlsConf.ServerName = l.TLSName
		}
	}
	popts := provclient.Options{
		Conns:          c.opts.Conns,
		MaxBatch:       c.opts.MaxBatch,
		DialTimeout:    c.opts.DialTimeout,
		RequestTimeout: c.opts.RequestTimeout,
		Retries:        c.opts.Retries,
		Session:        c.opts.Session + "@" + l.ID,
		TLSConfig:      tlsConf,
		Token:          c.opts.Token,
	}
	if c.opts.JournalDir != "" {
		j, err := provclient.OpenJournal(filepath.Join(c.opts.JournalDir, l.ID+".journal"))
		if err != nil {
			return nil, err
		}
		popts.Journal = j
	}
	cl := provclient.New(l.Ingest, popts)
	if popts.Journal != nil && len(popts.Journal.Pending()) > 0 {
		if _, err := cl.ReplayJournal(); err != nil {
			cl.Close()
			return nil, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		go cl.Close()
		return nil, provclient.ErrClosed
	}
	if lc, ok := c.conns[l.ID]; ok && lc.addr == l.Ingest {
		go cl.Close() // lost the race; keep the installed one
		return lc.cl, nil
	}
	if lc, ok := c.conns[l.ID]; ok {
		go lc.cl.Close() // stale address from an older epoch
	}
	c.conns[l.ID] = &leaderConn{cl: cl, addr: l.Ingest}
	return cl, nil
}

// Refresh refetches the partition map from the fleet and adopts it if
// its epoch is newer than the client's. Every leader of the current map
// is asked; the freshest answer wins. An error means no leader offered
// anything newer — the likely operator mistake (a client map rolled out
// before the leaders') is named rather than retried forever.
func (c *Client) Refresh() error {
	cur := c.Map()
	var best *Map
	var lastErr error
	for _, l := range cur.Leaders {
		cl, err := c.leaderClient(l)
		if err != nil {
			lastErr = err
			continue
		}
		wm, err := cl.FetchClusterMap()
		if err != nil {
			lastErr = err
			continue
		}
		m, err := FromWire(wm)
		if err != nil {
			lastErr = err
			continue
		}
		if best == nil || m.Epoch > best.Epoch {
			best = m
		}
	}
	if best == nil {
		return fmt.Errorf("cluster: map refresh failed against every leader: %w", lastErr)
	}
	if best.Epoch <= cur.Epoch {
		if best.Epoch == cur.Epoch {
			return nil // fleet agrees with us; the reject was a lagging node
		}
		return fmt.Errorf("cluster: fleet serves epoch %d, older than this client's %d (roll maps out leaders-first)", best.Epoch, cur.Epoch)
	}
	c.mu.Lock()
	if best.Epoch > c.m.Epoch {
		c.m = best
	}
	c.mu.Unlock()
	return nil
}

// isClusterReject recognises a leader's ownership refusal — the one
// server rejection that is safe and correct to re-route.
func isClusterReject(err error) bool {
	var se *provclient.ServerError
	return errors.As(err, &se) && strings.HasPrefix(se.Msg, "cluster:")
}

// ackCollector aggregates per-leader acks across concurrent slices.
type ackCollector struct {
	mu   sync.Mutex
	acks map[string]*PartitionAck
}

func (a *ackCollector) add(leader string, base uint64, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.acks == nil {
		a.acks = make(map[string]*PartitionAck)
	}
	if p, ok := a.acks[leader]; ok {
		p.Records += n
	} else {
		a.acks[leader] = &PartitionAck{Leader: leader, Base: base, Records: n}
	}
}

// Append routes one batch across the fleet: split by owning partition,
// delivered to each leader in order, re-routed on stale-map refusals.
// The per-partition acks report where every action landed. On error,
// each leader has still committed a prefix of its slice (the per-leader
// contract), and nothing was appended twice.
func (c *Client) Append(acts []logs.Action) ([]PartitionAck, error) {
	if len(acts) == 0 {
		return nil, nil
	}
	m := c.Map()
	// Slice the batch by owner, preserving each partition's internal
	// order (all that matters: cross-principal order across partitions
	// is not observable in a multi-leader fleet).
	groups := make(map[int][]logs.Action)
	for _, a := range acts {
		o := m.Owner(a.Principal)
		groups[o] = append(groups[o], a)
	}
	col := &ackCollector{}
	var wg sync.WaitGroup
	errs := make([]error, 0, len(groups))
	var emu sync.Mutex
	for idx, group := range groups {
		wg.Add(1)
		go func(idx int, group []logs.Action) {
			defer wg.Done()
			// One wire chunk at a time: a chunk is refused atomically, so
			// re-routing it cannot duplicate a committed prefix.
			for start := 0; start < len(group); start += c.opts.MaxBatch {
				end := min(start+c.opts.MaxBatch, len(group))
				if err := c.sendSlice(m, idx, group[start:end], 0, col); err != nil {
					emu.Lock()
					errs = append(errs, err)
					emu.Unlock()
					return
				}
			}
		}(idx, group)
	}
	wg.Wait()
	acks := make([]PartitionAck, 0, len(col.acks))
	for _, p := range col.acks {
		acks = append(acks, *p)
	}
	if len(errs) > 0 {
		return acks, errs[0]
	}
	return acks, nil
}

// sendSlice delivers one single-chunk slice to the leader owning it
// under map m, re-splitting and re-routing under a refreshed map when
// the leader refuses ownership.
func (c *Client) sendSlice(m *Map, idx int, slice []logs.Action, depth int, col *ackCollector) error {
	l := m.Leaders[idx]
	cl, err := c.leaderClient(l)
	if err != nil {
		return err
	}
	base, err := cl.AppendBatch(slice)
	if err == nil {
		col.add(l.ID, base, len(slice))
		return nil
	}
	if !isClusterReject(err) || depth >= mapRetries {
		return err
	}
	// The leader's map disagrees with ours and nothing was appended:
	// refresh, re-split this slice under the fresh epoch (its actions
	// may now scatter), and deliver each piece to its new owner.
	if rerr := c.Refresh(); rerr != nil {
		return fmt.Errorf("%w (map refresh after reject: %v)", err, rerr)
	}
	fresh := c.Map()
	regroup := make(map[int][]logs.Action)
	for _, a := range slice {
		o := fresh.Owner(a.Principal)
		regroup[o] = append(regroup[o], a)
	}
	for nidx, sub := range regroup {
		if err := c.sendSlice(fresh, nidx, sub, depth+1, col); err != nil {
			return err
		}
	}
	return nil
}

// AppendBatch routes a batch and returns only the error — the
// runtime.Sink-compatible shape (see Append for acks).
func (c *Client) AppendBatch(acts []logs.Action) error {
	_, err := c.Append(acts)
	return err
}

// AppendActions implements runtime.Sink.
func (c *Client) AppendActions(batch []logs.Action) error { return c.AppendBatch(batch) }

// Leader exposes the underlying exactly-once client for one leader —
// the read plane (fleet queries, audits) is built on these.
func (c *Client) Leader(id string) (*provclient.Client, error) {
	m := c.Map()
	i := m.Index(id)
	if i < 0 {
		return nil, fmt.Errorf("cluster: unknown leader %q at epoch %d", id, m.Epoch)
	}
	return c.leaderClient(m.Leaders[i])
}

// Flush flushes every live leader client's open group batch.
func (c *Client) Flush() error {
	c.mu.Lock()
	conns := make([]*leaderConn, 0, len(c.conns))
	for _, lc := range c.conns {
		conns = append(conns, lc)
	}
	c.mu.Unlock()
	var first error
	for _, lc := range conns {
		if err := lc.cl.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close tears down every leader client.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*leaderConn, 0, len(c.conns))
	for _, lc := range c.conns {
		conns = append(conns, lc)
	}
	c.mu.Unlock()
	var first error
	for _, lc := range conns {
		if err := lc.cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
