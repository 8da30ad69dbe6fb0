package provclient

// Cluster-map fetch: the client side of the partition-map request
// (wire/cluster.go, docs/protocol.md "Cluster map"). A routing client
// refreshes its map through this whenever a leader rejects a batch
// with a "cluster:" ownership error; any node in the fleet can answer,
// since rollouts go leaders-first.

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// FetchClusterMap asks the server for its current partition map on a
// kept read connection, the way QueryAll runs: taken from the idle list
// (or dialed), handed back once the reply is read, and retried once on
// a fresh dial if a kept connection turns out dead. A server that
// closes a fresh connection instead of answering — an old node without
// the cluster family — comes back as *ServerError.
func (c *Client) FetchClusterMap() (wire.ClusterMap, error) {
	var cm wire.ClusterMap
	err := c.exchange("cluster map", func(qc *qconn) error {
		id := qc.next()
		e := wire.NewEncoder()
		e.ClusterMapReq(id)
		if err := qc.send(e.Bytes()); err != nil {
			return fmt.Errorf("provclient: sending cluster map request: %w", err)
		}
		if c.opts.RequestTimeout > 0 {
			qc.nc.SetReadDeadline(time.Now().Add(c.opts.RequestTimeout))
			defer qc.nc.SetReadDeadline(time.Time{})
		}
		env, err := qc.read(wire.IsClusterOp, "cluster map")
		if err != nil {
			return err
		}
		m, err := wire.DecodeCluster(env)
		if err != nil {
			return fmt.Errorf("provclient: decoding cluster map: %w", err)
		}
		if m.Op != wire.OpClusterMap || m.ID != id {
			return fmt.Errorf("provclient: cluster map reply had opcode %#x id %d", m.Op, m.ID)
		}
		qc.settled = true
		if m.Err != "" {
			return &ServerError{Msg: m.Err}
		}
		cm = m.Map
		return nil
	})
	return cm, err
}
