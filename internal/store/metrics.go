package store

import "sync/atomic"

// Metrics holds the store's operational counters. All fields are safe
// for concurrent use; read them through Stats.
type Metrics struct {
	// Appends counts records appended and BatchAppends the successful
	// append rounds: each Append (a batch of one), AppendBatch or
	// ApplyReplicated call.
	Appends            atomic.Uint64
	BatchAppends       atomic.Uint64
	AppendedBytes      atomic.Uint64
	Rotations          atomic.Uint64
	Compactions        atomic.Uint64
	SessionCompactions atomic.Uint64
	SessionsEvicted    atomic.Uint64
	Audits             atomic.Uint64
	AuditFailures      atomic.Uint64
	RecoveredRecords   atomic.Uint64
	TruncatedBytes     atomic.Uint64
	// ShardCapRejects counts appends refused by the MaxShards cap
	// (ErrShardCap). A nonzero, growing value is the capacity signal to
	// partition the principal space across leaders (docs/operations.md).
	ShardCapRejects atomic.Uint64
	// SyncBarriers counts durability barriers run (one per fsynced
	// Append, AppendBatch or ApplyReplicated, one per Sync and Close) and
	// SegmentSyncs the segment fsyncs they issued; their ratio is the
	// fsyncs one commit pays.
	SyncBarriers atomic.Uint64
	SegmentSyncs atomic.Uint64
	// SegmentWrites counts the segment writes of successful appends:
	// one per touched segment of an AppendBatch or ApplyReplicated (an
	// Append is a batch of one). Appends ÷ SegmentWrites is how many
	// records one write(2) carries.
	SegmentWrites atomic.Uint64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Appends            uint64
	BatchAppends       uint64
	AppendedBytes      uint64
	Rotations          uint64
	Compactions        uint64
	SessionCompactions uint64
	SessionsEvicted    uint64
	Audits             uint64
	AuditFailures      uint64
	RecoveredRecords   uint64
	TruncatedBytes     uint64
	ShardCapRejects    uint64
	SyncBarriers       uint64
	SegmentSyncs       uint64
	SegmentWrites      uint64
	Principals         int
	Records            int
	Sessions           int
	SessionEntries     int
	NextSeq            uint64
}

// Stats snapshots the metrics together with basic size figures. Sizes
// come from Counts, so a metrics scrape never touches a stripe lock.
func (s *Store) Stats() Stats {
	c := s.Counts()
	return Stats{
		Appends:            s.metrics.Appends.Load(),
		BatchAppends:       s.metrics.BatchAppends.Load(),
		AppendedBytes:      s.metrics.AppendedBytes.Load(),
		Rotations:          s.metrics.Rotations.Load(),
		Compactions:        s.metrics.Compactions.Load(),
		SessionCompactions: s.metrics.SessionCompactions.Load(),
		SessionsEvicted:    s.metrics.SessionsEvicted.Load(),
		Audits:             s.metrics.Audits.Load(),
		AuditFailures:      s.metrics.AuditFailures.Load(),
		RecoveredRecords:   s.metrics.RecoveredRecords.Load(),
		TruncatedBytes:     s.metrics.TruncatedBytes.Load(),
		ShardCapRejects:    s.metrics.ShardCapRejects.Load(),
		SyncBarriers:       s.metrics.SyncBarriers.Load(),
		SegmentSyncs:       s.metrics.SegmentSyncs.Load(),
		SegmentWrites:      s.metrics.SegmentWrites.Load(),
		Principals:         len(c.Principals),
		Records:            c.Records,
		Sessions:           s.sessions.Count(),
		SessionEntries:     s.sessions.EntryCount(),
		NextSeq:            c.NextSeq,
	}
}
