package provd

// The /metrics emitter: every provd_* line the daemon prints is written
// in this file, in the conventional one-gauge-per-line text form, and
// cmd/doccheck holds the names here and the metrics table in
// docs/operations.md to each other.

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rp := getReply()
	defer rp.release()
	s.writeMetrics(&rp.buf)
	rp.send(w, http.StatusOK, textContentType)
}

func (s *Server) writeMetrics(w io.Writer) {
	fmt.Fprintf(w, "provd_http_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(w, "provd_http_connections_total %d\n", s.conns.Load())
	fmt.Fprintf(w, "provd_http_bad_requests_total %d\n", s.badReqs.Load())
	fmt.Fprintf(w, "provd_uptime_seconds %.3f\n", time.Since(s.started).Seconds())
	s.backend.metrics(w)
	if cv := s.cluster; cv != nil {
		clusterGauges(w, cv.Epoch(), len(cv.WireMap().Leaders))
	}
	if s.ingest != nil {
		in := s.ingest.Stats()
		fmt.Fprintf(w, "provd_ingest_connections_total %d\n", in.Accepted)
		fmt.Fprintf(w, "provd_ingest_connections_active %d\n", in.Active)
		fmt.Fprintf(w, "provd_ingest_requests_total %d\n", in.Requests)
		fmt.Fprintf(w, "provd_ingest_records_total %d\n", in.Records)
		fmt.Fprintf(w, "provd_ingest_commits_total %d\n", in.Commits)
		fmt.Fprintf(w, "provd_ingest_rejects_total %d\n", in.Rejects)
		fmt.Fprintf(w, "provd_ingest_conn_failures_total %d\n", in.ConnFails)
		fmt.Fprintf(w, "provd_ingest_sessions_total %d\n", in.Sessions)
		fmt.Fprintf(w, "provd_ingest_dedup_replays_total %d\n", in.DedupReplays)
		fmt.Fprintf(w, "provd_ingest_dedup_records_total %d\n", in.DedupRecords)
		fmt.Fprintf(w, "provd_ingest_dedup_evicted_total %d\n", in.DedupEvicted)
		fmt.Fprintf(w, "provd_ingest_dedup_checkpoint_failures_total %d\n", in.CheckpointFails)
		fmt.Fprintf(w, "provd_ingest_queries_total %d\n", in.Queries)
		fmt.Fprintf(w, "provd_ingest_query_records_total %d\n", in.QueryRecords)
		fmt.Fprintf(w, "provd_ingest_follows_total %d\n", in.Follows)
		fmt.Fprintf(w, "provd_ingest_query_rejects_total %d\n", in.QueryRejects)
		fmt.Fprintf(w, "provd_ingest_snapshots_total %d\n", in.Snapshots)
		fmt.Fprintf(w, "provd_ingest_snapshot_records_total %d\n", in.SnapshotRecords)
		fmt.Fprintf(w, "provd_ingest_parked_conns %d\n", in.Parked)
		fmt.Fprintf(w, "provd_ingest_parks_total %d\n", in.Parks)
		fmt.Fprintf(w, "provd_ingest_wakes_total %d\n", in.Wakes)
	}
	ps := wire.PoolStats()
	fmt.Fprintf(w, "provd_wire_pool_hits_total %d\n", ps.Hits)
	fmt.Fprintf(w, "provd_wire_pool_misses_total %d\n", ps.Misses)
	fmt.Fprintf(w, "provd_wire_pool_returns_total %d\n", ps.Returns)
	if s.auth != nil {
		fmt.Fprintf(w, "provd_auth_conn_rejects_total %d\n", s.auth.ConnRejects.Load())
		fmt.Fprintf(w, "provd_auth_append_rejects_total %d\n", s.auth.AppendRejects.Load())
		fmt.Fprintf(w, "provd_auth_query_rejects_total %d\n", s.auth.QueryRejects.Load())
		fmt.Fprintf(w, "provd_auth_snapshot_rejects_total %d\n", s.auth.SnapshotRejects.Load())
	}
}

// clusterGauges prints the partition map a process serves under — on
// every node of a fleet, which is how an operator confirms a rollout.
func clusterGauges(w io.Writer, epoch uint64, leaders int) {
	fmt.Fprintf(w, "provd_cluster_epoch %d\n", epoch)
	fmt.Fprintf(w, "provd_cluster_leaders %d\n", leaders)
}

// metrics prints the engine and store counters, and a replica's
// replication gauges. Store sizes come from the engine's lock-free
// Counts snapshot, so scraping never touches the append path's stripe
// locks.
func (b *localBackend) metrics(w io.Writer) {
	qs := b.Stats()
	fmt.Fprintf(w, "provd_redactions_total %d\n", qs.Redactions+qs.Denials)
	fmt.Fprintf(w, "provd_query_pages_total %d\n", qs.Queries)
	fmt.Fprintf(w, "provd_query_records_total %d\n", qs.Records)
	fmt.Fprintf(w, "provd_query_denials_total %d\n", qs.Denials)
	fmt.Fprintf(w, "provd_query_bad_cursors_total %d\n", qs.BadCursors)
	st := b.store.Stats()
	fmt.Fprintf(w, "provd_store_appends_total %d\n", st.Appends)
	fmt.Fprintf(w, "provd_store_batch_appends_total %d\n", st.BatchAppends)
	fmt.Fprintf(w, "provd_store_appended_bytes_total %d\n", st.AppendedBytes)
	fmt.Fprintf(w, "provd_store_rotations_total %d\n", st.Rotations)
	fmt.Fprintf(w, "provd_store_segment_writes_total %d\n", st.SegmentWrites)
	fmt.Fprintf(w, "provd_store_compactions_total %d\n", st.Compactions)
	fmt.Fprintf(w, "provd_store_audits_total %d\n", st.Audits)
	fmt.Fprintf(w, "provd_store_audit_failures_total %d\n", st.AuditFailures)
	fmt.Fprintf(w, "provd_store_recovered_records_total %d\n", st.RecoveredRecords)
	fmt.Fprintf(w, "provd_store_truncated_bytes_total %d\n", st.TruncatedBytes)
	fmt.Fprintf(w, "provd_store_shard_cap_rejects_total %d\n", st.ShardCapRejects)
	fmt.Fprintf(w, "provd_store_sync_barriers_total %d\n", st.SyncBarriers)
	fmt.Fprintf(w, "provd_store_segment_syncs_total %d\n", st.SegmentSyncs)
	fmt.Fprintf(w, "provd_store_principals %d\n", st.Principals)
	fmt.Fprintf(w, "provd_store_records %d\n", st.Records)
	fmt.Fprintf(w, "provd_store_sessions %d\n", st.Sessions)
	fmt.Fprintf(w, "provd_store_session_entries %d\n", st.SessionEntries)
	fmt.Fprintf(w, "provd_store_session_compactions_total %d\n", st.SessionCompactions)
	fmt.Fprintf(w, "provd_store_sessions_evicted_total %d\n", st.SessionsEvicted)
	fmt.Fprintf(w, "provd_store_next_seq %d\n", st.NextSeq)
	if b.replica == nil {
		return
	}
	rs := b.replica.Status()
	fmt.Fprintf(w, "provd_replica_applied_seq %d\n", rs.AppliedSeq)
	fmt.Fprintf(w, "provd_replica_leader_seq %d\n", rs.LeaderSeq)
	fmt.Fprintf(w, "provd_replica_lag_records %d\n", rs.LagRecords)
	fmt.Fprintf(w, "provd_replica_lag_seconds %.3f\n", rs.LagSeconds)
	fmt.Fprintf(w, "provd_replica_bootstraps_total %d\n", rs.Bootstraps)
	fmt.Fprintf(w, "provd_replica_bootstrap_records_total %d\n", rs.BootstrapRecords)
	fmt.Fprintf(w, "provd_replica_follows_total %d\n", rs.Follows)
	fmt.Fprintf(w, "provd_replica_applied_batches_total %d\n", rs.AppliedBatches)
	fmt.Fprintf(w, "provd_replica_applied_records_total %d\n", rs.AppliedRecords)
	fmt.Fprintf(w, "provd_replica_gaps_total %d\n", rs.Gaps)
	fmt.Fprintf(w, "provd_replica_gaps_accepted_total %d\n", rs.GapsAccepted)
	diverged := 0
	if rs.Diverged {
		diverged = 1
	}
	fmt.Fprintf(w, "provd_replica_diverged %d\n", diverged)
}

// metrics prints the partition map the coordinator routes under and its
// audit-routing counters.
func (b *fleetBackend) metrics(w io.Writer) {
	m := b.Map()
	clusterGauges(w, m.Epoch, len(m.Leaders))
	fmt.Fprintf(w, "provd_cluster_audit_proxies_total %d\n", b.proxied.Load())
	fmt.Fprintf(w, "provd_cluster_audit_refusals_total %d\n", b.refusals.Load())
}
