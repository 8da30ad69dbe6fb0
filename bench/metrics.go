package main

// The metric registry: every name the benchmark prints, with its unit,
// its direction and — for end-to-end metrics — the share of the
// parent's median by which it may worsen before a change is rejected.
// BENCHMARK.json repeats this list for the driver; bench_test.go keeps
// the two in step. bench/README.md has the glossary and, per layer
// metric, the end-to-end metric and workload it is predicted to move.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadNames = []string{"firehose", "trickle", "audit-mix", "fleet"}

// workloadWhy is the one-line reason each workload exists, as
// BENCHMARK.json states it; the workloads' own files say more.
var workloadWhy = map[string]string{
	"firehose":  "closed loop, 2 producers, batches of 256 over 64 principals, fsync off: per-record CPU (codec, admission, store append) dominates; what a codec/pool/readLoop change must move",
	"trickle":   "open loop, single-record appends over 2048 principals at 1000/4000/16000/64000 per s: latency is flush deadline + commit wait + fsync; what a commit-barrier or batcher change must move",
	"audit-mix": "preloaded store; 1 reader cycling HTTP pages, binary tail-256, a redacted global walk and /audit beside a 5000/s open-loop writer: query, provd and store scans, with the cost to appends visible",
	"fleet":     "cluster.Client routing batches of 16 to 2 leaders, a replica following L0 and a coordinator paging the merged log: the only workload where cluster, Merger, replica and coordinator do the work",
}

// runSeconds is the length of one measured run the driver asks for.
const runSeconds = 10

// benchmarkSpec renders BENCHMARK.json from the registry (go run ./bench -spec).
func benchmarkSpec() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var wls []wl
	for _, n := range workloadNames {
		wls = append(wls, wl{n, workloadWhy[n]})
	}
	var layers []layerDef
	for _, d := range perLayer {
		layers = append(layers, layerDef{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"go", "run", "-buildvcs=false", "./bench"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}
}

// endToEnd metrics are what a user of the log service sees; every
// workload reports every one of them (see README for what each means
// on a workload whose traffic does not centre on it).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_records_per_s", "1/s", "higher", 0.25},
	{"batch_ack_p50_ms", "ms", "lower", 0.25},
	{"append_ack_p50_ms", "ms", "lower", 0.25},
	{"query_page_p50_ms", "ms", "lower", 0.25},
	{"read_records_per_s", "1/s", "higher", 0.25},
	{"audit_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"cpu_us_per_record", "us", "lower", 0.25},
	{"disk_bytes_per_record", "bytes", "lower", 0.05},
	{"heap_bytes_per_record", "bytes", "lower", 0.10},
}

// perLayer metrics come from the -trace run: the ladder, the direct
// layer probes, the counter deltas, and the end-to-end metrics that are
// defined on one workload only, can legitimately be zero, or do not
// repeat within any bound on the reference box (demoted here because
// the driver gates every end-to-end metric on every workload, refuses
// zeros, and accepts no spread wider than the bound).
var perLayer = []metricDef{
	// Demoted end-to-end metrics (names kept stable).
	{"append_ack_p95_ms", "ms", "lower", 0},
	{"peak_rss_mb", "MiB", "lower", 0},
	{"slo_rate_records_per_s", "1/s", "higher", 0},
	{"replica_visible_p50_ms", "ms", "lower", 0},
	{"merged_page_p50_ms", "ms", "lower", 0},
	{"failed_ops_ratio", "ratio", "lower", 0},

	{"wire.encode_ns_per_record", "ns", "lower", 0},
	{"wire.decode_ns_per_record", "ns", "lower", 0},
	{"wire.bytes_per_record", "bytes", "lower", 0},
	{"wire.pool_hit_ratio", "ratio", "higher", 0},

	{"store.append_ns_per_record", "ns", "lower", 0},
	{"store.fsync_us_per_commit", "us", "lower", 0},
	{"store.session_checkpoint_us_per_batch", "us", "lower", 0},
	{"store.appended_bytes_per_record", "bytes", "lower", 0},
	{"store.rotations", "count", "lower", 0},
	{"store.scan_shard_ns_per_record", "ns", "lower", 0},
	{"store.scan_global_ns_per_record", "ns", "lower", 0},
	{"store.audit_us", "us", "lower", 0},
	{"store.open_ns_per_record", "ns", "lower", 0},

	{"ingest.self_ns_per_record", "ns", "lower", 0},
	{"ingest.records_per_commit", "count", "higher", 0},
	{"ingest.requests_per_commit", "count", "higher", 0},
	{"ingest.rejects", "count", "lower", 0},
	{"ingest.conn_fails", "count", "lower", 0},
	{"ingest.dedup_replays", "count", "lower", 0},
	{"ingest.checkpoint_fails", "count", "lower", 0},
	{"ingest.parks", "count", "lower", 0},
	{"ingest.wakes", "count", "lower", 0},

	{"auth.tls_admission_ns_per_record", "ns", "lower", 0},

	{"provclient.self_ns_per_record", "ns", "lower", 0},
	{"provclient.records_per_request", "count", "higher", 0},
	{"provclient.idle_append_ack_p50_ms", "ms", "lower", 0},
	{"provclient.direct_append_ack_p50_ms", "ms", "lower", 0},

	{"query.run_ns_per_record", "ns", "lower", 0},
	{"query.redact_ns_per_record", "ns", "lower", 0},
	{"query.merge_ns_per_record", "ns", "lower", 0},
	{"query.records_per_page", "count", "higher", 0},
	{"query.redactions", "count", "lower", 0},
	{"query.denials", "count", "lower", 0},
	{"query.bad_cursors", "count", "lower", 0},

	{"provd.http_log_self_us_per_page", "us", "lower", 0},
	{"provd.http_audit_self_us", "us", "lower", 0},
	{"provd.http_append_us", "us", "lower", 0},

	{"replica.apply_ns_per_record", "ns", "lower", 0},
	{"replica.records_per_batch", "count", "higher", 0},
	{"replica.lag_records_p50", "count", "lower", 0},
	{"replica.lag_records_max", "count", "lower", 0},
	{"replica.gaps", "count", "lower", 0},
	{"replica.stall_breaks", "count", "lower", 0},
	{"replica.bootstrap_records_per_s", "1/s", "higher", 0},

	{"cluster.route_self_ns_per_record", "ns", "lower", 0},
	{"cluster.owner_ns_per_lookup", "ns", "lower", 0},
	{"cluster.partition_skew", "ratio", "lower", 0},
	{"cluster.reroutes", "count", "lower", 0},

	{"ladder.top_rung_ns_per_record", "ns", "lower", 0},
	{"ladder.end_to_end_ns_per_record", "ns", "lower", 0},
	{"ladder.unattributed_ns_per_record", "ns", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.spans", "count", "higher", 0},

	{"proc.allocs_per_record", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_total_ms", "ms", "lower", 0},

	{"gen.late_p95_ms", "ms", "lower", 0},
	{"gen.achieved_rate_ratio", "ratio", "higher", 0},
	{"gen.shed_records", "count", "lower", 0},
	{"gen.append_ack_p95_ms.r1000", "ms", "lower", 0},
	{"gen.append_ack_p95_ms.r4000", "ms", "lower", 0},
	{"gen.append_ack_p95_ms.r16000", "ms", "lower", 0},
	{"gen.append_ack_p95_ms.r64000", "ms", "lower", 0},
	{"gen.batch_ack_p99_ms", "ms", "lower", 0},
	{"gen.append_ack_p99_ms", "ms", "lower", 0},
	{"gen.query_page_p99_ms", "ms", "lower", 0},
	{"gen.audit_p99_ms", "ms", "lower", 0},
}

// value is one reported number with what is needed to read it alone.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	P25     float64 `json:"p25,omitempty"`
	P75     float64 `json:"p75,omitempty"`
	TailQ   float64 `json:"tail_quantile,omitempty"`
	TailV   float64 `json:"tail_value,omitempty"`
}

// metricSet accumulates a run's values by name.
type metricSet map[string]value

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// set records a plain number (a rate, a count, a ratio).
func (m metricSet) set(name string, v float64) {
	m[name] = value{Value: v, Unit: unitOf(name)}
}

// setQ records quantile q of a timing series with its quartiles, its
// sample count and the highest percentile the sample supports.
func (m metricSet) setQ(name string, d dist, q float64) {
	v := value{Unit: unitOf(name), Samples: d.N}
	if d.N > 0 {
		v.Value, v.P25, v.P75, v.TailQ, v.TailV = quantile(d.sorted, q), d.P25, d.P75, d.TailQ, d.TailV
	}
	m[name] = v
}
