package main

import "slices"

// metricDef declares one reported metric. Moves and On record, for a
// per-layer metric, which end-to-end metrics it should move and on which
// workloads, so later changes cite the pairing by name.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Moves  string
	On     string
}

// endToEnd are measured with tracing off; they are what a user of edfd
// or edfproxy sees.
var endToEnd = []metricDef{
	{Name: "cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

const (
	hitLayers     = "cpu_us_per_req, load.p50_ms, load.capacity_rps"
	analysisMoves = "cpu_us_per_req, load.p50_ms, load.p99_ms, load.capacity_rps"
	sessionLayers = "session-durable; in-process probe in miss-direct's traced run"
)

// perLayer come from the traced run.
var perLayer = []metricDef{
	{"cluster.hop_us", "us", "lower", "load.p50_ms, cpu_us_per_req", "hit-proxy"},
	{"service.decode_us", "us", "lower", hitLayers, "hit-proxy; less on miss-direct"},
	{"service.decode_allocs", "count", "lower", hitLayers, "hit-proxy; less on miss-direct"},
	{"workload.validate_us", "us", "lower", hitLayers, "hit-proxy; less on miss-direct"},
	{"engine.fingerprint_us", "us", "lower", hitLayers, "hit-proxy; less on miss-direct"},
	{"engine.fingerprint_allocs", "count", "lower", hitLayers, "hit-proxy; less on miss-direct"},
	{"service.cache_get_us", "us", "lower", hitLayers, "hit-proxy; less on miss-direct"},
	{"service.cache_hit_ratio", "ratio", "higher", hitLayers, "hit-proxy; less on miss-direct"},
	{"service.encode_us", "us", "lower", hitLayers, "hit-proxy; less on miss-direct"},
	{"engine.analyze_us", "us", "lower", analysisMoves, "miss-direct"},
	{"core.liu_us", "us", "lower", analysisMoves, "miss-direct"},
	{"core.devi_us", "us", "lower", analysisMoves, "miss-direct"},
	{"core.superpos_us", "us", "lower", analysisMoves, "miss-direct"},
	{"core.allapprox_us", "us", "lower", analysisMoves, "miss-direct"},
	{"core.superpos_reach", "ratio", "lower", analysisMoves, "miss-direct"},
	{"core.allapprox_reach", "ratio", "lower", analysisMoves, "miss-direct"},
	{"core.allapprox_intervals", "count", "lower", analysisMoves, "miss-direct"},
	{"numeric.promotions_per_analysis", "count", "lower", analysisMoves, "miss-direct"},
	{"partition.place_us", "us", "lower", "load.p99_ms, cpu_us_per_req", "hit-proxy"},
	{"partition.place_allocs", "count", "lower", "load.p99_ms, cpu_us_per_req", "hit-proxy"},
	{"partition.bin_hit_ratio", "ratio", "higher", "load.p99_ms, cpu_us_per_req", "hit-proxy"},
	{"service.propose_us", "us", "lower", "load.p50_ms", sessionLayers},
	{"service.propose_allocs", "count", "lower", "load.p50_ms", sessionLayers},
	{"incremental.escalation_share", "ratio", "lower", "load.p50_ms", sessionLayers},
	{"store.append_sync_us", "us", "lower", "load.p99_ms, load.capacity_rps", sessionLayers},
	{"store.fsyncs_per_record", "count", "lower", "load.p99_ms, load.capacity_rps", sessionLayers},
	{"bench.unattributed_share", "ratio", "lower", "share of no-load latency no layer span covers", "all"},
	{"bench.replay_untraced_ms", "ms", "lower", "wall time of the replayed sample, tracing off", "all"},
	{"bench.replay_traced_ms", "ms", "lower", "wall time of the same replay, tracing on", "all"},
	{"load.capacity_rps", "1/s", "higher", "closed-loop throughput: moves with CPU steal on a shared 2-CPU host, so unbounded", "all"},
	{"load.p50_ms", "ms", "lower", "open-loop median from due time: too noisy on a shared 2-CPU host to bound", "all"},
	{"load.p99_ms", "ms", "lower", "open-loop p99 from due time: too noisy on a shared 2-CPU host to bound", "all"},
	{"load.late_p99_ms", "ms", "lower", "generator health: p99 release delay behind schedule", "all"},
	{"edfd.cache_hit_rate", "ratio", "higher", hitLayers, "hit-proxy"},
	{"edfd.throttled", "count", "lower", "load.p99_ms; a 429 also counts as a failed request", "all"},
}

// metricOrder lists a result's metric names in declaration order.
func metricOrder(m map[string]float64) []string {
	var out []string
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, ok := m[d.Name]; ok {
				out = append(out, d.Name)
			}
		}
	}
	return out
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if i := slices.IndexFunc(defs, func(d metricDef) bool { return d.Name == name }); i >= 0 {
			return defs[i].Unit
		}
	}
	return ""
}
