// Package obs is the telemetry subsystem threaded through every layer of
// the service stack: request tracing, the streaming admission event feed,
// and Prometheus text exposition.
//
// # Tracing
//
// A trace is minted per request at the outermost layer that sees it —
// edfproxy, or edfd when hit directly — and propagated downstream via the
// X-Edf-Trace header ([TraceHeader]). Each server captures cheap [Span]
// records (cache lookup, per-analyzer cascade stage, incremental fast
// path vs escalation, route and failover hops) into a bounded [Recorder]
// ring buffer, exposed at GET /v1/traces/{id}. The proxy merges its own
// spans with the serving replica's, so one trace ID resolves to the whole
// request tree: which replica served, which decision path ran, and where
// the time went.
//
// Spans on the analysis hot path record into a [StageLog] — a fixed-size,
// preallocated slot array owned by the caller — so the zero-allocation
// invariants of the analyzer and admission fast paths hold with tracing
// on.
//
// # The admission event feed
//
// Every admission decision (admit, reject, commit, rollback, open, close,
// expire) publishes an [Event] to a [Hub]. Subscribers receive events over
// buffered channels that never block the publisher (a slow subscriber
// drops events and the drop is counted); the service exposes the feed as
// server-sent events per session and server-wide, and the proxy fans the
// per-replica feeds into one fleet-wide stream with replica labels.
//
// # Prometheus exposition
//
// [ExpositionWriter] renders metric families in valid Prometheus text
// format (# HELP, # TYPE, escaped labels); [ParseExposition] and
// [ValidateExposition] are the matching small parser, used by the proxy
// to scrape replica pages and by `make lint-metrics` to gate the format
// in CI. No external dependencies on either side. [LatencyHist] is the
// one latency histogram: its cumulative log2 buckets sum across replicas,
// and [HistQuantile] derives p50/p99 from one replica's buckets and from
// the proxy's summed fleet buckets alike.
package obs
