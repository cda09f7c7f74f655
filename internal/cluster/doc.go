// Package cluster scales the edfd feasibility service horizontally: a
// consistent-hash ring with virtual nodes maps content-addressed workload
// fingerprints onto edfd replicas, and Proxy is an HTTP reverse proxy
// that routes /v1/analyze by that ring, splits /v1/batch per fingerprint
// across replicas (re-merging per-job results in deterministic order),
// pins admission sessions to the replica that created them, health-checks
// replicas (ejecting and re-admitting them with ring rebalancing), fails
// idempotent requests over to the next ring node, and serves an aggregate
// /metrics page merging replica counters with its own routing counters.
//
// Every replica call takes one upstream path. A single attempt helper
// posts, ejects the replica on a transport failure (passive ejection)
// and records the trace span; a single failover loop walks the ring for
// forwards and batch sub-batches alike; a single /healthz probe, where
// only a 200 counts as alive, serves both the background sweep and the
// confirmation that a failed session owner is really dead, and
// re-admits a replica that answers; and a single fan-out reads /metrics
// and trace fragments from every healthy replica. The fleet feed relays
// stay outside that path on purpose: a relay that cannot dial a replica
// retries with backoff but never ejects it.
//
// Because edfd's result cache is keyed by the same fingerprints
// (engine.WorkloadFingerprint), ring routing gives cache affinity for
// free: identical workloads always land on the replica that already holds
// their results, so N replicas approach N disjoint caches rather than N
// copies of one.
//
// The proxy is also the fleet's observability plane. Every routed
// request carries a trace (internal/obs) propagated to the replica via
// X-Edf-Trace; GET /v1/traces/{id} merges the proxy's routing spans
// (forward attempts, sub-batch fan-out, session routing) with the
// replicas' own spans, each labeled with its origin replica, on one
// shared time axis. GET /v1/events fans every replica's admission feed
// into one fleet-wide server-sent-events stream — events labeled with
// their replica, relays redialing ejected replicas until they return —
// and the aggregate /metrics page is Prometheus text exposition:
// replica families summed fleet-wide next to per-replica
// {replica="..."} samples, with fleet hit-rate and propose-latency
// quantiles recomputed from the summed histograms.
//
// Spawner boots real in-process replicas on ephemeral ports for tests and
// benchmarks; cmd/edfproxy wraps Proxy as a standalone daemon.
package cluster
