// Package service implements edfd, the feasibility-analysis daemon: an
// HTTP/JSON front end over the analysis engine registry.
//
// Three pillars:
//
//   - Stateless analysis: POST /v1/analyze runs one analyzer (default:
//     the cascade) on one task set; POST /v1/batch fans a (sets x
//     analyzers) cross product over the engine's bounded worker pool and
//     returns per-job telemetry in deterministic set-major order.
//
//   - Content-addressed result caching: every cacheable analysis is keyed
//     by engine.Fingerprint(task set, analyzer, options) in a sharded LRU,
//     so repeated analyses of hot task sets are O(1) lookups. Hit, miss
//     and eviction counters surface on GET /metrics.
//
//   - Stateful admission sessions: POST /v1/sessions opens an online
//     admission controller (the use case motivating the paper's fast
//     exact tests); /propose stages a task if the grown set stays
//     feasible, /commit makes staged tasks permanent, /rollback discards
//     them.
//
// Every /v1 request runs under a trace (internal/obs): the X-Edf-Trace
// header is adopted from the caller — edfproxy propagates one — or
// minted here, echoed on the response, and resolves at GET
// /v1/traces/{id} to the request's span record (cache lookup, cascade
// stages, incremental fast path vs escalation). Admission decisions
// additionally publish to a live feed: GET /v1/sessions/{id}/events
// streams one session's admit/reject/commit/rollback/close events as
// server-sent events, GET /v1/events streams all sessions'. GET
// /metrics is Prometheus text exposition; diagnostics go to log/slog
// with trace and session attributes.
//
// Request bodies decode in one pass: each wire shape (analyze, batch
// and its sets, partition, session open, propose, propose-batch, plus
// the polymorphic workload and task inside them) has exactly one
// decoder, DecodeRequest's single pass over the body bytes through
// internal/jsonwire, shared by edfd, edfproxy (which routes from the
// decoded value and forwards the raw bytes), the client, journal replay
// and every UnmarshalJSON of these types. It accepts, rejects and
// decodes exactly as encoding/json does (a differential fuzz against the
// former encoding/json decoders pins this), with one deliberate
// difference from edfd's former stream decoder: bytes other than
// whitespace after the JSON value are the typed 400, as they always were
// at edfproxy.
//
// The server wires in a concurrency limiter, per-request deadlines,
// graceful shutdown, GET /healthz and GET /metrics. Package
// service/client is the typed Go client (including Events, FleetEvents
// and Trace for the feed and trace endpoints).
package service
