package cluster

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// proxyMetrics holds the proxy's own routing and failover counters.
// Replica-side numbers are scraped live at render time, never stored.
type proxyMetrics struct {
	requests         atomic.Uint64 // requests entering the proxy
	analyzeRouted    atomic.Uint64 // /v1/analyze requests routed by fingerprint
	partitionRouted  atomic.Uint64 // /v1/partition requests routed by fingerprint
	modelRejections  atomic.Uint64 // requests 400d for a model the fleet lacks
	batchRequests    atomic.Uint64 // /v1/batch requests accepted
	batchSplits      atomic.Uint64 // per-replica sub-batches dispatched
	batchJobs        atomic.Uint64 // merged batch jobs returned to clients
	sessionCreates   atomic.Uint64 // sessions opened through the proxy
	sessionRoutes    atomic.Uint64 // session requests routed to their owner
	sessionOrphans   atomic.Uint64 // session requests whose owner was unavailable
	takeovers        atomic.Uint64 // sessions reassigned to a takeover peer
	takeoverFailed   atomic.Uint64 // takeover attempts no peer could serve
	failovers        atomic.Uint64 // requests retried on the next ring node
	ejections        atomic.Uint64 // replicas removed from the ring
	readmissions     atomic.Uint64 // replicas re-added after recovering
	noReplica        atomic.Uint64 // requests failed because the ring was empty
	upstreamErrors   atomic.Uint64 // replica requests that failed all attempts
	eventsRelayed    atomic.Uint64 // feed events relayed from replica streams
	eventSubscribers atomic.Int64  // open fleet feed streams
}

// writeMetrics renders the aggregate page in Prometheus text exposition
// format: the proxy's own counters under edfproxy_, then each replica
// family with its fleet sum (unlabeled, so the single-process scrape
// keeps working against the proxy) followed by the raw per-replica
// samples under a {replica="..."} label — one contiguous block per
// family, as the format requires. Ratios and quantiles cannot be
// summed; they are recomputed from their summable parts.
func (p *Proxy) writeMetrics(w io.Writer, scrapes []replicaScrape) {
	healthy, total := p.replicaCounts()
	ew := obs.NewExpositionWriter(w)
	counter := func(name, help string, v uint64) {
		name = "edfproxy_" + name
		ew.Family(name, obs.Counter, help)
		ew.Sample(name, nil, float64(v))
	}
	gauge := func(name, help string, v float64) {
		name = "edfproxy_" + name
		ew.Family(name, obs.Gauge, help)
		ew.Sample(name, nil, v)
	}
	counter("requests_total", "Requests entering the proxy.", p.m.requests.Load())
	counter("analyze_routed_total", "Analyze requests routed by workload fingerprint.", p.m.analyzeRouted.Load())
	counter("partition_routed_total", "Partition requests routed by workload fingerprint.", p.m.partitionRouted.Load())
	counter("model_rejections_total", "Requests rejected for a workload model the fleet does not support.", p.m.modelRejections.Load())
	counter("batch_requests_total", "Batch requests accepted.", p.m.batchRequests.Load())
	counter("batch_splits_total", "Per-replica sub-batches dispatched.", p.m.batchSplits.Load())
	counter("batch_jobs_total", "Merged batch jobs returned to clients.", p.m.batchJobs.Load())
	counter("session_creates_total", "Sessions opened through the proxy.", p.m.sessionCreates.Load())
	counter("session_routes_total", "Session requests routed to their sticky owner.", p.m.sessionRoutes.Load())
	counter("session_owner_unavailable", "Session requests whose owner replica was down.", p.m.sessionOrphans.Load())
	counter("takeover_total", "Sessions reassigned to a takeover peer after their owner died.", p.m.takeovers.Load())
	counter("takeover_failed_total", "Takeover attempts no surviving peer could serve.", p.m.takeoverFailed.Load())
	counter("failovers_total", "Requests retried on the next ring node.", p.m.failovers.Load())
	counter("replica_ejections_total", "Replicas removed from the ring.", p.m.ejections.Load())
	counter("replica_readmissions_total", "Replicas re-added after recovering.", p.m.readmissions.Load())
	counter("no_replica_errors_total", "Requests failed because the ring was empty.", p.m.noReplica.Load())
	counter("upstream_errors_total", "Replica requests that failed every attempt.", p.m.upstreamErrors.Load())
	counter("events_relayed_total", "Feed events relayed from replica streams.", p.m.eventsRelayed.Load())
	gauge("event_subscribers", "Fleet feed streams currently open.", float64(p.m.eventSubscribers.Load()))
	gauge("replicas_healthy", "Replicas currently on the ring.", float64(healthy))
	gauge("replicas_configured", "Replicas configured at startup.", float64(total))
	gauge("sessions_tracked", "Session owners the proxy remembers.", float64(p.ownedSessions()))

	// Merge the replica pages. Families and samples keep the first
	// scrape's order (replica pages are identically structured), values
	// sum across replicas under the sample's full key — name plus labels —
	// so labeled series like histogram buckets merge per bucket.
	type aggEntry struct {
		sample obs.Sample // name + labels from the first scrape holding it
		key    string
		sum    float64
	}
	type familyBlock struct {
		name    string
		typ     obs.MetricType
		entries []*aggEntry
	}
	var fams []*familyBlock
	famIdx := map[string]*familyBlock{}
	entryIdx := map[string]*aggEntry{}
	perReplica := make([]map[string]float64, len(scrapes))
	for si, sc := range scrapes {
		perReplica[si] = make(map[string]float64, len(sc.samples))
		for _, s := range sc.samples {
			key := s.Key()
			perReplica[si][key] = s.Value
			e, ok := entryIdx[key]
			if !ok {
				famName, typ := familyOf(s.Name, sc.types)
				fb, exists := famIdx[famName]
				if !exists {
					fb = &familyBlock{name: famName, typ: typ}
					famIdx[famName] = fb
					fams = append(fams, fb)
				}
				e = &aggEntry{sample: s, key: key}
				fb.entries = append(fb.entries, e)
				entryIdx[key] = e
			}
			e.sum += s.Value
		}
	}
	for _, fb := range fams {
		ew.Family(fb.name, fb.typ, "Fleet sum; {replica} samples are per node.")
		for _, e := range fb.entries {
			ew.Sample(e.sample.Name, e.sample.Labels, e.sum)
			for si, sc := range scrapes {
				v, ok := perReplica[si][e.key]
				if !ok {
					continue
				}
				labels := make([]obs.Label, 0, len(e.sample.Labels)+1)
				labels = append(labels, e.sample.Labels...)
				labels = append(labels, obs.Label{Name: "replica", Value: sc.replica})
				ew.Sample(e.sample.Name, labels, v)
			}
		}
	}

	// Derived ratios cannot be summed; recompute from the summed parts.
	sumOf := func(key string) float64 {
		if e, ok := entryIdx[key]; ok {
			return e.sum
		}
		return 0
	}
	if hits, misses := sumOf("edfd_cache_hits"), sumOf("edfd_cache_misses"); hits+misses > 0 {
		ew.Family("edfd_cache_hit_rate", obs.Gauge, "Fleet cache hits over lookups.")
		ew.SampleString("edfd_cache_hit_rate", nil, fmt.Sprintf("%.4f", hits/(hits+misses)))
	}
	// Quantiles cannot be summed either, but the cumulative latency
	// buckets can — the summed page is itself a fleet histogram, so the
	// fleet p50/p99 fall out of it.
	var bs []fleetBucket
	if fb, ok := famIdx["edfd_propose_ns"]; ok {
		for _, e := range fb.entries {
			if e.sample.Name != "edfd_propose_ns_bucket" {
				continue
			}
			if le, err := strconv.ParseInt(e.sample.Label("le"), 10, 64); err == nil {
				bs = append(bs, fleetBucket{le: le, cum: e.sum})
			}
		}
	}
	writeFleetQuantiles(ew, bs)
}

// familyOf maps a sample name to its metric family: the name itself for
// scalar families, the declared histogram family for its _bucket, _sum
// and _count series.
func familyOf(name string, types map[string]obs.MetricType) (string, obs.MetricType) {
	if t, ok := types[name]; ok {
		return name, t
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t, exists := types[base]; exists && t == obs.Histogram {
				return base, t
			}
		}
	}
	return name, obs.Untyped
}

// fleetBucket is one summed cumulative latency bucket.
type fleetBucket struct {
	le  int64
	cum float64
}

// writeFleetQuantiles re-derives edfd_propose_ns_p50/p99 from the summed
// cumulative buckets with the replicas' own quantile function. Replica
// pages without buckets (an older edfd) just produce no fleet quantiles.
func writeFleetQuantiles(ew *obs.ExpositionWriter, bs []fleetBucket) {
	if len(bs) == 0 {
		return
	}
	var cum [obs.HistBuckets]uint64
	for _, b := range bs {
		cum[obs.BucketOf(b.le)] = uint64(b.cum)
	}
	// A bucket missing from the pages holds the count of the one below.
	for i := 1; i < len(cum); i++ {
		cum[i] = max(cum[i], cum[i-1])
	}
	quantile := func(q float64) int64 { return obs.HistQuantile(cum, cum[len(cum)-1], q) }
	ew.Family("edfd_propose_ns_p50", obs.Gauge, "Fleet median proposal latency, from summed buckets.")
	ew.Sample("edfd_propose_ns_p50", nil, float64(quantile(0.50)))
	ew.Family("edfd_propose_ns_p99", obs.Gauge, "Fleet 99th-percentile proposal latency, from summed buckets.")
	ew.Sample("edfd_propose_ns_p99", nil, float64(quantile(0.99)))
}

// replicaScrape is one replica's parsed /metrics page.
type replicaScrape struct {
	replica string
	samples []obs.Sample
	types   map[string]obs.MetricType
}

// parseScrape parses a replica exposition page, dropping the derived
// series (edfd_cache_hit_rate, edfd_propose_ns_p50/p99) — neither can be
// summed across replicas; the aggregate recomputes them from their
// summable parts.
func parseScrape(r io.Reader) ([]obs.Sample, map[string]obs.MetricType, error) {
	samples, types, err := obs.ParseExpositionTyped(r)
	if err != nil {
		return nil, nil, err
	}
	kept := samples[:0]
	for _, s := range samples {
		if derivedName(s.Name) {
			continue
		}
		kept = append(kept, s)
	}
	return kept, types, nil
}

// derivedName reports whether a series is derived from other series and
// therefore must not be summed.
func derivedName(name string) bool {
	return strings.HasSuffix(name, "_rate") ||
		strings.HasSuffix(name, "_p50") ||
		strings.HasSuffix(name, "_p99")
}
