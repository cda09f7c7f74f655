package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of log2 latency buckets: bucket i counts
// samples <= 2^i nanoseconds, and the last bucket absorbs everything
// beyond (~4.3 s) so no sample is ever dropped.
const HistBuckets = 33

// LatencyHist is a lock-free log2 histogram of nanosecond latencies. The
// exported form — cumulative "le" bucket counters — is summable across
// replicas, which is exactly how the proxy aggregates fleet quantiles;
// p50/p99 are derived at render time and never stored.
type LatencyHist struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// BucketOf maps a latency to its bucket index: the smallest i with
// ns <= 2^i.
func BucketOf(ns int64) int {
	if ns <= 1 {
		return 0
	}
	b := bits.Len64(uint64(ns - 1))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records n samples of the same latency (n > 1 is the batch
// path, which spreads one request's wall time evenly over its tasks).
func (h *LatencyHist) Observe(ns int64, n int) {
	if n <= 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[BucketOf(ns)].Add(uint64(n))
	h.count.Add(uint64(n))
	h.sum.Add(uint64(ns) * uint64(n))
}

// Snapshot returns the cumulative bucket counts (entry i counts the
// samples <= 2^i ns, the "le" form /metrics exports), the sample count
// and the latency sum.
func (h *LatencyHist) Snapshot() (cum [HistBuckets]uint64, count, sum uint64) {
	var c uint64
	for i := range h.buckets {
		c += h.buckets[i].Load()
		cum[i] = c
	}
	return cum, h.count.Load(), h.sum.Load()
}

// HistQuantile returns the upper bound of the bucket holding the q-th of
// count samples (nearest rank, ceil(q·count)), given cumulative bucket
// counts. Cumulative counts sum across replicas, so one replica and a
// summed fleet get the same conservative estimate. Zero samples yield
// zero.
func HistQuantile(cum [HistBuckets]uint64, count uint64, q float64) int64 {
	if count == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(count))), 1)
	for i, c := range cum {
		if c >= rank {
			return int64(1) << i
		}
	}
	return int64(1) << (HistBuckets - 1)
}
