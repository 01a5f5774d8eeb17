package stats

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the fixed bucket count of Hist: power-of-two size classes
// from [0,1) up to [2^30, ∞), enough for any message size the stack moves.
const HistBuckets = 32

// Hist is a fixed-bucket log2 histogram with atomic counters: Observe is
// lock-free and allocation-free, so it can sit on per-message hot paths.
// Values bucket by bit length: bucket 0 holds 0, bucket k holds
// [2^(k-1), 2^k).
type Hist struct {
	counts [HistBuckets]atomic.Uint64
}

// histBucket maps a value to its bucket index.
func histBucket(v int) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one value. Safe for concurrent use; never allocates.
func (h *Hist) Observe(v int) {
	h.counts[histBucket(v)].Add(1)
}

// Total returns the number of recorded observations.
func (h *Hist) Total() uint64 {
	var t uint64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Percentile returns a log2-bucket estimate of the p-th percentile
// (0 <= p <= 100): the bucket holding the p-th observation is located from
// the cumulative counts and the value interpolated linearly inside the
// bucket's [2^(k-1), 2^k) range. The estimate never leaves the true
// bucket, so it is within a factor of 2 of the exact rank statistic — the
// resolution hot paths buy by retaining 32 counters instead of a sample
// per request (tested against the exact stats.Percentile in hist_test.go).
// Returns 0 for an empty histogram.
func (h *Hist) Percentile(p float64) float64 {
	var counts [HistBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	// Rank of the target observation, 1-based: percentile p covers the
	// first ceil(p/100 * total) observations.
	rank := p / 100 * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for k := 0; k < HistBuckets; k++ {
		if counts[k] == 0 {
			continue
		}
		next := cum + float64(counts[k])
		if rank <= next {
			lo, hi := bucketBounds(k)
			frac := (rank - cum) / float64(counts[k])
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	// Unreachable when total > 0; fall back to the top bucket's bound.
	lo, hi := bucketBounds(HistBuckets - 1)
	_ = lo
	return hi
}

// bucketBounds returns bucket k's value range [lo, hi): bucket 0 holds 0,
// bucket k holds [2^(k-1), 2^k). The top bucket is open-ended; its upper
// bound is reported as twice its lower bound (the same width rule as every
// other bucket), which keeps the estimate finite.
func bucketBounds(k int) (lo, hi float64) {
	if k == 0 {
		return 0, 1
	}
	lo = float64(uint64(1) << (k - 1))
	return lo, lo * 2
}

// Reset zeroes every bucket.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}
