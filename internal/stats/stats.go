// Package stats provides the counters, histograms and text tables used by
// the simulator and the experiment harness.
//
// Everything in this package is deterministic and allocation-light: the
// simulator calls into histograms on every directory operation, so the hot
// paths are simple array updates.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a fixed-range integer histogram with one bucket per value in
// [0, max]. Samples above max are clamped into the last bucket, which is how
// the paper accounts for insertion procedures that hit the attempt cap
// ("in such cases, we count 32 attempts toward the average").
type Histogram struct {
	buckets []uint64
	total   uint64
	sum     uint64
}

// NewHistogram returns a histogram covering values 0..max inclusive.
func NewHistogram(max int) *Histogram {
	if max < 0 {
		panic("stats: histogram max must be non-negative")
	}
	return &Histogram{buckets: make([]uint64, max+1)}
}

// Add records one sample. Values above the configured maximum are clamped.
//
//cuckoo:hotpath
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
	h.sum += uint64(v)
}

// AddN records n samples of value v.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v] += n
	h.total += n
	h.sum += uint64(v) * n
}

// Count returns the total number of samples recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Bucket returns the number of samples equal to v (clamped samples land in
// the last bucket).
func (h *Histogram) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Max returns the largest representable value (the clamp bound).
func (h *Histogram) Max() int { return len(h.buckets) - 1 }

// Mean returns the arithmetic mean of the samples, or 0 for an empty
// histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Fraction returns the fraction of samples equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Bucket(v)) / float64(h.total)
}

// FractionAtLeast returns the fraction of samples >= v.
func (h *Histogram) FractionAtLeast(v int) float64 {
	if h.total == 0 {
		return 0
	}
	if v < 0 {
		v = 0
	}
	var n uint64
	for i := v; i < len(h.buckets); i++ {
		n += h.buckets[i]
	}
	return float64(n) / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (0..1) of the
// samples are <= v.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return i
		}
	}
	return len(h.buckets) - 1
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.total, h.sum = 0, 0
}

// Merge adds all samples of other into h. When other covers a larger
// range, h grows to match it (aggregating slices with different attempt
// caps — ideal=1, cuckoo=32 — is routine); samples other clamped into its
// last bucket stay at that value.
func (h *Histogram) Merge(other *Histogram) {
	if len(other.buckets) > len(h.buckets) {
		grown := make([]uint64, len(other.buckets))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	for i, b := range other.buckets {
		h.buckets[i] += b
	}
	h.total += other.total
	h.sum += other.sum
}

// NumLog2Buckets is the bucket count of the power-of-two bucketing
// Log2Bucket implements: bucket 0 holds the value 0 and bucket b > 0
// holds the values in [2^(b-1), 2^b - 1], so 65 buckets cover every
// uint64. It is the bucketing the engine's per-class latency recorders
// use: nanosecond latencies collapse into 65 counters per class with
// one bit-length instruction per sample, and a Histogram over the
// bucket INDICES (AddN per bucket, Merge across recorders, Percentile)
// yields tail percentiles with power-of-two resolution — exactly what a
// p99/p999 under overload needs, at zero hot-path allocation.
const NumLog2Buckets = 65

// Log2Bucket returns the power-of-two bucket index of v: 0 for 0,
// otherwise the bit length of v (bucket b covers [2^(b-1), 2^b - 1]).
//
//cuckoo:hotpath
func Log2Bucket(v uint64) int { return bits.Len64(v) }

// Log2BucketCeil returns the largest value bucket b holds — the
// inclusive upper bound Percentile results on bucketed histograms
// convert back through (a conservative, never-under-reporting bound).
func Log2BucketCeil(b int) uint64 {
	switch {
	case b <= 0:
		return 0
	case b >= 64:
		return math.MaxUint64
	default:
		return 1<<uint(b) - 1
	}
}

// Mean accumulates a running arithmetic mean without storing samples.
type Mean struct {
	sum float64
	n   uint64
}

// Add records one sample.
func (m *Mean) Add(v float64) { m.sum += v; m.n++ }

// AddN records a pre-aggregated sum of n samples.
func (m *Mean) AddN(sum float64, n uint64) { m.sum += sum; m.n += n }

// Value returns the mean, or 0 when no samples have been recorded.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Count returns the number of samples recorded.
func (m *Mean) Count() uint64 { return m.n }

// Ratio tracks hit/total style ratios.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Observe records one event that either hit or missed.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value returns hits/total, or 0 when empty.
func (r *Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// GeoMean returns the geometric mean of vs, ignoring non-positive values.
// The evaluation uses it to aggregate ratios across the workload suite.
func GeoMean(vs []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ArithMean returns the arithmetic mean of vs (0 for an empty slice).
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Pct formats a fraction as a percentage string with the given number of
// decimal places.
func Pct(v float64, places int) string {
	return fmt.Sprintf("%.*f%%", places, v*100)
}
