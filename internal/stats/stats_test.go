package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(32)
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: count=%d mean=%f", h.Count(), h.Mean())
	}
	h.Add(1)
	h.Add(1)
	h.Add(4)
	if got := h.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := h.Bucket(1); got != 2 {
		t.Errorf("Bucket(1) = %d, want 2", got)
	}
	if got := h.Mean(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Mean = %f, want 2", got)
	}
	if got := h.Fraction(1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Fraction(1) = %f, want 2/3", got)
	}
}

func TestHistogramClamp(t *testing.T) {
	h := NewHistogram(32)
	h.Add(100) // clamps to 32, as the paper counts capped insertions
	h.Add(-5)  // clamps to 0
	if got := h.Bucket(32); got != 1 {
		t.Errorf("Bucket(32) = %d, want 1", got)
	}
	if got := h.Bucket(0); got != 1 {
		t.Errorf("Bucket(0) = %d, want 1", got)
	}
	if got := h.Mean(); math.Abs(got-16.0) > 1e-12 {
		t.Errorf("Mean = %f, want 16", got)
	}
}

func TestHistogramFractionAtLeast(t *testing.T) {
	h := NewHistogram(10)
	for v := 1; v <= 10; v++ {
		h.Add(v)
	}
	if got := h.FractionAtLeast(6); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FractionAtLeast(6) = %f, want 0.5", got)
	}
	if got := h.FractionAtLeast(0); got != 1 {
		t.Errorf("FractionAtLeast(0) = %f, want 1", got)
	}
	if got := h.FractionAtLeast(11); got != 0 {
		t.Errorf("FractionAtLeast(11) = %f, want 0", got)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100)
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if got := h.Percentile(0.5); got != 50 {
		t.Errorf("P50 = %d, want 50", got)
	}
	if got := h.Percentile(1.0); got != 100 {
		t.Errorf("P100 = %d, want 100", got)
	}
	if got := h.Percentile(0.01); got != 1 {
		t.Errorf("P1 = %d, want 1", got)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a, b := NewHistogram(8), NewHistogram(8)
	a.Add(2)
	b.Add(4)
	b.Add(4)
	a.Merge(b)
	if a.Count() != 3 || a.Bucket(4) != 2 {
		t.Errorf("after merge: count=%d bucket4=%d", a.Count(), a.Bucket(4))
	}
	a.Reset()
	if a.Count() != 0 || a.Mean() != 0 {
		t.Errorf("after reset: count=%d mean=%f", a.Count(), a.Mean())
	}
}

func TestHistogramMergeMixedRanges(t *testing.T) {
	// Merging a wider histogram grows the receiver; merging a narrower
	// one lands its samples at their recorded values.
	small, large := NewHistogram(1), NewHistogram(8)
	small.Add(1)
	large.Add(5)
	small.Merge(large)
	if small.Max() != 8 || small.Count() != 2 || small.Bucket(5) != 1 || small.Bucket(1) != 1 {
		t.Errorf("after growing merge: max=%d count=%d b5=%d b1=%d",
			small.Max(), small.Count(), small.Bucket(5), small.Bucket(1))
	}
	wide := NewHistogram(8)
	narrow := NewHistogram(1)
	narrow.Add(7) // clamps to 1
	wide.Merge(narrow)
	if wide.Bucket(1) != 1 || wide.Count() != 1 {
		t.Errorf("after narrowing merge: b1=%d count=%d", wide.Bucket(1), wide.Count())
	}
	if mean := wide.Mean(); mean != 1 {
		t.Errorf("clamped sample mean = %f, want 1", mean)
	}
}

// Property: mean is always within [0, max] and Count equals samples added.
func TestHistogramMeanBounds(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(32)
		for _, v := range vals {
			h.Add(int(v))
		}
		if h.Count() != uint64(len(vals)) {
			return false
		}
		m := h.Mean()
		return m >= 0 && m <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{1<<63 - 1, 63}, {1 << 63, 64}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := Log2Bucket(c.v); got != c.want {
			t.Errorf("Log2Bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2BucketCeil(t *testing.T) {
	cases := []struct {
		b    int
		want uint64
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 3}, {3, 7}, {10, 1023},
		{64, math.MaxUint64}, {99, math.MaxUint64},
	}
	for _, c := range cases {
		if got := Log2BucketCeil(c.b); got != c.want {
			t.Errorf("Log2BucketCeil(%d) = %d, want %d", c.b, got, c.want)
		}
	}
}

// Property: the bucket round-trip never under-reports — every value is
// at most its bucket's inclusive upper bound, and above the previous
// bucket's.
func TestLog2BucketRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := Log2Bucket(v)
		return v <= Log2BucketCeil(b) && (b == 0 || v > Log2BucketCeil(b-1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// histFrom builds a histogram over log2-bucket indices from raw sample
// values — the shape the engine's latency pipeline produces.
func histFrom(vals []uint16) *Histogram {
	h := NewHistogram(NumLog2Buckets - 1)
	for _, v := range vals {
		h.Add(Log2Bucket(uint64(v)))
	}
	return h
}

// Property: Merge is associative and commutative — per-drainer
// snapshots can be folded in any order without changing counts, sums or
// any percentile.
func TestHistogramMergeAssociative(t *testing.T) {
	f := func(xs, ys, zs []uint16) bool {
		// (x + y) + z
		l := histFrom(xs)
		l.Merge(histFrom(ys))
		l.Merge(histFrom(zs))
		// z + (y + x)
		r := histFrom(zs)
		yx := histFrom(ys)
		yx.Merge(histFrom(xs))
		r.Merge(yx)
		if l.Count() != r.Count() || l.Mean() != r.Mean() {
			return false
		}
		for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
			if l.Percentile(p) != r.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are stable under merge fan-in — merging k
// copies of the same histogram (k drainers observing the same
// distribution) reports exactly the single-copy percentiles.
func TestHistogramPercentileStableUnderMerge(t *testing.T) {
	f := func(vals []uint16, k uint8) bool {
		if len(vals) == 0 {
			return true
		}
		one := histFrom(vals)
		merged := histFrom(vals)
		for i := 0; i < int(k%8); i++ {
			merged.Merge(one)
		}
		for _, p := range []float64{0.5, 0.99, 0.999} {
			if merged.Percentile(p) != one.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	m.Add(1)
	m.Add(3)
	if got := m.Value(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %f, want 2", got)
	}
	m.AddN(10, 2) // two samples summing to 10
	if got := m.Value(); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("Mean = %f, want 3.5", got)
	}
	if m.Count() != 4 {
		t.Errorf("Count = %d, want 4", m.Count())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Error("empty ratio should be 0")
	}
	r.Observe(true)
	r.Observe(false)
	r.Observe(true)
	r.Observe(true)
	if got := r.Value(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Ratio = %f, want 0.75", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %f, want 4", got)
	}
	if got := GeoMean([]float64{0, -1}); got != 0 {
		t.Errorf("GeoMean of non-positives = %f, want 0", got)
	}
	// Non-positive values are skipped, not zeroed.
	if got := GeoMean([]float64{4, 0}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(4, skip 0) = %f, want 4", got)
	}
}

func TestArithMean(t *testing.T) {
	if got := ArithMean(nil); got != 0 {
		t.Errorf("ArithMean(nil) = %f", got)
	}
	if got := ArithMean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("ArithMean = %f, want 2", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.0825, 1); got != "8.2%" && got != "8.3%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(1, 0); got != "100%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "col", "value")
	tb.AddRow("a", "1")
	tb.AddRowf("b", 3.14159, 7)
	tb.AddNote("n=%d", 2)
	s := tb.String()
	for _, want := range []string{"Demo", "col", "a", "3.142", "note: n=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	if tb.NumRows() != 2 || tb.NumCols() != 2 {
		t.Errorf("dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if got := tb.Cell(0, 1); got != "1" {
		t.Errorf("Cell(0,1) = %q", got)
	}
	if got := tb.Cell(9, 9); got != "" {
		t.Errorf("out-of-range Cell = %q", got)
	}
	hs := tb.Headers()
	hs[0] = "mutated"
	if tb.Headers()[0] != "col" {
		t.Error("Headers returned aliased slice")
	}
	rs := tb.Rows()
	rs[0][0] = "mutated"
	if tb.Cell(0, 0) != "a" {
		t.Error("Rows returned aliased slice")
	}
}
