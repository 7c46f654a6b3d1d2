package main

import (
	"math"
	"time"
)

// The host this benchmark was tuned on (a 2-vCPU virtual machine)
// changes speed in regimes lasting seconds to tens of seconds: the same
// workload on the same input ran 1.8x faster in one regime than in the
// next, and the median window rate of a run moved by up to 40% between
// runs. Every timed end-to-end metric is therefore normalized to a
// reference host speed. A fixed calibration kernel is timed after every
// measured window; its time relative to calRef, raised to calExp, is the
// host's slowdown factor. Rates are multiplied by the factor of their
// window, smoothed over neighbouring windows, and times divided by it.
// The raw figures are printed on standard error.
//
// calExp is the workloads' sensitivity to the host's regime relative to
// the kernel's: across regime shifts the three workloads' window rates
// moved as the kernel's rate to the power of about 1.5, and that
// exponent minimized the run-to-run spread of the median window rate on
// all three alike (README.md gives the figures).
const calExp = 1.5

// calIters is the calibration kernel's length in operations.
const calIters = 30_000

// calRef is the time the kernel takes on the reference host.
const calRef = 2 * time.Millisecond

// calSmooth is the half-width, in windows, of the sliding median that
// smooths the per-window factors.
const calSmooth = 3

// The calibration kernel is a frozen miniature of the directory's work:
// a 4-way cuckoo table of calSets sets per way, churned by a fixed key
// sequence drawn from a universe larger than the table, so that it runs
// full, as the churn workload's directory does. Each operation reads its
// key from the sequence, probes the four ways, sets a sharer bit on a
// hit and inserts with a bounded displacement walk on a miss. It is
// benchmark code: a change to the program does not change it.
const (
	calSets     = 1 << 13
	calUniverse = 5 * calSets
	calKeys     = 1 << 18
	calWalk     = 16
)

type calibrator struct {
	keys, vals []uint64
	seq        []calOp
	pos        int
}

// calOp is one kernel operation, as large as a directory access so that
// reading the sequence streams through memory at the same rate.
type calOp struct {
	key  uint64
	_, _ uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{keys: make([]uint64, 4*calSets), vals: make([]uint64, 4*calSets), seq: make([]calOp, calKeys)}
	x := uint64(1)
	for i := range c.seq {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.seq[i].key = 1 + x%calUniverse
	}
	return c
}

// slot returns key's slot in way w.
func calSlot(key uint64, w int) int {
	return w*calSets + int((key*[4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93}[w])>>51)
}

// factor runs the kernel once and returns the host's slowdown factor
// relative to the reference.
func (c *calibrator) factor() float64 {
	t0 := time.Now()
	for i := 0; i < calIters; i++ {
		k := c.seq[c.pos].key
		c.pos = (c.pos + 1) % calKeys
		bit := uint64(1) << (k & 63)
		hit := false
		for w := 0; w < 4; w++ {
			if s := calSlot(k, w); c.keys[s] == k {
				c.vals[s] |= bit
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		key, val := k, bit
		for step := 0; step < calWalk && key != 0; step++ {
			s := calSlot(key, int(key+uint64(step))&3)
			key, c.keys[s] = c.keys[s], key
			val, c.vals[s] = c.vals[s], val
		}
	}
	return math.Pow(float64(time.Since(t0))/float64(calRef), calExp)
}

// factorNow returns the median factor of five kernel runs: the factor
// for a single timing taken just before.
func (c *calibrator) factorNow() float64 {
	fs := make([]float64, 5)
	for i := range fs {
		fs[i] = c.factor()
	}
	return quantile(fs, 0.5)
}

// smooth returns the sliding median of fs over calSmooth windows each
// side.
func smooth(fs []float64) []float64 {
	out := make([]float64, len(fs))
	for i := range fs {
		out[i] = quantile(fs[max(0, i-calSmooth):min(len(fs), i+calSmooth+1)], 0.5)
	}
	return out
}
