package bench

import (
	"runtime"
	"slices"
	"time"
)

// A row's raw ns/op moves with the host more than with the code: on a
// 2-vCPU virtual machine the table rows of a commit and its parent,
// recorded back to back, read x0.75-1.79 apart where the commit changed
// none of their code. RunSuite therefore times a fixed calibration
// kernel right before and right after every case, as perfbench does
// after every window. The median of those kernel times, relative to
// calRef, is the row's factor (CalFactor), the host's slowdown against
// the reference, and the row's normalized ns/op is its raw ns/op
// divided by the factor. Unlike perfbench, which raises the ratio to the power 1.5
// fitted to its workloads, the suite takes it as it is: its rows range
// from a lone hash loop to an 8 MiB table and share no one exponent.

// calIters is the kernel's length in operations. calWindow is how long
// the kernel is timed, over and over, on each side of a case: a case's
// timed run lasts about a second, and the host's speed moves within
// that, so a factor from a few milliseconds of kernel runs snapshots a
// moment the row does not average over.
const (
	calIters  = 30_000
	calWindow = 250 * time.Millisecond
)

// calRef is the time the kernel takes on the reference host, the 2-vCPU
// Xeon virtual machine the first normalized rows were recorded on.
const calRef = time.Millisecond

// The kernel is a frozen miniature of the directory's work, in code of
// this package alone, so that a change to hashfn, core or directory does
// not change it: a 4-way cuckoo table of calSets sets per way, churned
// by a fixed key sequence drawn from a universe larger than the table,
// so that it runs full. Each operation reads its key from the sequence,
// probes the four ways, sets a sharer bit on a hit and inserts with a
// bounded displacement walk on a miss.
const (
	calSets     = 1 << 13
	calUniverse = 5 * calSets
	calKeys     = 1 << 16
	calWalk     = 16
)

type calibrator struct {
	keys, vals []uint64
	seq        []uint64
	pos        int
}

func newCalibrator() *calibrator {
	c := &calibrator{keys: make([]uint64, 4*calSets), vals: make([]uint64, 4*calSets), seq: make([]uint64, calKeys)}
	x := uint64(1)
	for i := range c.seq {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.seq[i] = 1 + x%calUniverse
	}
	return c
}

// calSlot returns key's slot in way w: a multiplicative hash per way.
func calSlot(key uint64, w int) int {
	return w*calSets + int((key*[4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93}[w])>>51)
}

// time runs the kernel once and returns how long it took.
func (c *calibrator) time() time.Duration {
	t0 := time.Now()
	for range calIters {
		k := c.seq[c.pos]
		c.pos = (c.pos + 1) % calKeys
		bit := uint64(1) << (k & 63)
		hit := false
		for w := range 4 {
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
	return time.Since(t0)
}

// sample appends the kernel's timings over calWindow to ts. It collects
// the garbage a case left first, so that no concurrent GC cycle runs in
// the timings.
func (c *calibrator) sample(ts []time.Duration) []time.Duration {
	runtime.GC()
	for end := time.Now().Add(calWindow); time.Now().Before(end); {
		ts = append(ts, c.time())
	}
	return ts
}

// factor returns the host's slowdown against the reference host from
// the kernel timings ts taken around one case: their median over calRef.
func factor(ts []time.Duration) float64 {
	s := slices.Clone(ts)
	slices.Sort(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + m) / 2
	}
	return float64(m) / float64(calRef)
}
