package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/trace"
)

// bench carries one invocation's state: its settings, the tracer (nil
// on an untraced run), the correctness checks and the metrics reported.
type bench struct {
	cfg     config
	out     io.Writer
	log     io.Writer
	tr      *tracer
	cal     *calibrator
	checks  checks
	metrics map[string]metric

	attempted, failed uint64
	// genTime and genAcc time the input generation.
	genTime time.Duration
	genAcc  int
}

func newBench(cfg config, stdout, stderr io.Writer) *bench {
	b := &bench{cfg: cfg, out: stdout, log: stderr, cal: newCalibrator(), metrics: make(map[string]metric)}
	b.checks.log = stderr
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// set reports one metric.
func (b *bench) set(name, unit string, value float64) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// check records a correctness check: cond must hold, and format
// describes the failure otherwise.
func (b *bench) check(name string, cond bool, format string, args ...any) {
	var err error
	if !cond {
		err = fmt.Errorf(format, args...)
	}
	b.checks.add(name, err)
}

// checks collects the correctness checks; any failure makes the run
// incorrect.
type checks struct {
	log    io.Writer
	failed int
}

func (c *checks) add(name string, err error) {
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "check FAILED: %s: %v\n", name, err)
		return
	}
	fmt.Fprintf(c.log, "check ok: %s\n", name)
}

func (c *checks) ok() bool { return c.failed == 0 }

// cpuTime returns the process's CPU time, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a memory snapshot: bytes allocated, GC cycles and total GC
// pause.
type usage struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// since returns the usage accrued after prev.
func (u usage) since(prev usage) usage {
	return usage{alloc: u.alloc - prev.alloc, gcs: u.gcs - prev.gcs, pauseNs: u.pauseNs - prev.pauseNs}
}

// heapInUse collects garbage and returns the bytes still in use.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// windows times a measured phase in fixed-size windows, each with its
// wall time and process CPU time, and runs the calibration kernel after
// each (see calib.go).
type windows struct {
	cal     *calibrator
	last    time.Time
	cpu0    time.Duration
	accs    []uint64
	durs    []time.Duration
	cpus    []time.Duration
	factors []float64 // host slowdown factor measured after each window
}

func (w *windows) start(cal *calibrator, now time.Time) {
	w.cal, w.last, w.cpu0 = cal, now, cpuTime()
}

// close ends the current window at now, after n accesses, runs the
// calibration kernel and returns the time the next window starts.
func (w *windows) close(now time.Time, n uint64) time.Time {
	w.cpus = append(w.cpus, cpuTime()-w.cpu0)
	w.accs = append(w.accs, n)
	w.durs = append(w.durs, now.Sub(w.last))
	w.factors = append(w.factors, w.cal.factor())
	w.last, w.cpu0 = time.Now(), cpuTime()
	return w.last
}

// factor returns the phase's median host slowdown factor.
func (w *windows) factor() float64 { return quantile(w.factors, 0.5) }

// median returns the median over windows of per(i), each window's value
// multiplied by its smoothed slowdown factor raised to exp when norm is
// set (exp 1 for a rate, -1 for a time).
func (w *windows) median(norm bool, exp float64, per func(i int) float64) float64 {
	f := smooth(w.factors)
	vals := make([]float64, len(w.durs))
	for i := range vals {
		vals[i] = per(i)
		if norm {
			vals[i] *= math.Pow(f[i], exp)
		}
	}
	return quantile(vals, 0.5)
}

// rate returns the median window's accesses per second.
func (w *windows) rate(norm bool) float64 {
	return w.median(norm, 1, func(i int) float64 { return float64(w.accs[i]) / w.durs[i].Seconds() })
}

// cpuPerAcc returns the median window's process CPU ns per access.
func (w *windows) cpuPerAcc(norm bool) float64 {
	return w.median(norm, -1, func(i int) float64 { return float64(w.cpus[i]) / float64(w.accs[i]) })
}

// latency returns the median over windows of the q-quantile of each
// window's request latencies in us, normalized, given per requests per
// window (the last window takes any remainder).
func (w *windows) latency(lat []time.Duration, per int, q float64) float64 {
	return w.median(true, -1, func(i int) float64 {
		end := (i + 1) * per
		if i == len(w.durs)-1 {
			end = len(lat)
		}
		return quantile(micros(lat[i*per:end]), q)
	})
}

// normalize returns the window durations, each divided by its smoothed
// slowdown factor.
func (w *windows) normalize() []time.Duration {
	f := smooth(w.factors)
	out := make([]time.Duration, len(w.durs))
	for i, d := range w.durs {
		out[i] = time.Duration(float64(d) / f[i])
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// nanos converts durations to nanoseconds.
func nanos(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// micros converts durations to microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// phase is the outcome of one measured phase.
type phase struct {
	win      windows
	lat      []time.Duration // request latencies; nil when a window is the request
	per      int             // requests per window
	use      usage
	accesses uint64
}

// endToEnd reports the end-to-end metrics of the measured phase p and
// the set-up times. Timed metrics are medians over the phase's windows,
// each normalized to the reference host speed (see calib.go); the raw
// figures go to the log.
func (b *bench) endToEnd(p *phase, setups []time.Duration) {
	w := &p.win
	setupS := quantile(seconds(setups), 0.5)
	b.set("acc_per_s", "1/s", w.rate(true))
	b.set("cpu_ns_per_acc", "ns", w.cpuPerAcc(true))
	b.set("alloc_b_per_acc", "B", float64(p.use.alloc)/float64(p.accesses))
	b.set("setup_s", "s", setupS)
	if p.lat == nil {
		// On the replay workloads a request is a window: its latency is
		// the window's duration, and the percentiles are over windows.
		lat := micros(w.normalize())
		b.set("req_p50_us", "us", quantile(lat, 0.5))
		b.set("req_p90_us", "us", quantile(lat, 0.9))
	} else {
		b.set("req_p50_us", "us", w.latency(p.lat, p.per, 0.5))
		b.set("req_p90_us", "us", w.latency(p.lat, p.per, 0.9))
	}
	fmt.Fprintf(b.log, "measured: %d accesses, %d windows, %d latency samples, host slowdown factor %.3f\n",
		p.accesses, len(w.durs), len(p.lat), w.factor())
	fmt.Fprintf(b.log, "raw: acc_per_s %.0f cpu_ns_per_acc %.1f\n", w.rate(false), w.cpuPerAcc(false))
}

// liveHeap reports, on an untraced run, live_heap_mb: the heap in use
// now, after garbage collection, minus heap0, taken before the
// directory was built. The caller keeps the generated input alive across
// both readings, so that it cancels out, and drops the measurement data.
func (b *bench) liveHeap(heap0 uint64) {
	if b.tr == nil {
		b.set("live_heap_mb", "MB", float64(int64(heapInUse()-heap0))/(1<<20))
	}
}

// generate synthesizes n raw records of a profile, timing it for
// workload.gen_ns_per_acc.
func (b *bench) generate(profile string, n int) ([]trace.Record, error) {
	t0 := time.Now()
	recs, err := synthesize(profile, b.cfg.seed, n)
	b.genTime, b.genAcc = time.Since(t0), len(recs)
	return recs, err
}

// setUp runs the workload's set-up (directory build, warm fill, engine
// start) cfg.sz.setupReps times, keeping the state of the last one, and
// returns each set-up's wall time, normalized by the slowdown factor
// measured right after it. build returns the exact counts of the state
// it built.
func (b *bench) setUp(build func() (exact, error)) ([]time.Duration, error) {
	var times []time.Duration
	var reps []exact
	for i := 0; i < b.cfg.sz.setupReps; i++ {
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Duration(float64(time.Since(t0))/b.cal.factorNow()))
		reps = append(reps, e)
	}
	b.reportExact(reps)
	return times, nil
}

// phaseSet holds a run's measured phases: the untraced one, and on a
// traced run the traced one that follows it on the same state.
type phaseSet struct {
	plain, traced *phase
	tracedFrom    int // index of the traced phase's first span
	err           error
}

// phaseLen is the length of one measured phase: the whole --seconds,
// or half of it on a traced run, which measures twice.
func (b *bench) phaseLen() time.Duration {
	if b.tr != nil {
		return b.cfg.seconds / 2
	}
	return b.cfg.seconds
}

// phases runs measure untraced and, on a traced run, once more traced.
func (b *bench) phases(measure func(tr *tracer) (*phase, error)) phaseSet {
	var ps phaseSet
	if ps.plain, ps.err = measure(nil); ps.err != nil || b.tr == nil {
		return ps
	}
	ps.tracedFrom = b.tr.mark()
	ps.traced, ps.err = measure(b.tr)
	return ps
}

// report emits the end-to-end metrics but live_heap_mb on an untraced
// run, and on a
// traced run the per-layer metrics the measured phases give: GC work
// during the traced phase, the tracing overhead and the input
// generation cost.
func (b *bench) report(ps phaseSet, setups []time.Duration) {
	if b.tr == nil {
		b.endToEnd(ps.plain, setups)
		return
	}
	t := ps.traced
	b.set("runtime.gc_cycles", "count", float64(t.use.gcs))
	b.set("runtime.gc_pause_ms", "ms", float64(t.use.pauseNs)/1e6)
	b.set("trace.overhead_acc_per_s", "1/s", t.win.rate(true)-ps.plain.win.rate(true))
	b.set("workload.gen_ns_per_acc", "ns", float64(b.genTime)/float64(b.genAcc))
}

// exact is the directory's modelled statistics after a single-worker
// set-up: deterministic in the workload and seed.
type exact struct {
	Inserts, Attempts, Forced uint64
	Len                       int
}

func exactOf(dir *directory.ShardedDirectory) exact {
	c := dir.Counters()
	return exact{Inserts: c.Inserts, Attempts: c.Attempts, Forced: c.Forced, Len: dir.Len()}
}

// reportExact prints the exact counts with the seed and checks that
// every set-up of the run reproduced them.
func (b *bench) reportExact(reps []exact) {
	e := reps[0]
	fmt.Fprintf(b.out, "perfbench: workload=%s seed=%d exact inserts=%d attempts=%d forced=%d len=%d\n",
		b.cfg.workload, b.cfg.seed, e.Inserts, e.Attempts, e.Forced, e.Len)
	same := true
	for _, r := range reps[1:] {
		same = same && r == e
	}
	b.check("exact counts repeat across set-ups", same, "set-ups disagree: %+v", reps)
}

// conserve checks that the directory counted exactly the accesses the
// phase applied: Reads+Writes+Evicts over the phase equals applied.
func (b *bench) conserve(before, after directory.ShardCounters, applied uint64) {
	ops := after.Ops() - before.Ops()
	b.check("counter conservation", ops == applied,
		"directory counted %d operations, the phase applied %d", ops, applied)
}
