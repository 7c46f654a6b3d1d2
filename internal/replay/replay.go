// Package replay is the parallel, batched trace-replay pipeline: it
// drives a concurrency-safe ShardedDirectory with a recorded (or
// synthesized) access stream through the batched Apply path and reports
// throughput, per-shard occupancy and the merged directory statistics.
//
// The paper's methodology replays identical access streams against every
// directory organization; internal/trace does that one record at a time
// through the functional simulator. This package is the scaled-up
// counterpart: records are partitioned into fixed-size batches and N
// worker goroutines apply them concurrently, so the sharded front-end —
// not the generator — is the measured bottleneck. It is how "Trace-driven
// sharded replay" throughput numbers (accesses/sec across shard counts,
// worker counts and home functions) are produced; see DESIGN.md §6.
//
// Semantics versus the simulator path: replay feeds EVERY record to the
// directory as a fill (no private-cache hit filtering, no evictions), so
// it measures directory-side throughput under the full access stream —
// the worst case a directory front-end can see. Batches are shard-affine
// (see Run) and handed to workers in fill order; with one worker,
// per-block operation order is exactly the stream order, while with
// several workers two batches of the same shard may be applied out of
// order, so aggregate statistics (occupancy, attempt histogram,
// invalidation counts) are meaningful but per-access Op sequences are
// not. Use trace.Replay when bit-identical simulator state matters.
//
// Two submission paths share the Result shape for A/B comparison:
//
//   - ViaApplyShard (the default, and the named baseline): the original
//     pipeline above — the producer packs shard-affine batches and a
//     worker pool drives ApplyShard directly.
//   - ViaEngine: the producer is a thin client of the asynchronous
//     DirectoryEngine (internal/engine) — it packs plain fixed-size
//     batches and fire-and-forget submits them; routing, queueing and
//     shard-affine draining all happen inside the engine. RunMulti adds
//     concurrent producers on this path, which the baseline pipeline
//     cannot express (its producer is the serial stage).
package replay

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/trace"
	"cuckoodir/internal/workload"
)

// Source yields trace records; io.EOF ends the stream. *trace.Reader
// satisfies it via TraceSource, and Synthesize generates records from a
// workload profile without touching disk.
type Source interface {
	Next() (trace.Record, error)
}

// readerSource adapts a *trace.Reader.
type readerSource struct{ r *trace.Reader }

func (s readerSource) Next() (trace.Record, error) { return s.r.Read() }

// TraceSource adapts a trace reader to the pipeline's Source.
func TraceSource(r *trace.Reader) Source { return readerSource{r} }

// synthSource generates records round-robin across cores — the same
// interleaving trace.Capture records, minus the file.
type synthSource struct {
	gens []*workload.Generator
	next int
	left int
}

// Synthesize returns a Source producing n records of the profile's
// access stream, interleaved round-robin over cores, deterministic in
// (profile, cores, seed) and identical to what trace.Capture with the
// same arguments would record.
func Synthesize(prof workload.Profile, cores int, seed uint64, n int) Source {
	gens := make([]*workload.Generator, cores)
	for c := range gens {
		gens[c] = workload.NewGenerator(prof, c, cores, seed)
	}
	return &synthSource{gens: gens, left: n}
}

func (s *synthSource) Next() (trace.Record, error) {
	if s.left <= 0 {
		return trace.Record{}, io.EOF
	}
	s.left--
	c := s.next
	s.next = (s.next + 1) % len(s.gens)
	return trace.Record{Core: c, Access: s.gens[c].Next()}, nil
}

// Via selects the submission path a replay run drives.
type Via uint8

// Submission paths.
const (
	// ViaApplyShard (the default) is the direct pipeline: shard-affine
	// batches applied by a worker pool through ApplyShard — the named
	// baseline engine runs are compared against.
	ViaApplyShard Via = iota
	// ViaEngine submits plain batches to an asynchronous
	// DirectoryEngine and lets its drainers do the shard-affine work.
	ViaEngine
)

// String names the path ("applyshard", "engine").
func (v Via) String() string {
	switch v {
	case ViaApplyShard:
		return "applyshard"
	case ViaEngine:
		return "engine"
	default:
		return fmt.Sprintf("Via(%d)", uint8(v))
	}
}

// Options parameterize a replay run. The zero value is usable.
type Options struct {
	// Workers is the number of goroutines applying batches on the
	// ViaApplyShard path (default GOMAXPROCS). The engine path sizes its
	// drainer pool from Engine instead.
	Workers int
	// BatchSize is the number of records per batch (default 256) on
	// both paths.
	BatchSize int
	// Via selects the submission path.
	Via Via
	// Engine configures the ViaEngine path (drainers, queue depth,
	// backpressure, QoS schedule); the zero value takes the engine's
	// defaults.
	Engine engine.Options
	// Background is the fraction (0..1) of batches submitted as
	// qos.Background on the engine path — the class-mix knob for driving
	// a foreground/background workload through the engine's QoS
	// scheduler. Batches alternate classes deterministically (a debt
	// accumulator, not a coin flip), so a run's class mix is exact and
	// reproducible. 0 (the default) submits everything Foreground; the
	// direct path rejects a non-zero value (ApplyShard has no queues to
	// schedule).
	Background float64
}

// DefaultBatchSize is the records-per-batch default: large enough that
// per-batch overhead (channel hop, shard grouping) amortizes, small
// enough that batches from different workers overlap across shards.
const DefaultBatchSize = 256

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// validateBackground rejects an out-of-range class mix, or any mix at
// all on the direct path (ApplyShard has no queues for a scheduler to
// arbitrate).
func (o Options) validateBackground() error {
	if o.Background < 0 || o.Background > 1 {
		return fmt.Errorf("replay: Background fraction %v out of range [0, 1]", o.Background)
	}
	if o.Background > 0 && o.Via != ViaEngine {
		return fmt.Errorf("replay: Background class mix requires Options.Via == ViaEngine (the %s path has no QoS queues)", ViaApplyShard)
	}
	return nil
}

// Result reports one replay run.
type Result struct {
	// Accesses is the number of records applied; Batches the number of
	// ApplyShard calls (or engine submissions) they were partitioned
	// into.
	Accesses uint64
	Batches  uint64
	// Dropped counts records the pipeline had read but never applied
	// because a source error stopped production mid-batch, or (engine
	// path) because the engine refused the batch's submission. It is zero
	// on a clean run; when non-zero the accompanying error says why.
	Dropped uint64
	// Elapsed is the wall time of the pipeline (reading, batching and
	// applying overlap; this is end-to-end).
	Elapsed time.Duration
	// Via is the submission path the run used; Producers the number of
	// producing goroutines (1 except for RunMulti).
	Via       Via
	Producers int
	// Workers and BatchSize echo the effective options (Workers is the
	// drainer count on the engine path).
	Workers   int
	BatchSize int
	// Stats is the merged directory statistics snapshot after the run.
	Stats *directory.Stats
	// Counters is the lock-free per-shard counter snapshot after the
	// run (directory.ShardCounters): unlike Stats it can also be polled
	// DURING a run via dir.Counters() without stalling any shard.
	Counters directory.ShardCounters
	// ShardLens is each shard's tracked-block count after the run;
	// Capacity the aggregate entry-slot capacity (0 when unbounded).
	ShardLens []int
	Capacity  int
	// Resizes is the online-resize snapshot after the run — non-zero
	// only when the directory carries a ^grow policy (the engine's
	// drainers trigger and execute the migrations) or the caller resized
	// shards explicitly while the run was in flight.
	Resizes directory.ResizeStats
	// Engine-path fault-containment fields (always zero on the direct
	// path): Shed counts submissions refused because their deadline had
	// already expired, Erred counts accesses whose run completed with a
	// contained-fault error instead of applying, and GrowFailures counts
	// automatic-grow attempts the directory rejected — GrowError carries
	// the most recent cause so a silent capacity plateau is explainable
	// from the run report alone.
	Shed         uint64
	Erred        uint64
	GrowFailures uint64
	GrowError    string
	// Classes holds one per-class QoS report per priority class on the
	// engine path (all-zero on the direct path): what each class
	// submitted and completed, what the engine refused, and the
	// enqueue-to-completion percentiles its drainers recorded.
	Classes [qos.NumClasses]ClassReport
}

// ClassReport is one priority class's row in an engine-path Result.
type ClassReport struct {
	// Class identifies the row.
	Class qos.Class
	// SubmittedAccesses / CompletedAccesses count the class's accesses
	// accepted into the engine and applied to the directory.
	SubmittedAccesses uint64
	CompletedAccesses uint64
	// Rejected counts queue-full refusals, Shed pre-enqueue deadline
	// refusals — per-class backpressure made visible.
	Rejected uint64
	Shed     uint64
	// Samples counts the latency samples behind the percentiles below
	// (one per completed request).
	Samples uint64
	// P50/P99/P999 are enqueue-to-completion percentiles at power-of-two
	// resolution.
	P50, P99, P999 time.Duration
}

// Throughput returns replayed accesses per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Accesses) / r.Elapsed.Seconds()
}

// Entries returns the tracked-block total (the sum of ShardLens).
func (r Result) Entries() int {
	total := 0
	for _, n := range r.ShardLens {
		total += n
	}
	return total
}

// Occupancy returns Entries relative to Capacity (0 when unbounded).
func (r Result) Occupancy() float64 {
	if r.Capacity == 0 {
		return 0
	}
	return float64(r.Entries()) / float64(r.Capacity)
}

// ShardImbalance returns max/mean of the per-shard occupancy — 1.0 is a
// perfectly balanced home function, and low-bit interleaving over
// region-striped address streams shows up here first.
func (r Result) ShardImbalance() float64 {
	if len(r.ShardLens) == 0 {
		return 0
	}
	maxLen, total := 0, 0
	for _, n := range r.ShardLens {
		total += n
		if n > maxLen {
			maxLen = n
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(r.ShardLens))
	return float64(maxLen) / mean
}

// String renders the one-line report the CLI prints.
func (r Result) String() string {
	mode := ""
	if r.Via == ViaEngine {
		mode = fmt.Sprintf(" via engine (%d producers)", r.Producers)
	}
	s := fmt.Sprintf(
		"%d accesses in %.2fs (%.0f acc/s, %d workers, batch %d)%s: %.2f avg insertion attempts, %d forced invalidations, occupancy %.1f%%, shard imbalance %.2fx",
		r.Accesses, r.Elapsed.Seconds(), r.Throughput(), r.Workers, r.BatchSize, mode,
		r.Stats.Attempts.Mean(), r.Stats.ForcedEvictions, r.Occupancy()*100, r.ShardImbalance())
	if r.Resizes.Started > 0 {
		s += fmt.Sprintf("; %d/%d online resizes completed (%d entries migrated)",
			r.Resizes.Completed, r.Resizes.Started, r.Resizes.MigratedEntries)
	}
	if r.GrowFailures > 0 {
		s += fmt.Sprintf("; %d grow FAILURES (last: %s)", r.GrowFailures, r.GrowError)
	}
	if r.Shed > 0 || r.Erred > 0 {
		s += fmt.Sprintf("; %d submissions shed, %d accesses erred", r.Shed, r.Erred)
	}
	// Per-class QoS rows (engine path): latency percentiles per class,
	// plus what the class-aware backpressure refused. A class that saw no
	// traffic prints nothing.
	for _, c := range r.Classes {
		if c.Samples == 0 && c.SubmittedAccesses == 0 && c.Rejected == 0 && c.Shed == 0 {
			continue
		}
		s += fmt.Sprintf("; %s p50=%v p99=%v p999=%v (%d samples", c.Class, c.P50, c.P99, c.P999, c.Samples)
		if c.Rejected > 0 {
			s += fmt.Sprintf(", %d rejected", c.Rejected)
		}
		if c.Shed > 0 {
			s += fmt.Sprintf(", %d shed", c.Shed)
		}
		s += ")"
	}
	if r.Dropped > 0 {
		s += fmt.Sprintf("; %d records read but DROPPED un-applied (source error)", r.Dropped)
	}
	return s
}

// Run drives the pipeline: records from src are packed into fixed-size,
// shard-affine batches on the caller's goroutine and applied by
// Options.Workers goroutines through the directory's batched apply
// path. Reads become AccessRead, writes AccessWrite; record cores index
// tracked caches directly, so every core must be < dir.NumCaches().
//
// Batches are shard-affine — the producer routes each record to its home
// shard's pending batch (ShardOf) and emits a batch when it fills — so
// workers apply each batch through ApplyShard: one lock acquisition, no
// grouping pass, no discarded Op slice, and the worker pool, not Apply's
// internal fan-out, supplies the parallelism. This is the directory-side
// batching DLS-style designs argue for: accesses to one home slice drain
// under one lock acquisition while other slices proceed independently.
//
// On a source or record error the pipeline stops producing, drains
// in-flight batches, and returns the error together with the partial
// Result; records read but not yet applied (the pending partial
// batches) are counted in Result.Dropped rather than silently lost.
//
// With Options.Via == ViaEngine the same contract holds, but the
// records flow through an asynchronous DirectoryEngine: see runEngine.
func Run(dir *directory.ShardedDirectory, src Source, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validateBackground(); err != nil {
		return Result{}, err
	}
	if o.Via == ViaEngine {
		return runEngine(dir, src, o)
	}
	res := Result{Workers: o.Workers, BatchSize: o.BatchSize, Producers: 1}

	type shardBatch struct {
		shard    int
		accesses []directory.Access
	}
	// Two batches per worker queue up so the producer keeps filling
	// while every worker applies.
	batches := make(chan shardBatch, 2*o.Workers)
	// Applied batch buffers come back on free for the producer to
	// refill: ApplyShard never keeps its slice. At most every pending
	// batch, every queued batch and one batch per worker exist at
	// once, so the free list holds all of them and a steady run
	// allocates no batches after its first few.
	free := make(chan []directory.Access, dir.ShardCount()+cap(batches)+o.Workers)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				dir.ApplyShard(b.shard, b.accesses)
				select {
				case free <- b.accesses[:0]:
				default:
				}
			}
		}()
	}

	numCaches := dir.NumCaches()
	start := time.Now()
	var err error
	pending := make([][]directory.Access, dir.ShardCount())
	for {
		rec, rerr := src.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			err = rerr
			break
		}
		acc, aerr := recordAccess(rec, numCaches)
		if aerr != nil {
			err = aerr
			break
		}
		h := dir.ShardOf(acc.Addr)
		if pending[h] == nil {
			select {
			case pending[h] = <-free:
			default:
				pending[h] = make([]directory.Access, 0, o.BatchSize)
			}
		}
		pending[h] = append(pending[h], acc)
		if len(pending[h]) == o.BatchSize {
			res.Accesses += uint64(o.BatchSize)
			res.Batches++
			batches <- shardBatch{shard: h, accesses: pending[h]}
			pending[h] = nil
		}
	}
	if err == nil {
		for h, b := range pending {
			if len(b) > 0 {
				res.Accesses += uint64(len(b))
				res.Batches++
				batches <- shardBatch{shard: h, accesses: b}
				pending[h] = nil
			}
		}
	} else {
		// A source error stops production with partial batches pending:
		// those records were read but will never be applied — report
		// them instead of losing them invisibly.
		for _, b := range pending {
			res.Dropped += uint64(len(b))
		}
	}
	close(batches)
	wg.Wait()

	res.Elapsed = time.Since(start)
	finishResult(dir, &res)
	return res, err
}

// finishResult snapshots the directory-side fields of a Result.
func finishResult(dir *directory.ShardedDirectory, res *Result) {
	res.Counters = dir.Counters()
	res.Stats = dir.Stats()
	res.ShardLens = dir.ShardLens()
	res.Capacity = dir.Capacity()
	res.Resizes = dir.ResizeStats()
}

// runEngine is the ViaEngine body of Run: the producer is a thin engine
// client — it packs plain fixed-size batches (no shard routing, no
// worker pool) and fire-and-forget submits them; the engine's drainers
// do the shard-affine batched applying. Close drains everything before
// the clock stops, so Throughput covers completion, not just
// submission.
func runEngine(dir *directory.ShardedDirectory, src Source, o Options) (Result, error) {
	eng, err := engine.New(dir, o.Engine)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Via:       ViaEngine,
		Producers: 1,
		Workers:   eng.Options().Drainers,
		BatchSize: o.BatchSize,
	}
	start := time.Now()
	err = produce(eng, src, dir.NumCaches(), o.BatchSize, o.Background, &res)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	res.Elapsed = time.Since(start)
	captureEngineHealth(eng, &res)
	finishResult(dir, &res)
	return res, err
}

// captureEngineHealth copies the engine's fault-containment tallies
// into the Result after the engine has drained (Close has returned, so
// the counters are final).
func captureEngineHealth(eng *engine.Engine, res *Result) {
	st := eng.Stats()
	res.Shed = st.Shed
	res.Erred = st.ErredAccesses
	res.GrowFailures = st.GrowFailures
	if h := eng.Health(); h.LastGrowError != nil {
		res.GrowError = h.LastGrowError.Error()
	}
	for c := range st.Classes {
		cs := st.Classes[c]
		p50, p99, p999 := cs.Latency.Percentiles()
		res.Classes[c] = ClassReport{
			Class:             qos.Class(c),
			SubmittedAccesses: cs.SubmittedAccesses,
			CompletedAccesses: cs.CompletedAccesses,
			Rejected:          cs.Rejected,
			Shed:              cs.Shed,
			Samples:           cs.Latency.Count(),
			P50:               p50,
			P99:               p99,
			P999:              p999,
		}
	}
}

// recordAccess converts one trace record to the directory access both
// submission paths apply, rejecting out-of-range cores — the shared
// conversion that keeps the direct and engine pipelines applying
// identical streams.
func recordAccess(rec trace.Record, numCaches int) (directory.Access, error) {
	if rec.Core < 0 || rec.Core >= numCaches {
		return directory.Access{}, fmt.Errorf("replay: record core %d out of range (directory tracks %d caches)", rec.Core, numCaches)
	}
	kind := directory.AccessRead
	if rec.Access.Write {
		kind = directory.AccessWrite
	}
	return directory.Access{Kind: kind, Addr: rec.Access.Addr, Cache: rec.Core}, nil
}

// produce reads src to EOF, submitting fixed-size detached batches to
// eng and tallying into res. On an error the pending batch — partial, or
// the full one the engine refused — is counted as dropped. The
// background fraction is paid down with a debt accumulator — every 1.0
// of accumulated debt makes the next batch Background — so the class mix
// is exact over any run length and identical across runs.
func produce(eng *engine.Engine, src Source, numCaches, batchSize int, background float64, res *Result) error {
	ctx := context.Background()
	batch := make([]directory.Access, 0, batchSize)
	bgDebt := 0.0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		class := qos.Foreground
		if bgDebt += background; bgDebt >= 1 {
			bgDebt--
			class = qos.Background
		}
		if _, err := eng.Submit(ctx, engine.Request{Accesses: batch, Class: class, Detached: true}); err != nil {
			res.Dropped += uint64(len(batch))
			return err
		}
		res.Accesses += uint64(len(batch))
		res.Batches++
		batch = batch[:0]
		return nil
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return flush()
		}
		var acc directory.Access
		if err == nil {
			acc, err = recordAccess(rec, numCaches)
		}
		if err != nil {
			res.Dropped += uint64(len(batch))
			return err
		}
		batch = append(batch, acc)
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// RunMulti is the multi-producer form of the engine path: every source
// gets its own producing goroutine, all submitting concurrently to one
// DirectoryEngine over the same directory — the submission-side scaling
// a single serial producer (either path of Run) cannot express.
// Options.Via must be ViaEngine (the direct pipeline's producer is
// inherently serial). Producers run their sources to completion; the
// first error (with its producer's dropped count) is reported alongside
// the combined Result.
func RunMulti(dir *directory.ShardedDirectory, srcs []Source, o Options) (Result, error) {
	o = o.withDefaults()
	if o.Via != ViaEngine {
		return Result{}, fmt.Errorf("replay: RunMulti requires Options.Via == ViaEngine (the %s pipeline is single-producer)", ViaApplyShard)
	}
	if err := o.validateBackground(); err != nil {
		return Result{}, err
	}
	if len(srcs) == 0 {
		return Result{}, fmt.Errorf("replay: RunMulti needs at least one source")
	}
	eng, err := engine.New(dir, o.Engine)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Via:       ViaEngine,
		Producers: len(srcs),
		Workers:   eng.Options().Drainers,
		BatchSize: o.BatchSize,
	}
	numCaches := dir.NumCaches()
	subResults := make([]Result, len(srcs))
	errs := make([]error, len(srcs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			errs[i] = produce(eng, src, numCaches, o.BatchSize, o.Background, &subResults[i])
		}(i, src)
	}
	wg.Wait()
	if cerr := eng.Close(); cerr != nil && err == nil {
		err = cerr
	}
	for i := range subResults {
		res.Accesses += subResults[i].Accesses
		res.Batches += subResults[i].Batches
		res.Dropped += subResults[i].Dropped
		if errs[i] != nil && err == nil {
			err = errs[i]
		}
	}
	res.Elapsed = time.Since(start)
	captureEngineHealth(eng, &res)
	finishResult(dir, &res)
	return res, err
}

// ReplayTrace replays a recorded trace through the sharded directory.
// The trace's core count must not exceed the directory's tracked-cache
// count (each core drives the same-numbered cache).
func ReplayTrace(dir *directory.ShardedDirectory, r *trace.Reader, o Options) (Result, error) {
	if r.Cores() > dir.NumCaches() {
		return Result{}, fmt.Errorf("replay: trace has %d cores but the directory tracks only %d caches",
			r.Cores(), dir.NumCaches())
	}
	return Run(dir, TraceSource(r), o)
}

// ReplayWorkload synthesizes n accesses of the profile (round-robin over
// cores, as trace.Capture would record) and replays them — the
// trace-free path for sweeps and benchmarks. It checks the core count
// and the profile before it builds any generator.
func ReplayWorkload(dir *directory.ShardedDirectory, prof workload.Profile, cores int, seed uint64, n int, o Options) (Result, error) {
	if cores <= 0 || cores > dir.NumCaches() {
		return Result{}, fmt.Errorf("replay: %d cores out of range (directory tracks %d caches)", cores, dir.NumCaches())
	}
	if err := prof.Validate(cores); err != nil {
		return Result{}, fmt.Errorf("replay: %w", err)
	}
	return Run(dir, Synthesize(prof, cores, seed, n), o)
}
