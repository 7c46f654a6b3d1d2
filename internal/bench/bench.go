// Package bench is the fixed performance-benchmark suite behind
// `cuckoodir bench` and the committed BENCH_cuckoo.json trajectory.
//
// The paper's argument is quantitative — the d-ary cuckoo table must be
// cheap per access for the directory to scale (§4, §5.2) — so this
// reproduction tracks its own measured cost the same way it tracks the
// paper's figures: a FIXED set of named benchmark cases (table
// find/insert/delete at swept occupancies for each hash family,
// including the pre-devirtualization interface-dispatch path as a
// baseline, plus sharded replay at swept worker/shard counts and the
// engine-vs-ApplyShard submission A/B at swept producer counts) whose
// results append to a stable, diffable JSON file, one labeled run per
// PR. Future PRs extend the trajectory instead of re-measuring ad hoc.
//
// The same cases are exposed as ordinary Go benchmarks in
// bench_test.go (BenchmarkTableInsert, BenchmarkTableFind, ...), which
// CI runs with -benchtime=1x as a compile-and-run smoke check.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/replay"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/workload"
)

// Suite geometry: a 4-way table big enough that probes miss the L1/L2
// working set of a trivial loop, small enough that setup stays cheap.
const (
	benchWays = 4
	benchSets = 1 << 14 // 65536 entries
)

// Families swept by the table cases. "iface" is the skewing family
// wrapped in hashfn.Opaque, which defeats indexer specialization and
// reproduces the pre-PR-4 Family-interface dispatch path — the baseline
// the acceptance criterion's >= 1.5x speedup is measured against.
var families = []string{"skew", "strong", "iface"}

// Occupancies swept by the table cases (fractions of capacity). The
// acceptance comparison point is 70%.
var occupancies = []int{50, 70, 90}

// Sink defeats dead-code elimination in read-only benchmark loops.
var Sink uint64

// Case is one named benchmark of the fixed suite.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// familyFor resolves a family name for the bench table geometry.
func familyFor(fam string) hashfn.Family {
	indexBits := bits.TrailingZeros(uint(benchSets))
	switch fam {
	case "skew":
		return hashfn.NewSkew(indexBits)
	case "strong":
		return hashfn.Strong{}
	case "iface":
		return hashfn.Opaque(hashfn.NewSkew(indexBits))
	default:
		panic("bench: unknown family " + fam)
	}
}

// newBenchTable builds the suite's table filled to the target
// occupancy and returns the resident keys.
func newBenchTable(fam string, occPct int) (*core.Table[uint64], []uint64) {
	t := core.NewTable[uint64](core.Config{
		Ways:       benchWays,
		SetsPerWay: benchSets,
		Hash:       familyFor(fam),
	})
	target := t.Capacity() * occPct / 100
	r := rng.New(0x5eed)
	keys := make([]uint64, 0, target)
	for t.Len() < target {
		k := r.Uint64()
		res := t.Insert(k, k)
		if res.Present {
			continue
		}
		if res.Evicted != nil {
			// Essentially unreachable below the d=4 load threshold
			// (97.7%), but keep the key list exact regardless.
			for i, kk := range keys {
				if kk == res.Evicted.Key {
					keys[i] = keys[len(keys)-1]
					keys = keys[:len(keys)-1]
					break
				}
			}
		}
		keys = append(keys, k)
	}
	return t, keys
}

// tableFind measures Find at steady occupancy, alternating resident and
// absent keys.
func tableFind(fam string, occPct int) func(b *testing.B) {
	return func(b *testing.B) {
		t, keys := newBenchTable(fam, occPct)
		r := rng.New(0xf19d)
		misses := make([]uint64, 4096)
		for i := range misses {
			misses[i] = r.Uint64() // absent with probability ~1
		}
		b.ResetTimer()
		var sink uint64
		for i := 0; i < b.N; i++ {
			var p *uint64
			if i&1 == 0 {
				p = t.Find(keys[i%len(keys)])
			} else {
				p = t.Find(misses[i%len(misses)])
			}
			if p != nil {
				sink += *p
			}
		}
		Sink = sink
	}
}

// tableInsert measures Insert at near-constant occupancy: inserted keys
// are deleted again in untimed chunks so the table never drifts more
// than ~1.5% above the target.
func tableInsert(fam string, occPct int) func(b *testing.B) {
	return func(b *testing.B) {
		t, _ := newBenchTable(fam, occPct)
		r := rng.New(0x125e47)
		const chunk = 1024
		pending := make([]uint64, 0, chunk)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := r.Uint64()
			res := t.Insert(k, k)
			if !res.Present {
				pending = append(pending, k)
			}
			if len(pending) == chunk {
				b.StopTimer()
				for _, k := range pending {
					t.Delete(k)
				}
				pending = pending[:0]
				b.StartTimer()
			}
		}
	}
}

// tableDelete measures Delete of resident keys; deleted chunks are
// re-inserted untimed to hold occupancy.
func tableDelete(fam string, occPct int) func(b *testing.B) {
	return func(b *testing.B) {
		t, keys := newBenchTable(fam, occPct)
		chunk := len(keys)
		if chunk > 1024 {
			chunk = 1024
		}
		b.ResetTimer()
		for i := 0; i < b.N; {
			for c := 0; c < chunk && i < b.N; c, i = c+1, i+1 {
				t.Delete(keys[c])
			}
			b.StopTimer()
			for c := 0; c < chunk; c++ {
				t.Insert(keys[c], keys[c])
			}
			b.StartTimer()
		}
	}
}

// Replay sweep: one iteration replays replayAccesses synthesized
// accesses of the oracle workload through a sharded cuckoo directory;
// the acc/s extra metric is the pipeline throughput.
const (
	replayAccesses = 200_000
	replayCores    = 16
)

// benchDir builds a sharded directory of cuckoo-4x{sets} slices.
func benchDir(b *testing.B, shards, sets int) *directory.ShardedDirectory {
	d, err := directory.BuildSharded(directory.Spec{
		Org:       directory.OrgCuckoo,
		NumCaches: replayCores,
		Geometry:  directory.Geometry{Ways: 4, Sets: sets},
	}, shards)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func replayCase(shards, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		prof, err := workload.ByName("oracle")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := benchDir(b, shards, 8192)
			b.StartTimer()
			res, err := replay.ReplayWorkload(d, prof, replayCores, 11, replayAccesses,
				replay.Options{Workers: workers, BatchSize: 256})
			if err != nil {
				b.Fatal(err)
			}
			if res.Accesses != replayAccesses {
				b.Fatalf("replayed %d accesses", res.Accesses)
			}
		}
		b.ReportMetric(float64(replayAccesses)*float64(b.N)/b.Elapsed().Seconds(), "acc/s")
	}
}

// engineReplayCase is the engine-vs-ApplyShard A/B counterpart of
// replayCase: the same synthesized workload submitted through the
// asynchronous DirectoryEngine. producers == 1 replays the identical
// single-producer stream (compare against replay/shards=N/workers=1,
// the direct baseline — the acceptance bar is within 20% of it);
// producers > 1 splits the access budget over concurrent submitters,
// the scaling shape the direct pipeline's serial producer cannot
// express (visible on multi-core hosts; a 1-CPU box serializes it).
func engineReplayCase(shards, producers int) func(b *testing.B) {
	return func(b *testing.B) {
		prof, err := workload.ByName("oracle")
		if err != nil {
			b.Fatal(err)
		}
		var growFails uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := benchDir(b, shards, 8192)
			b.StartTimer()
			opts := replay.Options{BatchSize: 256, Via: replay.ViaEngine}
			var res replay.Result
			if producers == 1 {
				res, err = replay.ReplayWorkload(d, prof, replayCores, 11, replayAccesses, opts)
			} else {
				srcs := make([]replay.Source, producers)
				for p := range srcs {
					srcs[p] = replay.Synthesize(prof, replayCores, 11+uint64(p), replayAccesses/producers)
				}
				res, err = replay.RunMulti(d, srcs, opts)
			}
			if err != nil {
				b.Fatal(err)
			}
			if want := uint64(replayAccesses / producers * producers); res.Accesses != want {
				b.Fatalf("replayed %d accesses, want %d", res.Accesses, want)
			}
			growFails += res.GrowFailures
		}
		b.ReportMetric(float64(replayAccesses/producers*producers)*float64(b.N)/b.Elapsed().Seconds(), "acc/s")
		// A directory that wanted to grow and couldn't was measured
		// capacity-capped — surface it so the row carries a warning
		// (RunSuite) instead of reading as a clean throughput number.
		if growFails > 0 {
			b.ReportMetric(float64(growFails)/float64(b.N), "grow_failures")
		}
	}
}

// The engine submit cycle of perfbench's engine-rr-mixed client:
// submitFg foreground tickets of submitFgBatch accesses, then one
// detached background batch of submitBgBatch.
const (
	submitFg      = 4
	submitFgBatch = 64
	submitBgBatch = 256
	submitCycle   = submitFg*submitFgBatch + submitBgBatch
)

// engineSubmitCase times that cycle on an engine with the given drainer
// count over 8 shards of a cuckoo-4x8192 directory already warmed with
// the cycled stream, so every access hits and the directory allocates
// nothing. One op is one cycle: the four tickets are waited, the
// detached batch is covered by a Flush after the loop. The accesses are
// generated before the timer starts, so the allocation columns read
// what the engine leaves per cycle.
func engineSubmitCase(drainers int) func(b *testing.B) {
	return func(b *testing.B) {
		prof, err := workload.ByName("oracle")
		if err != nil {
			b.Fatal(err)
		}
		accs := make([]directory.Access, 0, 128*submitCycle)
		src := replay.Synthesize(prof, replayCores, 11, cap(accs))
		for range cap(accs) {
			rec, err := src.Next()
			if err != nil {
				b.Fatal(err)
			}
			kind := directory.AccessRead
			if rec.Access.Write {
				kind = directory.AccessWrite
			}
			accs = append(accs, directory.Access{Kind: kind, Addr: rec.Access.Addr, Cache: rec.Core})
		}
		d := benchDir(b, 8, 8192)
		d.Apply(accs)
		eng, err := engine.New(d, engine.Options{Drainers: drainers, Sched: qos.Sched{Policy: qos.WeightedDeficit}})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		ctx := context.Background()
		var tickets [submitFg]*engine.Ticket
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle := accs[i%(len(accs)/submitCycle)*submitCycle:][:submitCycle]
			for j := range tickets {
				if tickets[j], err = eng.SubmitBatch(ctx, cycle[j*submitFgBatch:][:submitFgBatch]); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.SubmitDetachedClass(ctx, qos.Background, cycle[submitFg*submitFgBatch:]); err != nil {
				b.Fatal(err)
			}
			for _, t := range tickets {
				if err := t.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := eng.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(submitCycle*float64(b.N)/b.Elapsed().Seconds(), "acc/s")
	}
}

// applyHitsCase times ApplyShard alone over pre-routed batches of 256
// reads, all hits, on 8 shards of cuckoo-4x{sets} at 35% load.
func applyHitsCase(sets int) func(b *testing.B) {
	return func(b *testing.B) {
		d := benchDir(b, 8, sets)
		r := rng.New(0xa991)
		byShard := make([][]directory.Access, d.ShardCount())
		for range d.Capacity() * 35 / 100 {
			a := directory.Access{Kind: directory.AccessRead, Addr: r.Uint64() >> 6, Cache: int(r.Uint64() % replayCores)}
			d.Read(a.Addr, a.Cache)
			byShard[d.ShardOf(a.Addr)] = append(byShard[d.ShardOf(a.Addr)], a)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := i % len(byShard) // shard h's next window of 256 reads, wrapping
			k := i / len(byShard) * 256 % (len(byShard[h]) - 255)
			d.ApplyShard(h, byShard[h][k:k+256])
		}
		b.ReportMetric(256*float64(b.N)/b.Elapsed().Seconds(), "acc/s")
	}
}

// applyChurnCase times ApplyShard over pre-routed batches of 256
// accesses that alternate an evict of a resident block with a read of a
// new one, on 8 shards of cuckoo-4x{sets} held at 85% load, the
// regime of replay-dss-churn: every read misses and inserts, and every
// evict frees an entry. The stream cycles through a pool of addresses
// an eighth longer than the resident set: step k evicts pool[k] and
// reads pool[k+resident], so the directory's contents repeat each
// cycle and each shard's accesses can be replayed as a ring.
func applyChurnCase(sets int) func(b *testing.B) {
	return func(b *testing.B) {
		const batch = 256
		d := benchDir(b, 8, sets)
		resident := d.Capacity() * 85 / 100
		r := rng.New(0xc4a2)
		pool := make([]uint64, resident+resident/8)
		for i := range pool {
			pool[i] = r.Uint64() >> 6
		}
		for i := range resident {
			d.Read(pool[i], i%replayCores)
		}
		byShard := make([][]directory.Access, d.ShardCount())
		for k := range pool {
			in := (k + resident) % len(pool)
			for _, a := range []directory.Access{
				{Kind: directory.AccessEvict, Addr: pool[k], Cache: k % replayCores},
				{Kind: directory.AccessRead, Addr: pool[in], Cache: in % replayCores},
			} {
				byShard[d.ShardOf(a.Addr)] = append(byShard[d.ShardOf(a.Addr)], a)
			}
		}
		for h, accs := range byShard { // a window may wrap past the ring's end
			byShard[h] = append(accs, accs[:batch]...)
		}
		next := make([]int, len(byShard))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := i % len(byShard)
			k := next[h]
			d.ApplyShard(h, byShard[h][k:k+batch])
			if k += batch; k >= len(byShard[h])-batch {
				k -= len(byShard[h]) - batch
			}
			next[h] = k
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "acc/s")
	}
}

// Cases returns the fixed suite, in stable order. The set is part of
// the trajectory contract: adding a case is fine (new rows appear in
// later runs); renaming one breaks comparability, so don't.
func Cases() []Case {
	var cases []Case
	for _, op := range []string{"find", "insert", "delete"} {
		for _, fam := range families {
			for _, occ := range occupancies {
				kernel := map[string]func(string, int) func(*testing.B){
					"find": tableFind, "insert": tableInsert, "delete": tableDelete,
				}[op]
				cases = append(cases, Case{
					Name:  fmt.Sprintf("table/%s/%s/occ=%d", op, fam, occ),
					Bench: kernel(fam, occ),
				})
			}
		}
	}
	for _, sw := range []struct{ shards, workers int }{
		{1, 1}, {8, 1}, {8, 4}, {8, 8},
	} {
		cases = append(cases, Case{
			Name:  fmt.Sprintf("replay/shards=%d/workers=%d", sw.shards, sw.workers),
			Bench: replayCase(sw.shards, sw.workers),
		})
	}
	for _, sw := range []struct{ shards, producers int }{
		{8, 1}, {8, 4},
	} {
		cases = append(cases, Case{
			Name:  fmt.Sprintf("replay/engine/shards=%d/producers=%d", sw.shards, sw.producers),
			Bench: engineReplayCase(sw.shards, sw.producers),
		})
	}
	for _, sets := range []int{512, 16384} { // 256 KB of pairs, in cache, and 8 MB
		cases = append(cases, Case{fmt.Sprintf("apply/hits/sets=%d", sets), applyHitsCase(sets)})
	}
	for _, drainers := range []int{1, 8} {
		cases = append(cases, Case{fmt.Sprintf("engine/submit/drainers=%d", drainers), engineSubmitCase(drainers)})
	}
	for _, sets := range []int{512, 16384} { // as apply/hits, at 85% load and every read a miss
		cases = append(cases, Case{fmt.Sprintf("apply/churn/sets=%d", sets), applyChurnCase(sets)})
	}
	return cases
}

// Result is one case's measurement.
type Result struct {
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// AccPerSec is the replay pipeline throughput (replay cases only).
	AccPerSec float64 `json:"acc_per_sec,omitempty"`
	// BytesPerOp and AllocsPerOp are the heap bytes and objects one op
	// allocates, as testing.BenchmarkResult counts them. Rows recorded
	// before these columns existed leave them out; a recorded zero is a
	// measured zero.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Notes flags rows whose numbers need a caveat to be interpretable,
	// such as parallel cases recorded on a host that serializes them,
	// where "more parallelism is slower" is a recording artifact, not a
	// result (parallelNote and RunSuite list them all).
	Notes string `json:"notes,omitempty"`
}

// Run is one labeled execution of the whole suite.
type Run struct {
	// Label identifies the run in the trajectory ("pr4", "dev", ...).
	Label string `json:"label"`
	// MaxProcs records GOMAXPROCS — the replay numbers are meaningless
	// without it.
	MaxProcs int `json:"go_max_procs"`
	// NumCPU records runtime.NumCPU() — GOMAXPROCS can be raised above
	// the hardware, so scaling rows are only believable when BOTH are
	// >= the parallelism the case claims to measure.
	NumCPU int `json:"num_cpu"`
	// Results maps case name to measurement; encoding/json emits map
	// keys sorted, keeping the file diffable.
	Results map[string]Result `json:"results"`
}

// caseParallelism extracts the goroutine parallelism a case's name
// claims to sweep (the largest workers=/producers= parameter), or 1
// for serial cases.
func caseParallelism(name string) int {
	par := 1
	for _, key := range []string{"workers=", "producers="} {
		if i := strings.Index(name, key); i >= 0 {
			if n, err := strconv.Atoi(strings.SplitN(name[i+len(key):], "/", 2)[0]); err == nil && n > par {
				par = n
			}
		}
	}
	return par
}

// parallelNote renders the caveats of a parallel case, or "" when the
// row is trustworthy: a row recorded on hardware that serializes it is
// no scaling result, and a multi-producer row's allocation count varies
// with scheduling (up to 1.7x between runs on a 2-vCPU host).
func parallelNote(name string, maxProcs, numCPU int) string {
	par := caseParallelism(name)
	var note string
	switch {
	case par <= 1:
		return ""
	case maxProcs == 1:
		note = fmt.Sprintf("recorded at GOMAXPROCS=1: the %d-way parallelism of this case is serialized; not a scaling result", par)
	case numCPU < par:
		note = fmt.Sprintf("recorded with num_cpu=%d < %d-way case parallelism: scaling is capped by the hardware", numCPU, par)
	}
	if strings.Contains(name, "producers=") {
		note = joinNotes(note, "allocs/op depends on how the producers interleave with the drainers: do not compare it across runs")
	}
	return note
}

// joinNotes appends note to notes, "; "-separated.
func joinNotes(notes, note string) string {
	if notes == "" {
		return note
	}
	return notes + "; " + note
}

// RunSuite executes the suite with the standard testing.Benchmark
// calibration (~1s per case) and returns the labeled run. match, when
// non-nil, selects a case subset by name — handy for iterating on one
// kernel, but a filtered run records only the selected rows, so commit
// full runs to the trajectory. logf, when non-nil, receives one
// progress line per case.
func RunSuite(label string, match func(name string) bool, logf func(format string, args ...any)) Run {
	run := Run{
		Label:    label,
		MaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:   runtime.NumCPU(),
		Results:  map[string]Result{},
	}
	for _, c := range Cases() {
		if match != nil && !match(c.Name) {
			continue
		}
		br := testing.Benchmark(c.Bench)
		bytes, allocs := br.AllocedBytesPerOp(), br.AllocsPerOp()
		res := Result{
			NsPerOp:     float64(br.NsPerOp()),
			BytesPerOp:  &bytes,
			AllocsPerOp: &allocs,
		}
		if res.NsPerOp > 0 {
			res.OpsPerSec = 1e9 / res.NsPerOp
		}
		if acc, ok := br.Extra["acc/s"]; ok {
			res.AccPerSec = acc
		}
		res.Notes = parallelNote(c.Name, run.MaxProcs, run.NumCPU)
		if gf, ok := br.Extra["grow_failures"]; ok && gf > 0 {
			res.Notes = joinNotes(res.Notes, fmt.Sprintf("%.1f automatic-grow failures per iteration: throughput was measured against a capacity-capped directory", gf))
		}
		run.Results[c.Name] = res
		if logf != nil {
			if res.AccPerSec > 0 {
				logf("%-32s %12.0f ns/op %14.0f acc/s %10d B/op %8d allocs/op\n", c.Name, res.NsPerOp, res.AccPerSec, bytes, allocs)
			} else {
				logf("%-32s %12.1f ns/op %14.0f ops/s %10d B/op %8d allocs/op\n", c.Name, res.NsPerOp, res.OpsPerSec, bytes, allocs)
			}
			if res.Notes != "" {
				logf("  warning: %s\n", res.Notes)
			}
		}
	}
	return run
}

// Regressions compares cur against base case by case and returns one
// human-readable line per case that got slower by more than factor
// (e.g. factor 2 fails only on a >2x slowdown). Cases present in only
// one run are skipped — the guard protects existing rows, it does not
// freeze the case set. Throughput cases compare acc/s; latency cases
// compare ns/op.
func Regressions(base, cur Run, factor float64) []string {
	var bad []string
	names := make([]string, 0, len(cur.Results))
	for name := range cur.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := base.Results[name]
		if !ok {
			continue
		}
		c := cur.Results[name]
		if b.AccPerSec > 0 && c.AccPerSec > 0 {
			if c.AccPerSec*factor < b.AccPerSec {
				bad = append(bad, fmt.Sprintf("%s: %.0f acc/s vs %s's %.0f (%.2fx slower, limit %.1fx)",
					name, c.AccPerSec, base.Label, b.AccPerSec, b.AccPerSec/c.AccPerSec, factor))
			}
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*factor {
			bad = append(bad, fmt.Sprintf("%s: %.1f ns/op vs %s's %.1f (%.2fx slower, limit %.1fx)",
				name, c.NsPerOp, base.Label, b.NsPerOp, c.NsPerOp/b.NsPerOp, factor))
		}
	}
	return bad
}

// Trajectory is the content of BENCH_cuckoo.json: the run history this
// and future PRs append to.
type Trajectory struct {
	// Schema versions the file format.
	Schema int `json:"schema"`
	// Runs is the trajectory, in append order (one entry per label;
	// re-running a label replaces its entry in place).
	Runs []Run `json:"runs"`
}

// DefaultPath is the trajectory file committed at the repository root.
const DefaultPath = "BENCH_cuckoo.json"

// Load reads a trajectory file; a missing file yields an empty
// trajectory ready to append to.
func Load(path string) (Trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Trajectory{Schema: 1}, nil
	}
	if err != nil {
		return Trajectory{}, err
	}
	var tr Trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		return Trajectory{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return tr, nil
}

// Add appends run to the trajectory, replacing any existing run with
// the same label in place (so re-running a PR's benchmarks does not
// duplicate its row).
func (tr *Trajectory) Add(run Run) {
	if tr.Schema == 0 {
		tr.Schema = 1
	}
	for i := range tr.Runs {
		if tr.Runs[i].Label == run.Label {
			tr.Runs[i] = run
			return
		}
	}
	tr.Runs = append(tr.Runs, run)
}

// Lookup returns the run with the given label, if present.
func (tr Trajectory) Lookup(label string) (Run, bool) {
	for _, r := range tr.Runs {
		if r.Label == label {
			return r, true
		}
	}
	return Run{}, false
}

// Save writes the trajectory deterministically (two-space indent,
// sorted result keys, trailing newline) so successive runs diff
// cleanly.
func (tr Trajectory) Save(path string) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
