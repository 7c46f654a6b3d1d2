package replay

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/trace"
	"cuckoodir/internal/workload"
)

const testCores = 16

func testProfile(t testing.TB) workload.Profile {
	prof, err := workload.ByName("oracle")
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func testDir(t testing.TB, shards int) *directory.ShardedDirectory {
	spec := directory.Spec{
		Org:       directory.OrgCuckoo,
		NumCaches: testCores,
		Geometry:  directory.Geometry{Ways: 4, Sets: 1024},
	}
	d, err := directory.BuildSharded(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSynthesizeMatchesCapture: the trace-free source produces exactly
// the records trace.Capture writes for the same arguments.
func TestSynthesizeMatchesCapture(t *testing.T) {
	prof := testProfile(t)
	const n = 4096
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, prof, testCores, 42, n); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := Synthesize(prof, testCores, 42, n)
	for i := 0; i < n; i++ {
		want, err := rd.Read()
		if err != nil {
			t.Fatalf("record %d: trace read: %v", i, err)
		}
		got, err := src.Next()
		if err != nil {
			t.Fatalf("record %d: synth: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: synth %+v != captured %+v", i, got, want)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("synth after n records: %v, want EOF", err)
	}
}

// TestRunCountsAndStats: every record is applied exactly once, batches
// partition the stream, and the merged stats see one event per access.
func TestRunCountsAndStats(t *testing.T) {
	const n = 10_000
	for _, workers := range []int{1, 4} {
		d := testDir(t, 8)
		res, err := Run(d, Synthesize(testProfile(t), testCores, 1, n),
			Options{Workers: workers, BatchSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != n {
			t.Fatalf("workers=%d: applied %d accesses, want %d", workers, res.Accesses, n)
		}
		// Shard-affine batching: at least ceil(n/256) batches, at most
		// one extra partial batch per shard from the final flush.
		if min, max := uint64((n+255)/256), uint64(n/256+8); res.Batches < min || res.Batches > max {
			t.Fatalf("workers=%d: %d batches, want %d..%d", workers, res.Batches, min, max)
		}
		if got := res.Stats.Events.Total(); got == 0 {
			t.Fatalf("workers=%d: merged stats saw no events", workers)
		}
		if res.Entries() != d.Len() || res.Entries() == 0 {
			t.Fatalf("workers=%d: entries %d, dir len %d", workers, res.Entries(), d.Len())
		}
		if res.Occupancy() <= 0 || res.Occupancy() > 1 {
			t.Fatalf("workers=%d: occupancy %f out of range", workers, res.Occupancy())
		}
		if res.ShardImbalance() < 1 {
			t.Fatalf("workers=%d: imbalance %f < 1", workers, res.ShardImbalance())
		}
		if !strings.Contains(res.String(), "accesses") {
			t.Fatalf("report: %q", res.String())
		}
	}
}

// TestSingleWorkerMatchesSequential: with one worker the pipeline applies
// batches in order, so directory contents are identical to feeding the
// same stream through point operations.
func TestSingleWorkerMatchesSequential(t *testing.T) {
	const n = 8192
	prof := testProfile(t)

	par := testDir(t, 4)
	if _, err := Run(par, Synthesize(prof, testCores, 7, n), Options{Workers: 1, BatchSize: 128}); err != nil {
		t.Fatal(err)
	}

	seq := testDir(t, 4)
	src := Synthesize(prof, testCores, 7, n)
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if rec.Access.Write {
			seq.Write(rec.Access.Addr, rec.Core)
		} else {
			seq.Read(rec.Access.Addr, rec.Core)
		}
	}

	if par.Len() != seq.Len() {
		t.Fatalf("parallel len %d != sequential len %d", par.Len(), seq.Len())
	}
	seqContents := map[uint64]uint64{}
	seq.ForEach(func(addr, sharers uint64) bool { seqContents[addr] = sharers; return true })
	par.ForEach(func(addr, sharers uint64) bool {
		if seqContents[addr] != sharers {
			t.Fatalf("addr %#x: parallel sharers %#x != sequential %#x", addr, sharers, seqContents[addr])
		}
		return true
	})
}

// TestReplayTrace: end-to-end through the binary trace format.
func TestReplayTrace(t *testing.T) {
	var buf bytes.Buffer
	const n = 5000
	if _, err := trace.Capture(&buf, testProfile(t), testCores, 3, n); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTrace(testDir(t, 8), rd, Options{Workers: 4, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != n {
		t.Fatalf("replayed %d, want %d", res.Accesses, n)
	}
}

// TestReplayTraceTooManyCores: a trace with more cores than the
// directory tracks is rejected up front.
func TestReplayTraceTooManyCores(t *testing.T) {
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, testProfile(t), 32, 0, 16); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTrace(testDir(t, 2), rd, Options{}); err == nil {
		t.Fatal("32-core trace replayed into a 16-cache directory")
	}
	if _, err := ReplayWorkload(testDir(t, 2), testProfile(t), 32, 0, 16, Options{}); err == nil {
		t.Fatal("ReplayWorkload accepted 32 cores for a 16-cache directory")
	}
}

// errSource fails after a few records; the pipeline must drain and
// report the partial count with the error.
type errSource struct{ n int }

func (s *errSource) Next() (trace.Record, error) {
	if s.n == 0 {
		return trace.Record{}, io.ErrUnexpectedEOF
	}
	s.n--
	return trace.Record{Core: 0, Access: workload.Access{Addr: uint64(s.n)}}, nil
}

func TestRunSourceError(t *testing.T) {
	res, err := Run(testDir(t, 2), &errSource{n: 700}, Options{Workers: 2, BatchSize: 256})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("error = %v", err)
	}
	// Only complete batches were applied; partial per-shard batches are
	// dropped on error — and the drop is REPORTED, not silent.
	if res.Accesses > 512 || res.Accesses%256 != 0 {
		t.Fatalf("applied %d accesses, want a multiple of the batch size <= 512", res.Accesses)
	}
	if res.Accesses != uint64(res.Batches)*256 {
		t.Fatalf("accesses %d != batches %d x 256", res.Accesses, res.Batches)
	}
	if res.Accesses+res.Dropped != 700 {
		t.Fatalf("applied %d + dropped %d != 700 records read", res.Accesses, res.Dropped)
	}
	if res.Dropped == 0 {
		t.Fatal("a 700-record stream over 256-batches must leave a partial batch dropped")
	}
	if !strings.Contains(res.String(), "DROPPED") {
		t.Fatalf("String() hides the drop: %q", res.String())
	}
}

// TestRunCleanHasNoDrops: a clean run reports zero drops and keeps them
// out of the one-line report.
func TestRunCleanHasNoDrops(t *testing.T) {
	res, err := Run(testDir(t, 2), Synthesize(testProfile(t), testCores, 5, 1000), Options{BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 || strings.Contains(res.String(), "DROPPED") {
		t.Fatalf("clean run reports drops: %d, %q", res.Dropped, res.String())
	}
}

// TestRunBadCore: a record whose core exceeds the tracked-cache count
// fails cleanly instead of panicking inside Apply.
func TestRunBadCore(t *testing.T) {
	src := Synthesize(testProfile(t), testCores, 0, 100)
	d := testDir(t, 2) // 16 caches: fine
	if _, err := Run(d, src, Options{}); err != nil {
		t.Fatal(err)
	}
	small, err := directory.BuildSharded(directory.Spec{
		Org: directory.OrgCuckoo, NumCaches: 4,
		Geometry: directory.Geometry{Ways: 4, Sets: 64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(small, Synthesize(testProfile(t), testCores, 0, 100), Options{}); err == nil {
		t.Fatal("core 4+ accepted by a 4-cache directory")
	}
}

// TestRunConcurrent exercises the pipeline with many workers for the
// race detector.
func TestRunConcurrent(t *testing.T) {
	res, err := Run(testDir(t, 16), Synthesize(testProfile(t), testCores, 9, 30_000),
		Options{Workers: 8, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 30_000 {
		t.Fatalf("applied %d", res.Accesses)
	}
}

// cycleSource hands out left records by cycling recs; it allocates
// nothing per record.
type cycleSource struct {
	recs    []trace.Record
	i, left int
}

func (s *cycleSource) Next() (trace.Record, error) {
	if s.left == 0 {
		return trace.Record{}, io.EOF
	}
	s.left--
	r := s.recs[s.i]
	if s.i++; s.i == len(s.recs) {
		s.i = 0
	}
	return r, nil
}

// TestRunRecyclesBatches: the direct path hands applied batch buffers
// back to its producer, so a Run over 64K records allocates no more
// objects than one over 16K. Allocating a fresh batch per 256 records
// would cost the longer run 192 more.
func TestRunRecyclesBatches(t *testing.T) {
	src := Synthesize(testProfile(t), testCores, 3, 4096)
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	// A warm 32K-slot directory already tracks every block of the
	// cycled stream, so the measured runs insert and evict nothing.
	d := testDir(t, 8)
	if _, err := Run(d, &cycleSource{recs: recs, left: len(recs)}, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			res, err := Run(d, &cycleSource{recs: recs, left: n}, Options{Workers: 1})
			if err != nil || res.Accesses != uint64(n) {
				t.Fatalf("Run over %d records: %d applied, err %v", n, res.Accesses, err)
			}
		})
	}
	small, large := allocs(16<<10), allocs(64<<10)
	if large != small {
		t.Errorf("Run allocates %v objects over 64K records, %v over 16K; want the same", large, small)
	}
	if c := d.Counters(); c.Forced != 0 {
		t.Fatalf("%d forced evictions: the directory is too small for the stream", c.Forced)
	}
}

// TestRunEngineAutoGrow: replay traffic through a directory carrying a
// ^grow policy makes the engine's drainers resize shards live mid-run;
// the Result reports the resizes and no entry is lost to migration.
func TestRunEngineAutoGrow(t *testing.T) {
	d, err := directory.BuildNamed("sharded-4^grow=0.5(cuckoo-4x64)", testCores)
	if err != nil {
		t.Fatal(err)
	}
	dir := d.(*directory.ShardedDirectory)
	baseCap := dir.Capacity()
	// A footprint that overruns the base capacity (so growth triggers)
	// but fits the grown directory with cuckoo headroom — the paper's
	// profiles dwarf this test-sized directory and would measure
	// overload, not migration.
	prof := workload.Profile{
		Name: "tiny", Class: "test", Table2: "test",
		CodeBlocks: 96, SharedBlocks: 192, PrivateBlocks: 64,
		CodeFrac: 0.3, SharedFrac: 0.3, WriteFrac: 0.2,
		ZipfCode: 0.9, ZipfShared: 0.85, ZipfPrivate: 0.75,
	}
	res, err := ReplayWorkload(dir, prof, testCores, 7, 60_000, Options{Via: ViaEngine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes.Started == 0 {
		t.Fatalf("no online resize triggered: %+v (capacity %d, entries %d)",
			res.Resizes, res.Capacity, res.Entries())
	}
	if res.Resizes.MigrationForced != 0 {
		t.Errorf("%d entries lost to forced migration evictions", res.Resizes.MigrationForced)
	}
	dir.FinishResizes()
	if dir.Capacity() <= baseCap {
		t.Errorf("capacity %d did not grow from %d", dir.Capacity(), baseCap)
	}
	if !strings.Contains(res.String(), "online resizes") {
		t.Errorf("Result.String does not report the resizes: %s", res)
	}
	// The lossless-migration invariant, end to end: every tracked block
	// visits the census exactly once.
	seen := map[uint64]bool{}
	dir.ForEach(func(a, _ uint64) bool {
		if seen[a] {
			t.Fatalf("addr %#x duplicated across old/new tables", a)
		}
		seen[a] = true
		return true
	})
	if len(seen) != res.Entries() {
		t.Errorf("census %d entries, ShardLens total %d", len(seen), res.Entries())
	}
}
