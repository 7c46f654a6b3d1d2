package replay

import (
	"errors"
	"io"
	"strings"
	"testing"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/trace"
)

// TestEngineModeMatchesDirect: the engine path applies exactly the same
// stream the direct ApplyShard pipeline applies — identical access
// counts, identical lock-free counters and identical final directory
// contents. The baseline runs ONE worker because that is the direct
// pipeline's order-preserving configuration: the engine guarantees
// per-shard FIFO regardless of drainer count, while the direct pipeline
// with several workers may reorder same-shard batches (a documented
// caveat), which perturbs cuckoo displacement chains.
func TestEngineModeMatchesDirect(t *testing.T) {
	const n = 20_000
	direct := testDir(t, 8)
	dres, err := Run(direct, Synthesize(testProfile(t), testCores, 3, n), Options{Workers: 1, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	eng := testDir(t, 8)
	eres, err := Run(eng, Synthesize(testProfile(t), testCores, 3, n),
		Options{BatchSize: 128, Via: ViaEngine})
	if err != nil {
		t.Fatal(err)
	}
	if eres.Via != ViaEngine || eres.Producers != 1 {
		t.Fatalf("engine result mislabeled: via=%s producers=%d", eres.Via, eres.Producers)
	}
	if !strings.Contains(eres.String(), "via engine") {
		t.Fatalf("String() hides the path: %q", eres.String())
	}
	if dres.Accesses != n || eres.Accesses != n {
		t.Fatalf("accesses: direct %d, engine %d, want %d", dres.Accesses, eres.Accesses, n)
	}
	if dc, ec := direct.Counters(), eng.Counters(); dc != ec {
		t.Fatalf("counters diverge:\ndirect %+v\nengine %+v", dc, ec)
	}
	if direct.Len() != eng.Len() {
		t.Fatalf("tracked blocks: direct %d, engine %d", direct.Len(), eng.Len())
	}
	want := map[uint64]uint64{}
	direct.ForEach(func(addr, sharers uint64) bool { want[addr] = sharers; return true })
	eng.ForEach(func(addr, sharers uint64) bool {
		if want[addr] != sharers {
			t.Fatalf("addr %#x: engine sharers %#x != direct %#x", addr, sharers, want[addr])
		}
		return true
	})
}

// TestEngineModeSourceError: the engine path reports dropped records on
// a source error just like the direct path.
func TestEngineModeSourceError(t *testing.T) {
	res, err := Run(testDir(t, 2), &errSource{n: 700}, Options{BatchSize: 256, Via: ViaEngine})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("error = %v", err)
	}
	if res.Accesses+res.Dropped != 700 || res.Dropped == 0 {
		t.Fatalf("applied %d + dropped %d != 700 records read", res.Accesses, res.Dropped)
	}
	if !strings.Contains(res.String(), "DROPPED") {
		t.Fatalf("String() hides the drop: %q", res.String())
	}
}

// countingSource counts the records its consumer has read.
type countingSource struct {
	src  Source
	read uint64
}

func (s *countingSource) Next() (trace.Record, error) {
	rec, err := s.src.Next()
	if err == nil {
		s.read++
	}
	return rec, err
}

// TestEngineModeRefusedBatchDropped: a batch the engine refuses (an
// injected queue-full on the third submission) was read but never
// applied, so it lands in Dropped — applied plus dropped still equals
// the records read.
func TestEngineModeRefusedBatchDropped(t *testing.T) {
	const batch = 100
	inj := faults.New()
	inj.Arm(faults.QueueSaturation, faults.Trigger{Key: faults.AnyKey, After: 2, Count: 1})
	src := &countingSource{src: Synthesize(testProfile(t), testCores, 1, 10*batch)}
	res, err := Run(testDir(t, 2), src, Options{BatchSize: batch, Via: ViaEngine, Engine: engine.Options{Faults: inj}})
	if !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("error = %v, want ErrQueueFull", err)
	}
	if res.Accesses+res.Dropped != src.read {
		t.Fatalf("applied %d + dropped %d != %d records read", res.Accesses, res.Dropped, src.read)
	}
	if res.Dropped != batch {
		t.Fatalf("dropped %d, want the one refused batch of %d", res.Dropped, batch)
	}
}

// TestEngineModeBadCore: out-of-range record cores fail cleanly on the
// engine path too.
func TestEngineModeBadCore(t *testing.T) {
	small, err := directory.BuildSharded(directory.Spec{
		Org: directory.OrgCuckoo, NumCaches: 4,
		Geometry: directory.Geometry{Ways: 4, Sets: 64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(small, Synthesize(testProfile(t), testCores, 0, 100),
		Options{Via: ViaEngine}); err == nil {
		t.Fatal("core 4+ accepted by a 4-cache directory")
	}
}

// TestEngineModeKnobs: engine options flow through, and the effective
// drainer count is echoed in Workers.
func TestEngineModeKnobs(t *testing.T) {
	d := testDir(t, 8)
	res, err := Run(d, Synthesize(testProfile(t), testCores, 1, 2000), Options{
		BatchSize: 64,
		Via:       ViaEngine,
		Engine:    engine.Options{Drainers: 2, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Fatalf("Workers = %d, want the 2 drainers", res.Workers)
	}
	if res.Accesses != 2000 {
		t.Fatalf("applied %d", res.Accesses)
	}
}

// TestRunMulti: concurrent producers over one engine apply every
// source's records exactly once; the direct pipeline rejects the
// multi-producer form.
func TestRunMulti(t *testing.T) {
	const producers, per = 4, 5000
	d := testDir(t, 8)
	srcs := make([]Source, producers)
	for i := range srcs {
		srcs[i] = Synthesize(testProfile(t), testCores, uint64(10+i), per)
	}
	res, err := RunMulti(d, srcs, Options{BatchSize: 128, Via: ViaEngine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != producers*per {
		t.Fatalf("applied %d, want %d", res.Accesses, producers*per)
	}
	if res.Producers != producers {
		t.Fatalf("Producers = %d", res.Producers)
	}
	if got := d.Counters().Ops(); got != producers*per {
		t.Fatalf("counters saw %d ops", got)
	}
	if _, err := RunMulti(d, srcs, Options{}); err == nil {
		t.Fatal("RunMulti accepted the single-producer ApplyShard path")
	}
	if _, err := RunMulti(d, nil, Options{Via: ViaEngine}); err == nil {
		t.Fatal("RunMulti accepted zero sources")
	}
}

// TestRunMultiSourceError: one erroring producer reports its error and
// dropped count; the other producers' records still all apply.
func TestRunMultiSourceError(t *testing.T) {
	d := testDir(t, 4)
	srcs := []Source{
		Synthesize(testProfile(t), testCores, 1, 4000),
		&errSource{n: 300},
	}
	res, err := RunMulti(d, srcs, Options{BatchSize: 256, Via: ViaEngine})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("error = %v", err)
	}
	if res.Accesses+res.Dropped != 4000+300 {
		t.Fatalf("applied %d + dropped %d != %d records read", res.Accesses, res.Dropped, 4300)
	}
	if res.Dropped == 0 {
		t.Fatal("the 300-record source must drop its partial batch")
	}
}

// TestBackgroundMix: Options.Background steers that fraction of
// batches into the Background class via the debt accumulator — both
// classes see traffic in the report, their access counts sum to the
// stream, and the result line prints the per-class rows.
func TestBackgroundMix(t *testing.T) {
	const n = 20_000
	d := testDir(t, 8)
	res, err := Run(d, Synthesize(testProfile(t), testCores, 5, n), Options{
		BatchSize:  100,
		Via:        ViaEngine,
		Background: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != n {
		t.Fatalf("applied %d, want %d", res.Accesses, n)
	}
	fg, bg := res.Engine.Classes[qos.Foreground], res.Engine.Classes[qos.Background]
	if fg.SubmittedAccesses+bg.SubmittedAccesses != n {
		t.Fatalf("class submissions %d+%d != %d", fg.SubmittedAccesses, bg.SubmittedAccesses, n)
	}
	// 25% of 200 batches, deterministically: the debt accumulator fires
	// every 4th batch.
	if want := uint64(n / 4); bg.SubmittedAccesses != want {
		t.Fatalf("background accesses = %d, want %d", bg.SubmittedAccesses, want)
	}
	if bg.CompletedAccesses != bg.SubmittedAccesses || fg.CompletedAccesses != fg.SubmittedAccesses {
		t.Fatalf("classes not fully drained: fg %d/%d bg %d/%d",
			fg.CompletedAccesses, fg.SubmittedAccesses, bg.CompletedAccesses, bg.SubmittedAccesses)
	}
	if fg.Latency.Count() == 0 || bg.Latency.Count() == 0 || fg.Latency.Percentile(0.5) <= 0 || bg.Latency.Percentile(0.5) <= 0 {
		t.Fatalf("per-class latency missing: fg %+v bg %+v", fg, bg)
	}
	s := res.String()
	if !strings.Contains(s, "fg p50=") || !strings.Contains(s, "bg p50=") {
		t.Fatalf("String() hides the per-class rows: %q", s)
	}
}

// TestBackgroundValidation: the class mix is an engine-path feature and
// a fraction — the direct path and out-of-range values are rejected.
func TestBackgroundValidation(t *testing.T) {
	d := testDir(t, 2)
	src := func() Source { return Synthesize(testProfile(t), testCores, 1, 100) }
	if _, err := Run(d, src(), Options{Background: 0.5}); err == nil {
		t.Fatal("Background accepted on the direct path")
	}
	for _, bad := range []float64{-0.1, 1.5} {
		if _, err := Run(d, src(), Options{Via: ViaEngine, Background: bad}); err == nil {
			t.Fatalf("Background=%v accepted", bad)
		}
	}
	// Background=1 is a valid degenerate mix: everything Background.
	res, err := Run(d, src(), Options{Via: ViaEngine, Background: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Classes[qos.Background].SubmittedAccesses != 100 {
		t.Fatalf("all-background run submitted %d bg accesses, want 100",
			res.Engine.Classes[qos.Background].SubmittedAccesses)
	}
}

func TestViaString(t *testing.T) {
	if ViaApplyShard.String() != "applyshard" || ViaEngine.String() != "engine" {
		t.Fatal("Via names wrong")
	}
	if !strings.Contains(Via(9).String(), "9") {
		t.Fatal("unknown Via not reported")
	}
}
