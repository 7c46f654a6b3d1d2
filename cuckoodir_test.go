package cuckoodir

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestPublicEngine drives the asynchronous submission engine through
// the facade: tickets, batch submission, replay via the engine path,
// flush, close, and the exported errors.
func TestPublicEngine(t *testing.T) {
	dir, err := BuildSharded(Spec{
		Org:       OrgCuckoo,
		NumCaches: 16,
		Geometry:  Geometry{Ways: 4, Sets: 128},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dir, EngineOptions{QueueDepth: 32, Policy: BlockWhenFull})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tk, err := eng.Submit(ctx, EngineRequest{Accesses: []Access{{Kind: AccessRead, Addr: 0x40, Cache: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if tk.Op().Attempts == 0 {
		t.Fatal("read fill allocated no entry")
	}
	btk, err := eng.SubmitBatch(ctx, []Access{
		{Kind: AccessRead, Addr: 0x40, Cache: 9},
		{Kind: AccessWrite, Addr: 0x40, Cache: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := btk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if ops := btk.Ops(); len(ops) != 2 || ops[1].Invalidate != 1<<9 {
		t.Fatalf("batch ops = %+v", ops)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.CompletedAccesses != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SubmitBatch(ctx, []Access{{}}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("submit after close: %v", err)
	}

	// The replay pipeline's engine path through the facade.
	res, err := ReplayWorkloadParallel(dir, Workloads()[0], 16, 1, 5000,
		ReplayOptions{Via: ReplayViaEngine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 5000 || res.Via != ReplayViaEngine {
		t.Fatalf("engine replay result: %+v", res)
	}
	if res.Dropped != 0 {
		t.Fatalf("clean replay dropped %d", res.Dropped)
	}
}

func TestPublicCuckooDirectory(t *testing.T) {
	dir := MustBuild(Spec{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 64}})
	if dir.Name() != "cuckoo" || dir.NumCaches() != 16 || dir.Capacity() != 256 {
		t.Fatalf("metadata: %s %d %d", dir.Name(), dir.NumCaches(), dir.Capacity())
	}
	dir.Read(0x40, 3)
	dir.Read(0x40, 9)
	op := dir.Write(0x40, 3)
	if op.Invalidate != 1<<9 {
		t.Fatalf("Invalidate = %#x", op.Invalidate)
	}
	dir.Evict(0x40, 3)
	if _, ok := dir.Lookup(0x40); ok {
		t.Fatal("entry not freed")
	}
}

func TestPublicCuckooTable(t *testing.T) {
	tbl, err := NewCuckooTable[string](TableConfig{Ways: 3, SetsPerWay: 32})
	if err != nil {
		t.Fatal(err)
	}
	res := tbl.Insert(7, "seven")
	if res.Present || res.Attempts != 1 {
		t.Fatalf("insert: %+v", res)
	}
	if v := tbl.Find(7); v == nil || *v != "seven" {
		t.Fatal("find failed")
	}
	if !tbl.Delete(7) {
		t.Fatal("delete failed")
	}
	// A bad geometry is an error, not a panic.
	for _, cfg := range []TableConfig{{Ways: 9, SetsPerWay: 64}, {Ways: 1, SetsPerWay: 64}, {Ways: 4, SetsPerWay: 48}} {
		if tbl, err := NewCuckooTable[string](cfg); err == nil || tbl != nil {
			t.Errorf("NewCuckooTable(%+v) = %v, %v; want an error", cfg, tbl, err)
		}
	}
}

func TestPublicOrganizations(t *testing.T) {
	dirs := []Directory{
		MustBuild(Spec{Org: OrgCuckoo, NumCaches: 8, Geometry: Geometry{Ways: 4, Sets: 64}}),
		MustBuild(Spec{Org: OrgSparse, NumCaches: 8, Geometry: Geometry{Ways: 8, Sets: 64}}),
		MustBuild(Spec{Org: OrgSkewed, NumCaches: 8, Geometry: Geometry{Ways: 4, Sets: 64}}),
		MustBuild(Spec{Org: OrgElbow, NumCaches: 8, Geometry: Geometry{Ways: 4, Sets: 64}}),
		MustBuild(Spec{Org: OrgDuplicateTag, NumCaches: 8, Geometry: Geometry{Ways: 2, Sets: 64}}),
		MustBuild(Spec{Org: OrgTagless, NumCaches: 8, Geometry: Geometry{Sets: 64}, Tagless: TaglessParams{BucketBits: 32, Hashes: 2}}),
		MustBuild(Spec{Org: OrgInCache, NumCaches: 8, Capacity: 1024}),
		MustBuild(Spec{Org: OrgIdeal, NumCaches: 8, Capacity: 512}),
	}
	names := map[string]bool{}
	for _, d := range dirs {
		d.Read(0x80, 1)
		if m, ok := d.Lookup(0x80); !ok || m&2 == 0 {
			t.Errorf("%s: lost the sharer", d.Name())
		}
		names[d.Name()] = true
	}
	if len(names) != len(dirs) {
		t.Errorf("duplicate organization names: %v", names)
	}
}

// mustSystem is NewSystem for configurations and specs the test knows
// are valid.
func mustSystem(t *testing.T, cfg SystemConfig, prof Workload, seed uint64, slice Spec) *System {
	t.Helper()
	sys, err := NewSystem(cfg, prof, seed, slice)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicSystemRun(t *testing.T) {
	prof, err := WorkloadByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSystemConfig(SharedL2)
	sys := mustSystem(t, cfg, prof, 1, ChosenCuckooSize(SharedL2).Spec())
	sys.Run(200000)
	if sys.DirStats().Events.Total() == 0 {
		t.Fatal("no directory events")
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicProtocolRun(t *testing.T) {
	prof, err := WorkloadByName("db2")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewProtocolSystem(DefaultProtocolConfig(), prof, 2, Spec{Org: OrgCuckoo, Geometry: Geometry{Ways: 3, Sets: 8192}})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(50000)
	if sys.AvgMissLatency() <= 0 {
		t.Fatal("no misses measured")
	}
	sys.Drain()
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicFormattedDirectory(t *testing.T) {
	for _, f := range []SharerFormat{
		FullVectorFormat(), CoarseVectorFormat(), LimitedPointerFormat(2), HierarchicalFormat(),
	} {
		d := MustBuild(Spec{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 32}, Format: f}).(*FormattedCuckooDirectory)
		for c := 0; c < 5; c++ {
			d.Read(0x9, c)
		}
		m, ok := d.Lookup(0x9)
		if !ok {
			t.Fatalf("%s: entry lost", d.Name())
		}
		for c := 0; c < 5; c++ {
			if m&(1<<uint(c)) == 0 {
				t.Fatalf("%s: sharer %d not covered by %#x", d.Name(), c, m)
			}
		}
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	prof, err := WorkloadByName("db2")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	// strings.Builder is an io.Writer; capture a tiny trace.
	n, err := CaptureTrace(&buf, prof, 4, 3, 1000)
	if err != nil || n != 1000 {
		t.Fatalf("capture: %d, %v", n, err)
	}
	rd, err := NewTraceReader(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SystemConfig{Kind: SharedL2, Cores: 4, TrackedSets: 64, TrackedAssoc: 2}
	sys := mustSystem(t, cfg, prof, 9, CuckooSize{Ways: 4, Sets: 64}.Spec())
	replayed, err := ReplayTrace(rd, sys)
	if err != nil || replayed != 1000 {
		t.Fatalf("replay: %d, %v", replayed, err)
	}
	if sys.Accesses() != 1000 {
		t.Fatalf("system accesses = %d", sys.Accesses())
	}
}

func TestPublicSparseSlices(t *testing.T) {
	prof, err := WorkloadByName("zeus")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SystemConfig{Kind: PrivateL2, Cores: 4, TrackedSets: 128, TrackedAssoc: 4}
	sys := mustSystem(t, cfg, prof, 4, cfg.SparseSpec(8, 2))
	sys.Run(100000)
	if sys.DirStats().Events.Total() == 0 {
		t.Fatal("no events")
	}
	// Ideal slices on the same config for occupancy.
	sys2 := mustSystem(t, cfg, prof, 4, cfg.IdealSpec())
	sys2.Run(100000)
	if sys2.MeanOccupancy() <= 0 {
		t.Fatal("no occupancy samples")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(Workloads()) != 9 {
		t.Fatal("workload suite incomplete")
	}
	if _, err := WorkloadByName("nonesuch"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPublicExperiments(t *testing.T) {
	exps := Experiments()
	if len(exps) < 14 {
		t.Fatalf("experiments = %d", len(exps))
	}
	tables, err := RunExperiment("table1", ExperimentOptions{Scale: QuickScale})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tables[0].String(), "16 cores") {
		t.Fatal("table1 content wrong")
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	_, err = RunExperiment("latency", ExperimentOptions{Orgs: []string{"dup-tag-16x1024"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate-tag slices are unsupported") {
		t.Fatalf("latency with a refused Orgs name: err = %v", err)
	}
}

// TestPublicSpecAPI exercises the declarative construction surface:
// Build, BuildNamed, registry enumeration and the sharded front-end,
// all through the root facade.
func TestPublicSpecAPI(t *testing.T) {
	dir, err := Build(Spec{
		Org:       OrgCuckoo,
		NumCaches: 16,
		Geometry:  Geometry{Ways: 4, Sets: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dir.Name() != "cuckoo" || dir.Capacity() != 256 {
		t.Fatalf("metadata: %s %d", dir.Name(), dir.Capacity())
	}
	if _, err := Build(Spec{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 63}}); err == nil {
		t.Fatal("invalid geometry built")
	}

	// Registry: the paper's chosen geometry and a parametric name.
	for _, name := range []string{"cuckoo-4x512", "skewed-4x32"} {
		d, err := BuildNamed(name, 16)
		if err != nil {
			t.Fatalf("BuildNamed(%q): %v", name, err)
		}
		d.Read(0x40, 1)
		if _, ok := d.Lookup(0x40); !ok {
			t.Fatalf("%s: lost the sharer", name)
		}
	}
	if len(SpecNames()) == 0 {
		t.Fatal("no registered spec names")
	}
	if _, err := BuildNamed("no-such-org", 16); err == nil {
		t.Fatal("unknown name built")
	}

	// Sharded front-end through the facade, point ops and batch.
	sh, err := BuildSharded(Spec{
		Org:       OrgCuckoo,
		NumCaches: 16,
		Geometry:  Geometry{Ways: 4, Sets: 64},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sh.Read(0x100, 2)
	ops := sh.Apply([]Access{
		{Kind: AccessRead, Addr: 0x100, Cache: 5},
		{Kind: AccessWrite, Addr: 0x100, Cache: 2},
		{Kind: AccessEvict, Addr: 0x100, Cache: 2},
	})
	if len(ops) != 3 || ops[1].Invalidate != 1<<5 {
		t.Fatalf("Apply ops: %+v", ops)
	}
	if _, ok := sh.Lookup(0x100); ok {
		t.Fatal("sharded entry not freed after evict")
	}
}
