package coherence

import (
	"testing"

	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/noc"
	"cuckoodir/internal/workload"
)

// smallCfg returns a 4-core system with small caches so conflicts and
// sharing appear quickly.
func smallCfg() Config {
	return Config{
		Cores:           4,
		CacheSets:       64,
		CacheAssoc:      4,
		Mesh:            noc.Config{Width: 2, Height: 2, HopLatency: 1, RouterLatency: 2, FlitBytes: 16},
		CacheHitLatency: 2,
		DirLatency:      2,
		MemLatency:      50,
		InsertCycle:     1,
	}
}

func testProfile() workload.Profile {
	return workload.Profile{
		Name: "test", Class: "Test", Table2: "synthetic",
		CodeBlocks: 128, SharedBlocks: 256, PrivateBlocks: 512,
		CodeFrac: 0.2, SharedFrac: 0.4, WriteFrac: 0.3,
		ZipfCode: 0.9, ZipfShared: 0.8, ZipfPrivate: 0.7,
	}
}

var idealFactory = SpecFactory(directory.Spec{Org: directory.OrgIdeal})

var cuckooFactory = SpecFactory(directory.Spec{
	Org:      directory.OrgCuckoo,
	Geometry: directory.Geometry{Ways: 4, Sets: 64},
})

func TestRunCompletesAccesses(t *testing.T) {
	sys := New(smallCfg(), testProfile(), 1, idealFactory)
	end := sys.Run(10000)
	if end == 0 {
		t.Fatal("no cycles elapsed")
	}
	cs := sys.CoreStats()
	if cs.Accesses < 10000 {
		t.Fatalf("Accesses = %d, want >= 10000", cs.Accesses)
	}
	if cs.Misses == 0 || cs.Hits == 0 {
		t.Fatalf("stats = %+v", cs)
	}
}

func TestConsistencyAfterDrain(t *testing.T) {
	for name, f := range map[string]Factory{"ideal": idealFactory, "cuckoo": cuckooFactory} {
		t.Run(name, func(t *testing.T) {
			sys := New(smallCfg(), testProfile(), 3, f)
			sys.Run(30000)
			sys.Drain()
			if err := sys.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDirectoryStatsFlow(t *testing.T) {
	sys := New(smallCfg(), testProfile(), 5, cuckooFactory)
	sys.Run(20000)
	fs := sys.DirectoryStats()
	if fs.Events[core.EvInsertTag] == 0 {
		t.Fatal("no inserts recorded")
	}
	if fs.Attempts.Mean() < 1 {
		t.Fatalf("mean attempts = %f", fs.Attempts.Mean())
	}
	ds := sys.DirStats()
	if ds.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if ds.InsertBusyCycles == 0 {
		t.Fatal("insert occupancy never charged")
	}
	ms := sys.MeshStats()
	if ms.Messages == 0 || ms.Bytes == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestInvalidationsHappen(t *testing.T) {
	// With a write-heavy shared footprint, GetM transactions must
	// invalidate remote sharers.
	p := testProfile()
	p.SharedFrac = 0.8
	p.WriteFrac = 0.5
	sys := New(smallCfg(), p, 7, idealFactory)
	sys.Run(20000)
	if sys.DirStats().Invalidations == 0 {
		t.Fatal("no invalidations despite heavy write sharing")
	}
	if sys.CoreStats().Upgrades == 0 {
		t.Fatal("no upgrade transactions")
	}
}

func TestRecallsHappen(t *testing.T) {
	// Writes followed by remote reads force M-state recalls.
	p := testProfile()
	p.SharedFrac = 0.8
	p.WriteFrac = 0.4
	sys := New(smallCfg(), p, 9, idealFactory)
	sys.Run(20000)
	if sys.DirStats().Recalls == 0 {
		t.Fatal("no recalls despite migratory sharing")
	}
}

func TestMissLatencyPlausible(t *testing.T) {
	sys := New(smallCfg(), testProfile(), 11, idealFactory)
	sys.Run(20000)
	avg := sys.AvgMissLatency()
	// A miss costs at least a round trip (2 router traversals) and at
	// most a few memory latencies plus queueing.
	if avg < 10 || avg > 500 {
		t.Fatalf("avg miss latency = %f, implausible", avg)
	}
	if max := sys.CoreStats().MaxMissCycle; uint64(avg) > max {
		t.Fatalf("avg %f exceeds max %d", avg, max)
	}
}

func TestResetStats(t *testing.T) {
	sys := New(smallCfg(), testProfile(), 13, cuckooFactory)
	sys.Run(5000)
	sys.ResetStats()
	if sys.CoreStats() != (CoreStats{}) {
		t.Fatal("core stats not reset")
	}
	if sys.DirStats() != (DirTimingStats{}) {
		t.Fatal("dir stats not reset")
	}
	if sys.MeshStats() != (noc.Stats{}) {
		t.Fatal("mesh stats not reset")
	}
	// Simulation continues fine after a reset.
	sys.Run(5000)
	if sys.CoreStats().Accesses == 0 {
		t.Fatal("run after reset made no progress")
	}
}

func TestCuckooInsertionWaitTiny(t *testing.T) {
	// §4.2: insertion occupancy must cost requests almost nothing.
	sys := New(smallCfg(), testProfile(), 15, cuckooFactory)
	sys.Run(30000)
	ds := sys.DirStats()
	if ds.Requests == 0 {
		t.Fatal("no requests")
	}
	waitPerReq := float64(ds.InsertWaitCycles) / float64(ds.Requests)
	if waitPerReq > 1.0 {
		t.Fatalf("insertion wait %f cycles/request — should be far below a cycle", waitPerReq)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() (uint64, uint64) {
		sys := New(smallCfg(), testProfile(), 21, cuckooFactory)
		end := sys.Run(10000)
		return uint64(end), sys.MeshStats().Messages
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Fatalf("nondeterministic timing: (%d,%d) vs (%d,%d)", e1, m1, e2, m2)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallCfg()
	cfg.Cores = 8 // mesh is 2x2
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on core/mesh mismatch")
			}
		}()
		New(cfg, testProfile(), 1, idealFactory)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on wrong factory cache count")
			}
		}()
		New(smallCfg(), testProfile(), 1, func(_, _ int) directory.Directory {
			return directory.MustBuild(directory.Spec{Org: directory.OrgIdeal, NumCaches: 2})
		})
	}()
}

func BenchmarkProtocolStep(b *testing.B) {
	sys := New(smallCfg(), testProfile(), 1, cuckooFactory)
	b.ResetTimer()
	sys.Run(uint64(b.N))
}
