package coherence

import (
	"strings"
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

var idealSpec = directory.Spec{Org: directory.OrgIdeal}

var cuckooSpec = directory.Spec{
	Org:      directory.OrgCuckoo,
	Geometry: directory.Geometry{Ways: 4, Sets: 64},
}

// mustNew is New for configurations and specs the test knows are valid.
func mustNew(t testing.TB, cfg Config, prof workload.Profile, seed uint64, slice directory.Spec) *System {
	t.Helper()
	sys, err := New(cfg, prof, seed, slice)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRunCompletesAccesses(t *testing.T) {
	sys := mustNew(t, smallCfg(), testProfile(), 1, idealSpec)
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
	for name, spec := range map[string]directory.Spec{"ideal": idealSpec, "cuckoo": cuckooSpec} {
		t.Run(name, func(t *testing.T) {
			sys := mustNew(t, smallCfg(), testProfile(), 3, spec)
			sys.Run(30000)
			sys.Drain()
			if err := sys.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDirectoryStatsFlow(t *testing.T) {
	sys := mustNew(t, smallCfg(), testProfile(), 5, cuckooSpec)
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
	sys := mustNew(t, smallCfg(), p, 7, idealSpec)
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
	sys := mustNew(t, smallCfg(), p, 9, idealSpec)
	sys.Run(20000)
	if sys.DirStats().Recalls == 0 {
		t.Fatal("no recalls despite migratory sharing")
	}
}

func TestMissLatencyPlausible(t *testing.T) {
	sys := mustNew(t, smallCfg(), testProfile(), 11, idealSpec)
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
	sys := mustNew(t, smallCfg(), testProfile(), 13, cuckooSpec)
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
	sys := mustNew(t, smallCfg(), testProfile(), 15, cuckooSpec)
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
		sys := mustNew(t, smallCfg(), testProfile(), 21, cuckooSpec)
		end := sys.Run(10000)
		return uint64(end), sys.MeshStats().Messages
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Fatalf("nondeterministic timing: (%d,%d) vs (%d,%d)", e1, m1, e2, m2)
	}
}

// TestConfigValidation: New rejects a malformed configuration, profile
// or slice spec with an error that names the fault.
func TestConfigValidation(t *testing.T) {
	withCfg := func(edit func(*Config)) Config {
		cfg := smallCfg()
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		prof workload.Profile
		spec directory.Spec
		want string
	}{
		{"cores off the mesh", withCfg(func(c *Config) { c.Cores = 8 }), testProfile(), idealSpec, "8 cores on a 2x2 mesh"},
		{"cores not a power of two", withCfg(func(c *Config) { c.Cores, c.Mesh.Width, c.Mesh.Height = 3, 3, 1 }), testProfile(), idealSpec, "Cores = 3"},
		{"zero cores", withCfg(func(c *Config) { c.Cores, c.Mesh.Width, c.Mesh.Height = 0, 0, 0 }), testProfile(), idealSpec, "Cores = 0"},
		{"negative mesh", withCfg(func(c *Config) { c.Mesh.Width, c.Mesh.Height = -2, -2 }), testProfile(), idealSpec, "-2x-2 mesh"},
		{"sets not a power of two", withCfg(func(c *Config) { c.CacheSets = 3 }), testProfile(), idealSpec, "CacheSets = 3"},
		{"zero associativity", withCfg(func(c *Config) { c.CacheAssoc = 0 }), testProfile(), idealSpec, "CacheAssoc = 0"},
		{"zero profile", smallCfg(), workload.Profile{}, idealSpec, "footprints"},
		{"zero spec", smallCfg(), testProfile(), directory.Spec{}, "unknown organization"},
		{"bad cuckoo geometry", smallCfg(), testProfile(), directory.Spec{Org: directory.OrgCuckoo, Geometry: directory.Geometry{Ways: 4, Sets: 63}}, "Sets = 63"},
		{"duplicate-tag slice", smallCfg(), testProfile(), directory.Spec{Org: directory.OrgDuplicateTag, Geometry: directory.Geometry{Ways: 4, Sets: 64}}, "duplicate-tag slices are unsupported"},
		{"saturating tagless filter", smallCfg(), testProfile(), directory.Spec{Org: directory.OrgTagless, Geometry: directory.Geometry{Sets: 1}, Tagless: directory.TaglessParams{BucketBits: 32, Hashes: 8}}, "8-bit counters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.cfg, tc.prof, 1, tc.spec)
			if err == nil || sys != nil {
				t.Fatalf("New = %v, %v; want an error", sys, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckConsistencySWMR: two caches holding one block Modified, both
// listed at its home slice, pass the cache/slice audit but trip the
// single-writer check.
func TestCheckConsistencySWMR(t *testing.T) {
	sys := mustNew(t, smallCfg(), testProfile(), 1, idealSpec)
	const addr = 0x1000
	home := sys.tiles.Slices[sys.tiles.Home(addr)]
	for c := 0; c < 2; c++ {
		sys.tiles.Caches[c].Access(addr, true)
		home.Read(addr, c)
	}
	if err := sys.tiles.Check(nil); err != nil {
		t.Fatalf("cache/slice audit: %v", err)
	}
	err := sys.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "SWMR violated for 0x1000: 2 modified, 2 holders") {
		t.Fatalf("CheckConsistency = %v, want the SWMR violation", err)
	}
}

func BenchmarkProtocolStep(b *testing.B) {
	sys := mustNew(b, smallCfg(), testProfile(), 1, cuckooSpec)
	b.ResetTimer()
	sys.Run(uint64(b.N))
}
