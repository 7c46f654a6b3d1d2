package cmpsim

import (
	"strings"
	"testing"

	"cuckoodir/internal/cache"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/workload"
)

func mustProfile(t testing.TB, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigGeometry(t *testing.T) {
	sh := DefaultConfig(SharedL2)
	if sh.NumCaches() != 32 {
		t.Errorf("SharedL2 caches = %d, want 32 (16 cores x I+D)", sh.NumCaches())
	}
	if sh.FramesPerCache() != 1024 {
		t.Errorf("L1 frames = %d, want 1024 (64KB/64B)", sh.FramesPerCache())
	}
	if sh.OneXSliceCapacity() != 2048 {
		t.Errorf("SharedL2 1x slice = %d, want 2048 (paper: 4x512)", sh.OneXSliceCapacity())
	}
	pr := DefaultConfig(PrivateL2)
	if pr.NumCaches() != 16 {
		t.Errorf("PrivateL2 caches = %d, want 16", pr.NumCaches())
	}
	if pr.FramesPerCache() != 16384 {
		t.Errorf("L2 frames = %d, want 16384 (1MB/64B)", pr.FramesPerCache())
	}
	if pr.OneXSliceCapacity() != 16384 {
		t.Errorf("PrivateL2 1x slice = %d, want 16384 (paper: 8x2048)", pr.OneXSliceCapacity())
	}
	if SharedL2.String() != "Shared-L2" || PrivateL2.String() != "Private-L2" {
		t.Error("Kind names wrong")
	}
}

func TestCuckooSizesMatchPaper(t *testing.T) {
	sh := DefaultConfig(SharedL2)
	wantShared := map[string]float64{
		"4x1024": 2, "3x1024": 1.5, "4x512": 1, "3x512": 0.75, "4x256": 0.5, "3x256": 0.375,
	}
	for _, s := range SharedL2Sizes() {
		if got := s.Provisioning(sh); got != wantShared[s.String()] {
			t.Errorf("SharedL2 %s provisioning = %v, want %v", s, got, wantShared[s.String()])
		}
	}
	pr := DefaultConfig(PrivateL2)
	wantPrivate := map[string]float64{
		"4x8192": 2, "3x8192": 1.5, "8x2048": 1, "3x4096": 0.75, "8x1024": 0.5, "3x2048": 0.375,
	}
	for _, s := range PrivateL2Sizes() {
		if got := s.Provisioning(pr); got != wantPrivate[s.String()] {
			t.Errorf("PrivateL2 %s provisioning = %v, want %v", s, got, wantPrivate[s.String()])
		}
	}
	if ChosenCuckooSize(SharedL2).String() != "4x512" {
		t.Error("chosen Shared-L2 size should be 4x512 (§5.3)")
	}
	if ChosenCuckooSize(PrivateL2).String() != "3x8192" {
		t.Error("chosen Private-L2 size should be 3x8192 (§5.3)")
	}
}

// smallConfig returns a scaled-down system for fast consistency tests.
func smallConfig(kind Kind) Config {
	if kind == SharedL2 {
		return Config{Kind: SharedL2, Cores: 4, TrackedSets: 64, TrackedAssoc: 2}
	}
	return Config{Kind: PrivateL2, Cores: 4, TrackedSets: 128, TrackedAssoc: 4}
}

// smallProfile shrinks footprints so a small system exercises conflicts.
func smallProfile() workload.Profile {
	return workload.Profile{
		Name: "test", Class: "Test", Table2: "synthetic test workload",
		CodeBlocks: 256, SharedBlocks: 512, PrivateBlocks: 1024,
		CodeFrac: 0.3, SharedFrac: 0.3, WriteFrac: 0.2,
		ZipfCode: 0.9, ZipfShared: 0.8, ZipfPrivate: 0.7,
	}
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

func TestConsistencyAllOrganizations(t *testing.T) {
	cfg := smallConfig(SharedL2)
	specs := map[string]directory.Spec{
		"ideal": cfg.IdealSpec(),
		"duptag": {
			Org:      directory.OrgDuplicateTag,
			Geometry: directory.Geometry{Ways: cfg.TrackedAssoc, Sets: cfg.TrackedSets},
		},
		"cuckoo": CuckooSize{4, 64}.Spec(),
		"sparse": cfg.SparseSpec(8, 2),
		"skewed": cfg.SkewedSpec(4, 2),
		"tagless": {
			Org:      directory.OrgTagless,
			Geometry: directory.Geometry{Sets: cfg.TrackedSets},
			Tagless:  directory.TaglessParams{BucketBits: 64, Hashes: 2},
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			sys := mustNew(t, cfg, smallProfile(), 99, spec)
			for i := 0; i < 5; i++ {
				sys.Run(20000)
				if err := sys.CheckConsistency(); err != nil {
					t.Fatalf("after %d accesses: %v", sys.Accesses(), err)
				}
			}
		})
	}
}

func TestConsistencyPrivateL2(t *testing.T) {
	cfg := smallConfig(PrivateL2)
	sys := mustNew(t, cfg, smallProfile(), 7, CuckooSize{4, 128}.Spec())
	sys.Run(100000)
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedL2SplitsCodeAndData(t *testing.T) {
	cfg := smallConfig(SharedL2)
	prof := smallProfile()
	prof.DisablePaging = true // the assertions below use logical ranges
	sys := mustNew(t, cfg, prof, 1, cfg.IdealSpec())
	sys.Run(50000)
	// I-caches (even ids) hold only code-region blocks; D-caches (odd)
	// only data-region blocks.
	for cid, c := range sys.tiles.Caches {
		isICache := cid%2 == 0
		bad := uint64(0)
		c.ForEach(func(addr uint64, _ cache.State) bool {
			inCode := addr >= workload.CodeBase && addr < workload.SharedBase
			if isICache != inCode {
				bad = addr
				return false
			}
			return true
		})
		if bad != 0 {
			t.Fatalf("cache %d (icache=%v) holds wrong-region block %#x", cid, isICache, bad)
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	cfg := smallConfig(SharedL2)
	sys := mustNew(t, cfg, smallProfile(), 3, CuckooSize{4, 64}.Spec())
	sys.Run(30000)
	ds := sys.DirStats()
	if ds.Events.Total() == 0 {
		t.Fatal("no directory events recorded")
	}
	cs := sys.CacheStats()
	if cs.Misses == 0 || cs.Hits == 0 {
		t.Fatalf("cache stats empty: %+v", cs)
	}
	if sys.MeanOccupancy() <= 0 {
		t.Fatal("occupancy never sampled")
	}
	sys.ResetStats()
	if sys.DirStats().Events.Total() != 0 {
		t.Fatal("ResetStats left directory events")
	}
	cs = sys.CacheStats()
	if cs.Hits != 0 || cs.Misses != 0 {
		t.Fatal("ResetStats left cache stats")
	}
	if sys.MeanOccupancy() != 0 {
		t.Fatal("ResetStats left occupancy samples")
	}
}

func TestWritesInvalidateOtherCaches(t *testing.T) {
	// Two cores read the same shared block, then one writes it: the other
	// core's copy must vanish.
	cfg := smallConfig(PrivateL2)
	sys := mustNew(t, cfg, smallProfile(), 5, cfg.IdealSpec())
	addr := workload.SharedBase + 1
	sys.access(0, workload.Access{Addr: addr})
	sys.access(1, workload.Access{Addr: addr})
	if !sys.tiles.Caches[0].Contains(addr) || !sys.tiles.Caches[1].Contains(addr) {
		t.Fatal("setup failed")
	}
	sys.access(0, workload.Access{Addr: addr, Write: true})
	if sys.tiles.Caches[1].Contains(addr) {
		t.Fatal("writer did not invalidate the other sharer")
	}
	if !sys.tiles.Caches[0].Contains(addr) {
		t.Fatal("writer lost its own copy")
	}
	m, ok := sys.homeSlice(addr).Lookup(addr)
	if !ok || m != 1 {
		t.Fatalf("directory after write: %#x, %v", m, ok)
	}
}

func TestForcedEvictionRemovesCachedBlocks(t *testing.T) {
	// A 1-way sparse directory with very few sets forces evictions
	// constantly; every forced eviction must actually remove the block
	// from the caches (consistency holds throughout).
	cfg := smallConfig(PrivateL2)
	sys := mustNew(t, cfg, smallProfile(), 11, cfg.SparseSpec(1, 0.05))
	sys.Run(50000)
	if sys.DirStats().ForcedEvictions == 0 {
		t.Fatal("expected forced evictions with a tiny sparse directory")
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := smallConfig(SharedL2)
	run := func() uint64 {
		sys := mustNew(t, cfg, smallProfile(), 42, CuckooSize{3, 64}.Spec())
		sys.Run(20000)
		return sys.DirStats().Events.Total()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestInjectMatchesStep(t *testing.T) {
	// Feeding the generator stream through Inject must match Run exactly.
	cfg := smallConfig(SharedL2)
	prof := smallProfile()
	a := mustNew(t, cfg, prof, 21, CuckooSize{Ways: 4, Sets: 64}.Spec())
	a.Run(20000)

	b := mustNew(t, cfg, prof, 21, CuckooSize{Ways: 4, Sets: 64}.Spec())
	gens := make([]*workload.Generator, cfg.Cores)
	for c := range gens {
		gens[c] = workload.NewGenerator(prof, c, cfg.Cores, 21)
	}
	for i := 0; i < 20000; i++ {
		c := i % cfg.Cores
		b.Inject(c, gens[c].Next())
	}
	if a.DirStats().Events.Total() != b.DirStats().Events.Total() {
		t.Fatal("Inject diverged from Run")
	}
	if a.Accesses() != b.Accesses() {
		t.Fatalf("accesses: %d vs %d", a.Accesses(), b.Accesses())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Inject with bad core should panic")
			}
		}()
		b.Inject(99, workload.Access{})
	}()
}

func TestSystemAccessors(t *testing.T) {
	cfg := smallConfig(SharedL2)
	sys := mustNew(t, cfg, smallProfile(), 2, cfg.IdealSpec())
	if sys.Config() != cfg {
		t.Error("Config accessor wrong")
	}
	if len(sys.Slices()) != cfg.Slices() {
		t.Error("Slices accessor wrong")
	}
	sys.Run(100)
	if sys.Accesses() != 100 {
		t.Errorf("Accesses = %d", sys.Accesses())
	}
}

func TestInCacheSlices(t *testing.T) {
	cfg := smallConfig(SharedL2)
	sys := mustNew(t, cfg, smallProfile(), 3, directory.Spec{Org: directory.OrgInCache, Capacity: 4096})
	sys.Run(30000)
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if sys.DirStats().ForcedEvictions != 0 {
		t.Error("in-cache directory forced evictions")
	}
}

// TestNewErrors: New rejects a malformed configuration, profile or
// slice spec with an error that names the fault, before it builds
// anything.
func TestNewErrors(t *testing.T) {
	good := smallConfig(SharedL2)
	cuckoo := CuckooSize{4, 64}.Spec()
	remote := smallProfile()
	remote.RemoteFrac = 0.1
	cases := []struct {
		name string
		cfg  Config
		prof workload.Profile
		spec directory.Spec
		want string
	}{
		{"cores not a power of two", Config{Kind: SharedL2, Cores: 3, TrackedSets: 64, TrackedAssoc: 2}, smallProfile(), cuckoo, "Cores = 3"},
		{"zero cores", Config{Kind: PrivateL2, TrackedSets: 64, TrackedAssoc: 2}, smallProfile(), cuckoo, "Cores = 0"},
		{"sets not a power of two", Config{Kind: SharedL2, Cores: 4, TrackedSets: 63, TrackedAssoc: 2}, smallProfile(), cuckoo, "TrackedSets = 63"},
		{"zero associativity", Config{Kind: SharedL2, Cores: 4, TrackedSets: 64, TrackedAssoc: 0}, smallProfile(), cuckoo, "TrackedAssoc = 0"},
		{"more than 64 caches", Config{Kind: SharedL2, Cores: 64, TrackedSets: 64, TrackedAssoc: 2}, smallProfile(), cuckoo, "128 tracked caches"},
		{"unknown kind", Config{Kind: Kind(9), Cores: 4, TrackedSets: 64, TrackedAssoc: 2}, smallProfile(), cuckoo, "unknown Kind(9)"},
		{"zero profile", good, workload.Profile{}, cuckoo, "footprints"},
		{"remote reads on one core", Config{Kind: PrivateL2, Cores: 1, TrackedSets: 64, TrackedAssoc: 2}, remote, cuckoo, "RemoteFrac"},
		{"zero spec", good, smallProfile(), directory.Spec{}, "unknown organization"},
		{"zero cuckoo size", good, smallProfile(), CuckooSize{}.Spec(), "Ways = 0"},
		{"sparse associativity 0", good, smallProfile(), good.SparseSpec(0, 2), "Ways = 0"},
		{"dup-tag narrower than the caches", good, smallProfile(),
			directory.Spec{Org: directory.OrgDuplicateTag, Geometry: directory.Geometry{Ways: 1, Sets: 64}}, "share a set"},
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

func TestKindStringUnknown(t *testing.T) {
	if Kind(9).String() == "" {
		t.Error("unknown kind should format")
	}
	sys, err := New(DefaultConfig(Kind(9)), smallProfile(), 1, ChosenCuckooSize(SharedL2).Spec())
	if err == nil || sys != nil || !strings.Contains(err.Error(), "unknown Kind(9)") {
		t.Errorf("New(DefaultConfig(Kind(9))) = %v, %v; want an unknown-kind error", sys, err)
	}
}

func TestProvisionedSets(t *testing.T) {
	cfg := DefaultConfig(SharedL2) // 1x = 2048
	if got := cfg.provisionedSets(8, 2); got != 512 {
		t.Errorf("sparse 2x sets = %d, want 512", got)
	}
	if got := cfg.provisionedSets(8, 8); got != 2048 {
		t.Errorf("sparse 8x sets = %d, want 2048", got)
	}
	prv := DefaultConfig(PrivateL2) // 1x = 16384
	if got := prv.provisionedSets(8, 2); got != 4096 {
		t.Errorf("private sparse 2x sets = %d, want 4096", got)
	}
}

func BenchmarkSystemStep(b *testing.B) {
	cfg := DefaultConfig(SharedL2)
	sys := mustNew(b, cfg, mustProfile(b, "oracle"), 1, ChosenCuckooSize(SharedL2).Spec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}
