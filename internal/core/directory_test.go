package core

import (
	"testing"

	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/rng"
)

func dirCfg() DirConfig {
	return DirConfig{
		Table:     Config{Ways: 4, SetsPerWay: 512},
		NumCaches: 32,
	}
}

func TestDirectoryReadWrite(t *testing.T) {
	d := NewDirectory(dirCfg())
	if f := d.Read(0x1000, 3); f != nil {
		t.Fatal("first read forced an eviction")
	}
	m, ok := d.Lookup(0x1000)
	if !ok || m != 1<<3 {
		t.Fatalf("Lookup = %#x, %v", m, ok)
	}
	// Second reader.
	d.Read(0x1000, 7)
	m, _ = d.Lookup(0x1000)
	if m != 1<<3|1<<7 {
		t.Fatalf("sharers = %#x", m)
	}
	// Writer invalidates the other sharers and becomes sole owner.
	inv, forced := d.Write(0x1000, 7)
	if forced != nil {
		t.Fatal("write forced an eviction")
	}
	if inv != 1<<3 {
		t.Fatalf("invalidate mask = %#x, want %#x", inv, uint64(1<<3))
	}
	m, _ = d.Lookup(0x1000)
	if m != 1<<7 {
		t.Fatalf("post-write sharers = %#x", m)
	}
}

func TestDirectoryWriteMiss(t *testing.T) {
	d := NewDirectory(dirCfg())
	inv, forced := d.Write(0x2000, 0)
	if inv != 0 || forced != nil {
		t.Fatalf("write miss: inv=%#x forced=%v", inv, forced)
	}
	m, ok := d.Lookup(0x2000)
	if !ok || m != 1 {
		t.Fatalf("Lookup = %#x, %v", m, ok)
	}
	if got := d.Stats().Events[EvInsertTag]; got != 1 {
		t.Fatalf("insert-tag = %d", got)
	}
}

func TestDirectoryEvict(t *testing.T) {
	d := NewDirectory(dirCfg())
	d.Read(0xa0, 1)
	d.Read(0xa0, 2)
	d.Evict(0xa0, 1)
	m, ok := d.Lookup(0xa0)
	if !ok || m != 1<<2 {
		t.Fatalf("after evict: %#x, %v", m, ok)
	}
	if got := d.Stats().Events[EvRemoveSharer]; got != 1 {
		t.Fatalf("remove-sharer = %d", got)
	}
	// Last sharer leaving frees the entry (§5.2: "the directory entry
	// becoming empty and eligible for reuse at the time the last sharer
	// evicts the block").
	d.Evict(0xa0, 2)
	if _, ok := d.Lookup(0xa0); ok {
		t.Fatal("entry not freed after last eviction")
	}
	if got := d.Stats().Events[EvRemoveTag]; got != 1 {
		t.Fatalf("remove-tag = %d", got)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Evicting an untracked block is a no-op (post-forced-eviction case).
	d.Evict(0xdead, 0)
}

func TestDirectoryEvictNonSharer(t *testing.T) {
	d := NewDirectory(dirCfg())
	d.Read(0xb0, 1)
	d.Evict(0xb0, 2) // cache 2 never held it
	m, ok := d.Lookup(0xb0)
	if !ok || m != 1<<1 {
		t.Fatalf("spurious eviction changed entry: %#x %v", m, ok)
	}
}

func TestDirectoryEventMix(t *testing.T) {
	d := NewDirectory(dirCfg())
	d.Read(1, 0)  // insert-tag
	d.Read(1, 1)  // add-sharer
	d.Read(1, 1)  // duplicate: no event
	d.Write(1, 0) // invalidate-sharers (cache 1 invalidated)
	d.Evict(1, 0) // remove-sharer + remove-tag
	ev := d.Stats().Events
	// The report names the event-mix tables print.
	names := [NumEvents]string{"insert-tag", "add-sharer", "remove-sharer", "remove-tag", "invalidate-sharers"}
	for e := range NumEvents {
		if e.String() != names[e] {
			t.Errorf("Event(%d).String() = %q, want %q", e, e, names[e])
		}
		if ev[e] != 1 {
			t.Errorf("%s = %d, want 1", e, ev[e])
		}
	}
	if got := ev.Total(); got != 5 {
		t.Errorf("Total = %d, want 5", got)
	}
}

func TestDirectoryWriteUpgradeSoleSharer(t *testing.T) {
	d := NewDirectory(dirCfg())
	d.Read(5, 4)
	inv, _ := d.Write(5, 4) // upgrade with no other sharers
	if inv != 0 {
		t.Fatalf("invalidate mask = %#x, want 0", inv)
	}
	if got := d.Stats().Events[EvInvalidate]; got != 0 {
		t.Fatalf("invalidate-sharers = %d, want 0", got)
	}
}

func TestDirectoryForcedEviction(t *testing.T) {
	// Identity hashing confines each address class to Ways slots; filling
	// a class past capacity forces evictions whose sharers are reported.
	d := NewDirectory(DirConfig{
		Table:     Config{Ways: 2, SetsPerWay: 16, Hash: hashfn.XorFold{}},
		NumCaches: 8,
	})
	d.Read(0x3, 0)
	d.Read(0x3, 1) // two sharers on block 3
	d.Read(0x13, 2)
	forced := d.Read(0x23, 3) // third block in a 2-slot conflict class
	if forced == nil {
		t.Fatal("expected forced eviction")
	}
	if forced.Addr != 0x3 && forced.Addr != 0x13 {
		t.Fatalf("forced.Addr = %#x", forced.Addr)
	}
	if forced.Addr == 0x3 && forced.Sharers != 0b11 {
		t.Fatalf("forced.Sharers = %#b, want 0b11", forced.Sharers)
	}
	st := d.Stats()
	if st.ForcedEvictions != 1 {
		t.Fatalf("ForcedEvictions = %d", st.ForcedEvictions)
	}
	wantBlocks := uint64(1)
	if forced.Addr == 0x3 {
		wantBlocks = 2
	}
	if st.ForcedBlocks != wantBlocks {
		t.Fatalf("ForcedBlocks = %d, want %d", st.ForcedBlocks, wantBlocks)
	}
	if st.InvalidationRate() <= 0 {
		t.Fatal("InvalidationRate should be positive")
	}
}

func TestDirectoryOccupancySampling(t *testing.T) {
	d := NewDirectory(dirCfg())
	for i := uint64(0); i < 100; i++ {
		d.Read(i, int(i%32))
	}
	st := d.Stats()
	if st.OccupancySamples != 100 {
		t.Fatalf("OccupancySamples = %d", st.OccupancySamples)
	}
	occ := st.MeanOccupancy()
	if occ <= 0 || occ >= 0.05 { // 100 entries in 2048 slots, averaged during fill
		t.Fatalf("MeanOccupancy = %f", occ)
	}
}

func TestDirectoryResetStats(t *testing.T) {
	d := NewDirectory(dirCfg())
	d.Read(1, 0)
	d.ResetStats()
	st := d.Stats()
	if st.Events.Total() != 0 || st.Attempts.Count() != 0 {
		t.Fatal("ResetStats did not zero statistics")
	}
	// Contents survive.
	if _, ok := d.Lookup(1); !ok {
		t.Fatal("ResetStats dropped directory contents")
	}
}

func TestDirectoryPanics(t *testing.T) {
	d := NewDirectory(dirCfg())
	for _, fn := range []func(){
		func() { d.Read(1, -1) },
		func() { d.Read(1, 32) },
		func() { d.Write(1, 99) },
		func() { d.Evict(1, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range cache id")
				}
			}()
			fn()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on NumCaches > 64")
			}
		}()
		NewDirectory(DirConfig{Table: smallCfg(), NumCaches: 65})
	}()
}

func TestDirStatsMerge(t *testing.T) {
	a, b := NewDirStats(32), NewDirStats(32)
	a.Events.Inc(EvInsertTag)
	a.Attempts.Add(1)
	a.OccupancySum, a.OccupancySamples = 0.5, 1
	b.Events.Inc(EvInsertTag)
	b.Attempts.Add(3)
	b.ForcedEvictions = 2
	b.ForcedBlocks = 5
	b.OccupancySum, b.OccupancySamples = 1.0, 1
	a.Merge(b)
	if a.Events[EvInsertTag] != 2 || a.Attempts.Count() != 2 {
		t.Fatal("Merge lost events")
	}
	if a.ForcedEvictions != 2 || a.ForcedBlocks != 5 {
		t.Fatal("Merge lost forced counts")
	}
	if a.MeanOccupancy() != 0.75 {
		t.Fatalf("MeanOccupancy = %f", a.MeanOccupancy())
	}
	if a.InvalidationRate() != 1.0 {
		t.Fatalf("InvalidationRate = %f", a.InvalidationRate())
	}
}

// TestDirStatsMergesMixedHistogramRanges: MergeDirStats merges slices
// whose attempt histograms have different ranges — an ideal directory's
// (range 1: every insert takes one attempt) with a cuckoo directory's
// (range 32) — in either order, losing no event or attempt.
func TestDirStatsMergesMixedHistogramRanges(t *testing.T) {
	d := NewDirectory(DirConfig{Table: Config{Ways: 4, SetsPerWay: 16}, NumCaches: 4})
	for a := uint64(0); a < 56; a++ { // 56 of 64 slots: some inserts displace
		d.Read(a*0x9e37, int(a%4))
	}
	cuckoo := d.Stats()
	ideal := NewDirStats(1)
	for range 5 {
		ideal.Events.Inc(EvInsertTag)
		ideal.Attempts.Add(1)
	}
	if cuckoo.Attempts.Max() != DefaultMaxAttempts || cuckoo.Attempts.Mean() <= 1 {
		t.Fatalf("cuckoo histogram: range %d, mean %.2f; want range %d and some displacements",
			cuckoo.Attempts.Max(), cuckoo.Attempts.Mean(), DefaultMaxAttempts)
	}
	for name, m := range map[string]*DirStats{
		"ideal first":  MergeDirStats(ideal, cuckoo),
		"cuckoo first": MergeDirStats(cuckoo, ideal),
	} {
		if m.Attempts.Max() != DefaultMaxAttempts {
			t.Errorf("%s: merged range %d, want %d", name, m.Attempts.Max(), DefaultMaxAttempts)
		}
		if m.Events.Total() != ideal.Events.Total()+cuckoo.Events.Total() ||
			m.Attempts.Count() != ideal.Attempts.Count()+cuckoo.Attempts.Count() {
			t.Errorf("%s: merge lost data: %d events, %d attempts", name, m.Events.Total(), m.Attempts.Count())
		}
		for v := 1; v <= DefaultMaxAttempts; v++ {
			if got, want := m.Attempts.Bucket(v), ideal.Attempts.Bucket(v)+cuckoo.Attempts.Bucket(v); got != want {
				t.Errorf("%s: %d-attempt bucket %d, want %d", name, v, got, want)
			}
		}
	}
}

// TestDirectoryMatchesOracle replays a random fill/evict/write stream into
// the Cuckoo directory and a map-based oracle. The oracle is updated for
// forced evictions, after which the two must agree exactly.
func TestDirectoryMatchesOracle(t *testing.T) {
	d := NewDirectory(DirConfig{
		Table:     Config{Ways: 4, SetsPerWay: 128},
		NumCaches: 16,
	})
	oracle := make(map[uint64]uint64)
	r := rng.New(77)
	const addrSpace = 1024
	for step := 0; step < 50000; step++ {
		addr := uint64(r.Intn(addrSpace))
		cache := r.Intn(16)
		switch r.Intn(4) {
		case 0, 1: // read
			forced := d.Read(addr, cache)
			oracle[addr] |= 1 << uint(cache)
			if forced != nil {
				delete(oracle, forced.Addr)
			}
		case 2: // write
			inv, forced := d.Write(addr, cache)
			want := oracle[addr] &^ (1 << uint(cache))
			if _, tracked := oracle[addr]; tracked && inv != want {
				t.Fatalf("step %d: invalidate = %#x, oracle wants %#x", step, inv, want)
			}
			oracle[addr] = 1 << uint(cache)
			if forced != nil {
				delete(oracle, forced.Addr)
			}
		case 3: // evict
			if m, ok := oracle[addr]; ok && m&(1<<uint(cache)) != 0 {
				d.Evict(addr, cache)
				m &^= 1 << uint(cache)
				if m == 0 {
					delete(oracle, addr)
				} else {
					oracle[addr] = m
				}
			}
		}
	}
	if d.Len() != len(oracle) {
		t.Fatalf("directory has %d entries, oracle %d", d.Len(), len(oracle))
	}
	d.ForEach(func(addr, sharers uint64) bool {
		if oracle[addr] != sharers {
			t.Fatalf("addr %#x: directory %#x, oracle %#x", addr, sharers, oracle[addr])
		}
		return true
	})
}

func BenchmarkDirectoryReadHit(b *testing.B) {
	d := NewDirectory(dirCfg())
	for i := uint64(0); i < 1024; i++ {
		d.Read(i, int(i%32))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(uint64(i)&1023, i&31)
	}
}

func BenchmarkDirectoryChurn(b *testing.B) {
	d := NewDirectory(dirCfg())
	r := rng.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := r.Uint64() & 4095
		c := i & 31
		d.Read(addr, c)
		if i&3 == 3 {
			d.Evict(addr, c)
		}
	}
}
