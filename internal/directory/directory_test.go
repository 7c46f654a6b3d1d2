package directory

import (
	"math/bits"
	"testing"

	"cuckoodir/internal/core"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/sharer"
)

// makeAll returns one instance of every organization, sized comparably for
// a small 8-cache system.
func makeAll(numCaches int) []Directory {
	return []Directory{
		NewIdeal(numCaches, 1024),
		NewDuplicateTag(numCaches, 128, 4),
		NewInCache(numCaches, 4096),
		NewSparse(8, 128, numCaches),
		NewSkewed(4, 256, numCaches),
		NewElbow(4, 256, numCaches),
		NewTagless(numCaches, 128, 64, 2),
		NewCuckoo(core.DirConfig{
			Table:     core.Config{Ways: 4, SetsPerWay: 256},
			NumCaches: numCaches,
		}),
		NewFormattedCuckoo(core.Config{Ways: 4, SetsPerWay: 256}, sharer.FullFormat(), numCaches),
	}
}

func TestBasicReadWriteEvictAll(t *testing.T) {
	for _, d := range makeAll(8) {
		t.Run(d.Name(), func(t *testing.T) {
			if d.NumCaches() != 8 {
				t.Fatalf("NumCaches = %d", d.NumCaches())
			}
			d.Read(0x40, 1)
			d.Read(0x40, 2)
			m, ok := d.Lookup(0x40)
			if !ok || m&(1<<1) == 0 || m&(1<<2) == 0 {
				t.Fatalf("Lookup = %#x, %v", m, ok)
			}
			op := d.Write(0x40, 1)
			if op.Invalidate&(1<<2) == 0 {
				t.Fatalf("Write did not invalidate cache 2: %#x", op.Invalidate)
			}
			if op.Invalidate&(1<<1) != 0 {
				t.Fatalf("Write invalidated the writer: %#x", op.Invalidate)
			}
			d.Evict(0x40, 1)
			// After the sole owner evicts, exact organizations drop the
			// entry entirely.
			if m, ok := d.Lookup(0x40); ok && m != 0 {
				if d.Name() != "tagless" { // tagless may alias other blocks
					t.Fatalf("entry not freed: %#x", m)
				}
			}
		})
	}
}

func TestWriteMissAllocates(t *testing.T) {
	for _, d := range makeAll(8) {
		op := d.Write(0x80, 3)
		if op.Invalidate != 0 {
			t.Errorf("%s: write miss invalidated %#x", d.Name(), op.Invalidate)
		}
		m, ok := d.Lookup(0x80)
		if !ok || m&(1<<3) == 0 {
			t.Errorf("%s: write miss not tracked: %#x %v", d.Name(), m, ok)
		}
		if got := d.Stats().Events[core.EvInsertTag]; got != 1 {
			t.Errorf("%s: insert-tag = %d", d.Name(), got)
		}
	}
}

func TestStatsResetKeepsContents(t *testing.T) {
	for _, d := range makeAll(8) {
		d.Read(0x100, 0)
		d.ResetStats()
		if d.Stats().Events.Total() != 0 {
			t.Errorf("%s: stats not reset", d.Name())
		}
		if _, ok := d.Lookup(0x100); !ok {
			t.Errorf("%s: ResetStats dropped contents", d.Name())
		}
	}
}

// TestSupersetAgainstIdeal replays one random trace into every
// organization alongside the ideal reference. After accounting for forced
// evictions, each directory's sharer view must be a superset of the true
// holders (exact organizations: equal).
func TestSupersetAgainstIdeal(t *testing.T) {
	const numCaches = 8
	for _, d := range makeAll(numCaches) {
		if d.Name() == "ideal" {
			continue
		}
		t.Run(d.Name(), func(t *testing.T) {
			// truth[addr] = mask of caches holding addr, maintained from
			// the directory's *own* outputs (forced evictions remove
			// blocks from caches, invalidations remove copies).
			truth := make(map[uint64]uint64)
			r := rng.New(4242)
			const addrSpace = 512
			for step := 0; step < 30000; step++ {
				addr := uint64(r.Intn(addrSpace))
				cache := r.Intn(numCaches)
				switch r.Intn(4) {
				case 0, 1:
					op := d.Read(addr, cache)
					truth[addr] |= 1 << uint(cache)
					for _, f := range op.Forced {
						delete(truth, f.Addr)
					}
				case 2:
					op := d.Write(addr, cache)
					// All true holders except the writer lose their copy.
					truth[addr] = 1 << uint(cache)
					for _, f := range op.Forced {
						delete(truth, f.Addr)
					}
				case 3:
					if truth[addr]&(1<<uint(cache)) != 0 {
						d.Evict(addr, cache)
						truth[addr] &^= 1 << uint(cache)
						if truth[addr] == 0 {
							delete(truth, addr)
						}
					}
				}
				if step%997 == 0 { // periodic audit
					for a, m := range truth {
						got, _ := d.Lookup(a)
						if got&m != m {
							t.Fatalf("step %d: %s under-approximates addr %#x: got %#x want superset of %#x",
								step, d.Name(), a, got, m)
						}
					}
				}
			}
		})
	}
}

func TestSparseConflictForcesEviction(t *testing.T) {
	// 2-way sparse with 4 sets: three blocks with equal low bits overflow.
	d := NewSparse(2, 4, 4)
	d.Read(0x0, 0)
	d.Read(0x4, 1) // same set (addr & 3 == 0)
	op := d.Read(0x8, 2)
	if len(op.Forced) != 1 {
		t.Fatalf("Forced = %v, want one eviction", op.Forced)
	}
	if got := d.Stats().ForcedEvictions; got != 1 {
		t.Fatalf("ForcedEvictions = %d", got)
	}
	// LRU: the oldest entry (0x0, sharer 0) is the victim.
	if op.Forced[0].Addr != 0x0 || op.Forced[0].Sharers != 1 {
		t.Fatalf("victim = %+v, want addr 0 sharers 1", op.Forced[0])
	}
	if _, ok := d.Lookup(0x0); ok {
		t.Fatal("victim still tracked")
	}
}

func TestSparseLRUTouchOnHit(t *testing.T) {
	d := NewSparse(2, 4, 4)
	d.Read(0x0, 0)
	d.Read(0x4, 1)
	d.Read(0x0, 2) // touch 0x0 — now 0x4 is LRU
	op := d.Read(0x8, 3)
	if len(op.Forced) != 1 || op.Forced[0].Addr != 0x4 {
		t.Fatalf("victim = %+v, want addr 0x4", op.Forced)
	}
}

// TestSkewedBeatsSparseOnConflicts reproduces the qualitative Figure 12
// relationship: on a conflict-heavy address stream, the skewed directory
// forces fewer invalidations than an equal-capacity sparse directory, and
// the cuckoo directory fewer still.
func TestSkewedBeatsSparseOnConflicts(t *testing.T) {
	const numCaches = 8
	sparse := NewSparse(4, 64, numCaches) // 256 entries
	skewed := NewSkewed(4, 64, numCaches) // 256 entries
	cuckoo := NewCuckoo(core.DirConfig{
		Table:     core.Config{Ways: 4, SetsPerWay: 64},
		NumCaches: numCaches,
	}) // 256 entries
	drive := func(d Directory) uint64 {
		r := rng.New(31337)
		// Hot-set pattern: addresses strided so low index bits collide
		// heavily (the non-uniform set pressure of §3.2), with total
		// footprint below capacity so a conflict-free directory fits all.
		live := make([]uint64, 0, 208)
		for i := 0; i < 13; i++ {
			for j := 0; j < 16; j++ {
				live = append(live, uint64(i)+uint64(j)*64*16)
			}
		}
		for step := 0; step < 40000; step++ {
			addr := live[r.Intn(len(live))]
			c := r.Intn(numCaches)
			if r.Bool(0.3) {
				d.Write(addr, c)
			} else {
				d.Read(addr, c)
			}
			if r.Bool(0.05) {
				d.Evict(addr, c)
			}
		}
		return d.Stats().ForcedEvictions
	}
	sp, sk, ck := drive(sparse), drive(skewed), drive(cuckoo)
	t.Logf("forced evictions: sparse=%d skewed=%d cuckoo=%d", sp, sk, ck)
	if !(sp > sk) {
		t.Errorf("sparse (%d) should force more evictions than skewed (%d)", sp, sk)
	}
	if !(sk > ck) {
		t.Errorf("skewed (%d) should force more evictions than cuckoo (%d)", sk, ck)
	}
	if ck != 0 {
		t.Logf("cuckoo forced %d evictions (expected ~0 below capacity)", ck)
	}
}

func TestDuplicateTagNeverForcesInvalidation(t *testing.T) {
	// Mirror a 4-set 2-way cache per core and drive it with the mirroring
	// protocol (evict before fill when the set is full).
	const numCaches, sets, assoc = 4, 4, 2
	d := NewDuplicateTag(numCaches, sets, assoc)
	type frame struct{ addr uint64 }
	caches := make([][]map[uint64]bool, numCaches)
	for c := range caches {
		caches[c] = make([]map[uint64]bool, sets)
		for s := range caches[c] {
			caches[c][s] = make(map[uint64]bool)
		}
	}
	r := rng.New(606)
	for step := 0; step < 20000; step++ {
		c := r.Intn(numCaches)
		addr := uint64(r.Intn(64))
		set := addr % sets
		if caches[c][set][addr] {
			continue // hit
		}
		if len(caches[c][set]) == assoc {
			// evict a victim first, as real caches do
			for victim := range caches[c][set] {
				d.Evict(victim, c)
				delete(caches[c][set], victim)
				break
			}
		}
		op := d.Read(addr, c)
		if len(op.Forced) != 0 {
			t.Fatal("duplicate-tag forced an invalidation")
		}
		caches[c][set][addr] = true
	}
	if d.Stats().ForcedEvictions != 0 {
		t.Fatal("duplicate-tag recorded forced evictions")
	}
	_ = frame{}
}

func TestDuplicateTagOverflowPanics(t *testing.T) {
	d := NewDuplicateTag(2, 4, 1)
	d.Read(0x0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected mirroring-violation panic")
		}
	}()
	d.Read(0x4, 0) // same set of cache 0, no eviction first
}

func TestTaglessSuperset(t *testing.T) {
	d := NewTagless(4, 16, 32, 2)
	d.Read(0x10, 0)
	d.Read(0x10, 2)
	m, ok := d.Lookup(0x10)
	if !ok || m&(1<<0) == 0 || m&(1<<2) == 0 {
		t.Fatalf("Lookup = %#x", m)
	}
	// Eviction removes from the filter (counting).
	d.Evict(0x10, 0)
	d.Evict(0x10, 2)
	if m, _ := d.Lookup(0x10); m != 0 {
		// Can only be an alias from another tracked block; none here.
		t.Fatalf("filters not cleaned: %#x", m)
	}
}

func TestTaglessSpuriousInvalidations(t *testing.T) {
	// Tiny filters force false positives: fill many blocks into one grid
	// row and write to one of them; invalidations to non-holders must be
	// counted as spurious.
	d := NewTagless(4, 2, 8, 1) // 2 sets, 8-bit filters, 1 hash
	for i := uint64(0); i < 12; i++ {
		d.Read(i*2, 0) // all even blocks land in set 0 of cache 0
	}
	d.Read(0x100, 1) // cache 1 holds a different block in set 0
	op := d.Write(0x2, 2)
	// Cache 1 does not hold 0x2, but its set-0 filter is likely positive.
	if op.Invalidate&(1<<1) != 0 && d.SpuriousInvalidations == 0 {
		t.Fatal("spurious invalidation not counted")
	}
	if op.Invalidate&(1<<0) == 0 {
		t.Fatal("true holder not invalidated")
	}
}

func TestInCacheTracksAll(t *testing.T) {
	d := NewInCache(8, 4096)
	for i := uint64(0); i < 2000; i++ {
		op := d.Read(i, int(i%8))
		if len(op.Forced) != 0 {
			t.Fatal("in-cache forced an eviction")
		}
	}
	if d.Len() != 2000 {
		t.Fatalf("Len = %d", d.Len())
	}
	occ := d.Stats().MeanOccupancy()
	if occ <= 0 || occ > 0.5 {
		t.Fatalf("MeanOccupancy = %f", occ)
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewSparse(0, 16, 4) },
		func() { NewSparse(4, 3, 4) },
		func() { NewSparse(4, 16, 0) },
		func() { NewSkewed(4, 16, 65) },
		func() { NewTagless(0, 16, 32, 2) },
		func() { NewTagless(4, 15, 32, 2) },
		func() { NewTagless(4, 16, 31, 2) },
		func() { NewTagless(4, 16, 32, 0) },
		func() { NewDuplicateTag(4, 3, 2) },
		func() { NewDuplicateTag(4, 4, 0) },
		func() { NewIdeal(0, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestEventMixAccounting(t *testing.T) {
	// Every organization must account the five event classes identically
	// on the same trace (they see the same exact stream here, no
	// conflicts).
	for _, d := range makeAll(8) {
		d.Read(0x1, 0)  // insert
		d.Read(0x1, 1)  // add-sharer
		d.Write(0x1, 0) // invalidate
		d.Evict(0x1, 0) // remove-sharer + remove-tag
		if ev := d.Stats().Events; ev != (core.EventCounts{1, 1, 1, 1, 1}) {
			t.Errorf("%s: event mix wrong: insert=%d add=%d rms=%d rmt=%d inv=%d, want 1 each",
				d.Name(), ev[core.EvInsertTag], ev[core.EvAddSharer],
				ev[core.EvRemoveSharer], ev[core.EvRemoveTag], ev[core.EvInvalidate])
		}
	}
	// A write by a cache that does not hold the block, which others
	// share, is one invalidate: the writer takes the entry over rather
	// than joining its sharers first.
	for _, d := range makeAll(8) {
		d.Read(0x1, 0)  // insert
		d.Read(0x1, 1)  // add-sharer
		d.Write(0x1, 2) // invalidate
		if ev := d.Stats().Events; ev != (core.EventCounts{1, 1, 0, 0, 1}) {
			t.Errorf("%s: write by a non-sharer: events %v, want [1 1 0 0 1]", d.Name(), ev)
		}
	}
}

func TestInvalidateMaskExcludesWriter(t *testing.T) {
	for _, d := range makeAll(8) {
		for c := 0; c < 8; c++ {
			d.Read(0x55, c)
		}
		op := d.Write(0x55, 5)
		if op.Invalidate&(1<<5) != 0 {
			t.Errorf("%s: writer in its own invalidate mask", d.Name())
		}
		want := uint64(0xff) &^ (1 << 5)
		if op.Invalidate&want != want {
			t.Errorf("%s: invalidate mask %#x missing sharers %#x", d.Name(), op.Invalidate, want)
		}
	}
}

func TestPopcountConsistency(t *testing.T) {
	// ForcedBlocks must equal the popcount of evicted sharer masks.
	d := NewSparse(1, 2, 8)
	d.Read(0x0, 0)
	d.Read(0x0, 1)
	d.Read(0x0, 2)
	op := d.Read(0x2, 3) // same set (sets=2: addr&1) — wait, 0x2&1 == 0, conflicts with 0x0
	if len(op.Forced) != 1 {
		t.Fatalf("Forced = %v", op.Forced)
	}
	want := uint64(bits.OnesCount64(op.Forced[0].Sharers))
	if d.Stats().ForcedBlocks != want {
		t.Fatalf("ForcedBlocks = %d, want %d", d.Stats().ForcedBlocks, want)
	}
}

func BenchmarkSparseRead(b *testing.B) {
	d := NewSparse(8, 1024, 16)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(r.Uint64()&0xffff, i&15)
	}
}

func BenchmarkTaglessWrite(b *testing.B) {
	d := NewTagless(16, 512, 64, 2)
	r := rng.New(1)
	for i := 0; i < 4096; i++ {
		d.Read(r.Uint64()&0xffff, i&15)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(r.Uint64()&0xffff, i&15)
	}
}
