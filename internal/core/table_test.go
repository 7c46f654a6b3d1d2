package core

import (
	"testing"
	"testing/quick"
	"unsafe"

	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/rng"
)

func smallCfg() Config {
	return Config{Ways: 4, SetsPerWay: 64}
}

func TestTableInsertFind(t *testing.T) {
	tb := NewTable[int](smallCfg())
	if tb.Capacity() != 4*64 {
		t.Fatalf("Capacity = %d", tb.Capacity())
	}
	res := tb.Insert(100, 1)
	if res.Present || res.Attempts != 1 || res.Evicted != nil {
		t.Fatalf("first insert: %+v", res)
	}
	if p := tb.Find(100); p == nil || *p != 1 {
		t.Fatal("Find after insert failed")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// Re-insert updates in place.
	res = tb.Insert(100, 2)
	if !res.Present {
		t.Fatalf("re-insert: %+v", res)
	}
	if p := tb.Find(100); *p != 2 {
		t.Fatal("re-insert did not update value")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len after update = %d", tb.Len())
	}
	if tb.Find(101) != nil {
		t.Fatal("Find of absent key succeeded")
	}
}

// TestPairLayout: a packed slot holds its key and value side by side,
// 16 bytes for a directory's uint64 sharer mask and 8 for
// characterize's struct{}, so a hit's value sits in the cache line of
// the key the probe compared. The field order matters: {key uint64;
// val struct{}} pads to 16 bytes and would double characterize's
// tables.
func TestPairLayout(t *testing.T) {
	if got := unsafe.Sizeof(pair[uint64]{}); got != 16 {
		t.Errorf("Sizeof(pair[uint64]) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(pair[struct{}]{}); got != 8 {
		t.Errorf("Sizeof(pair[struct{}]) = %d, want 8", got)
	}
	tb := NewTable[uint64](smallCfg())
	for i := range tb.pairs {
		p := &tb.pairs[i]
		if uintptr(unsafe.Pointer(&p.key))/64 != uintptr(unsafe.Pointer(&p.val))/64 {
			t.Fatalf("pair %d straddles two cache lines", i)
		}
	}
}

func TestTableDelete(t *testing.T) {
	tb := NewTable[int](smallCfg())
	tb.Insert(1, 10)
	tb.Insert(2, 20)
	if !tb.Delete(1) {
		t.Fatal("Delete of present key returned false")
	}
	if tb.Delete(1) {
		t.Fatal("double Delete returned true")
	}
	if tb.Find(1) != nil {
		t.Fatal("deleted key still findable")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTableFindMutation(t *testing.T) {
	tb := NewTable[int](smallCfg())
	tb.Insert(7, 1)
	p := tb.Find(7)
	*p = 99
	if q := tb.Find(7); *q != 99 {
		t.Fatal("mutation through Find pointer lost")
	}
}

// TestDisplacement uses XorFold (identity) hashing so every key has exactly
// Ways eligible slots (one per way, all at index key&mask): d+1 keys with
// equal low bits cannot all fit, and the d-th insert must displace.
func TestDisplacement(t *testing.T) {
	cfg := Config{Ways: 3, SetsPerWay: 16, Hash: hashfn.XorFold{}}
	tb := NewTable[int](cfg)
	// Keys congruent mod 16 all hash to set 5 in every way.
	keys := []uint64{5, 21, 37}
	for i, k := range keys {
		res := tb.Insert(k, i)
		if res.Evicted != nil {
			t.Fatalf("insert %d evicted prematurely", k)
		}
	}
	// All three fit (3 ways).
	for _, k := range keys {
		if tb.Find(k) == nil {
			t.Fatalf("key %d lost", k)
		}
	}
	// Fourth conflicting key: no vacancy anywhere, and with identity
	// hashing displaced victims have nowhere else to go, so the insertion
	// must exhaust its budget and discard an entry.
	res := tb.Insert(53, 3)
	if res.Evicted == nil {
		t.Fatal("expected forced eviction on over-full conflict group")
	}
	if res.Attempts != tb.Config().MaxAttempts {
		t.Fatalf("Attempts = %d, want cap %d", res.Attempts, tb.Config().MaxAttempts)
	}
	// The table must still hold exactly 3 of the 4 keys.
	live := 0
	for _, k := range []uint64{5, 21, 37, 53} {
		if tb.Find(k) != nil {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("live keys = %d, want 3", live)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
}

// TestCuckooBreaksTransitivity is the paper's §4 motivating property: with
// per-way hash functions, entries that conflict in one way can displace to
// other ways, so a conflict group larger than one way's slot can still be
// stored — unlike a set-associative structure.
func TestCuckooBreaksTransitivity(t *testing.T) {
	cfg := Config{Ways: 4, SetsPerWay: 256, Hash: hashfn.Strong{}}
	tb := NewTable[int](cfg)
	// Find 8 keys that collide in way 0 (same set there). In a 4-way
	// set-associative structure (which indexes all ways identically) at
	// most 4 could coexist; cuckoo stores all 8 via alternate ways.
	strong := hashfn.Strong{}
	target := strong.Hash(0, 12345) & 255
	keys := []uint64{12345}
	for k := uint64(0); len(keys) < 8; k++ {
		if k != 12345 && strong.Hash(0, k)&255 == target {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if res := tb.Insert(k, 0); res.Evicted != nil {
			t.Fatalf("eviction while inserting way-0-conflicting key %d", k)
		}
	}
	for _, k := range keys {
		if tb.Find(k) == nil {
			t.Fatalf("conflicting key %d not stored", k)
		}
	}
}

// TestNoKeyLoss drives random inserts and deletes against a map oracle:
// the table must contain exactly the oracle's keys minus those it reported
// as forcibly evicted.
func TestNoKeyLoss(t *testing.T) {
	cfg := Config{Ways: 3, SetsPerWay: 128}
	tb := NewTable[uint64](cfg)
	oracle := make(map[uint64]uint64)
	r := rng.New(2024)
	keys := make([]uint64, 0, 4096)
	for step := 0; step < 20000; step++ {
		if r.Bool(0.6) || len(keys) == 0 {
			k := r.Uint64() % 4096 // constrained key space to force reuse
			v := r.Uint64()
			res := tb.Insert(k, v)
			if !res.Present {
				keys = append(keys, k)
			}
			oracle[k] = v
			if res.Evicted != nil {
				// Note: res.Evicted.Key may equal k — in a displacement
				// cycle the new entry itself can be the most recently
				// displaced entry when the budget runs out.
				delete(oracle, res.Evicted.Key)
			}
		} else {
			k := keys[r.Intn(len(keys))]
			_, inOracle := oracle[k]
			got := tb.Delete(k)
			if got != inOracle {
				t.Fatalf("step %d: Delete(%d) = %v, oracle has %v", step, k, got, inOracle)
			}
			delete(oracle, k)
		}
	}
	// Final audit both directions.
	if tb.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle = %d", tb.Len(), len(oracle))
	}
	for k, v := range oracle {
		p := tb.Find(k)
		if p == nil {
			t.Fatalf("oracle key %d missing from table", k)
		}
		if *p != v {
			t.Fatalf("key %d value = %d, want %d", k, *p, v)
		}
	}
	seen := make(map[uint64]bool)
	tb.ForEach(func(e Entry[uint64]) bool {
		if seen[e.Key] {
			t.Fatalf("duplicate key %d in table", e.Key)
		}
		seen[e.Key] = true
		if _, ok := oracle[e.Key]; !ok {
			t.Fatalf("table holds key %d not in oracle", e.Key)
		}
		return true
	})
}

// TestLowOccupancyNeverEvicts is Figure 7's headline property as a test: a
// 4-ary table filled to 50% with random keys must see zero insertion
// failures and few attempts.
func TestLowOccupancyNeverEvicts(t *testing.T) {
	cfg := Config{Ways: 4, SetsPerWay: 4096, Hash: hashfn.Strong{}}
	tb := NewTable[struct{}](cfg)
	r := rng.New(55)
	n := tb.Capacity() / 2
	var totalAttempts int
	for i := 0; i < n; i++ {
		res := tb.Insert(r.Uint64(), struct{}{})
		if res.Evicted != nil {
			t.Fatalf("eviction at occupancy %.2f", tb.Occupancy())
		}
		totalAttempts += res.Attempts
	}
	if avg := float64(totalAttempts) / float64(n); avg > 2.0 {
		t.Errorf("average attempts to 50%% occupancy = %.2f, want <= 2 (paper §5.1)", avg)
	}
}

func TestOccupancy(t *testing.T) {
	tb := NewTable[int](Config{Ways: 2, SetsPerWay: 8})
	if tb.Occupancy() != 0 {
		t.Fatal("empty occupancy != 0")
	}
	tb.Insert(1, 1)
	tb.Insert(2, 2)
	if got := tb.Occupancy(); got != 2.0/16.0 {
		t.Fatalf("Occupancy = %f", got)
	}
}

func TestClear(t *testing.T) {
	tb := NewTable[int](smallCfg())
	for i := uint64(0); i < 50; i++ {
		tb.Insert(i, int(i))
	}
	tb.Clear()
	if tb.Len() != 0 || tb.Occupancy() != 0 {
		t.Fatal("Clear left entries")
	}
	if tb.Find(10) != nil {
		t.Fatal("Find after Clear")
	}
	// Table still usable.
	tb.Insert(3, 33)
	if p := tb.Find(3); p == nil || *p != 33 {
		t.Fatal("insert after Clear failed")
	}
}

func TestBucketizedWays(t *testing.T) {
	// BucketSize 2 doubles each set's capacity: with identity hashing,
	// 2*Ways conflicting keys fit.
	cfg := Config{Ways: 2, SetsPerWay: 16, BucketSize: 2, Hash: hashfn.XorFold{}}
	tb := NewTable[int](cfg)
	if tb.Capacity() != 2*16*2 {
		t.Fatalf("Capacity = %d", tb.Capacity())
	}
	keys := []uint64{3, 19, 35, 51} // all ≡ 3 mod 16
	for _, k := range keys {
		if res := tb.Insert(k, 0); res.Evicted != nil {
			t.Fatalf("bucketized insert of %d evicted", k)
		}
	}
	for _, k := range keys {
		if tb.Find(k) == nil {
			t.Fatalf("bucketized key %d lost", k)
		}
	}
	// Fifth conflicting key overflows.
	if res := tb.Insert(67, 0); res.Evicted == nil {
		t.Fatal("expected eviction with 5 conflicting keys in 4 slots")
	}
}

func TestStash(t *testing.T) {
	cfg := Config{Ways: 2, SetsPerWay: 16, Hash: hashfn.XorFold{}, StashSize: 2}
	tb := NewTable[int](cfg)
	// Three keys conflicting in both ways: third lands in stash.
	keys := []uint64{7, 23, 39}
	var stashed int
	for _, k := range keys {
		res := tb.Insert(k, int(k))
		if res.Evicted != nil {
			t.Fatalf("eviction despite stash space: %+v", res)
		}
		if res.Stashed {
			stashed++
		}
	}
	if stashed != 1 {
		t.Fatalf("stashed = %d, want 1", stashed)
	}
	if tb.StashLen() != 1 {
		t.Fatalf("StashLen = %d", tb.StashLen())
	}
	// All three keys remain findable (stash is searched on lookup).
	for _, k := range keys {
		p := tb.Find(k)
		if p == nil || *p != int(k) {
			t.Fatalf("key %d not found via stash", k)
		}
	}
	// Deleting a table-resident conflicting key drains the stash entry
	// back into the table.
	var tableKey uint64
	for _, k := range keys {
		inStash := false
		for _, e := range stashEntries(tb) {
			if e == k {
				inStash = true
			}
		}
		if !inStash {
			tableKey = k
			break
		}
	}
	tb.Delete(tableKey)
	if tb.StashLen() != 0 {
		t.Fatalf("stash not drained after delete: len=%d", tb.StashLen())
	}
	// Remaining two keys still present.
	for _, k := range keys {
		if k == tableKey {
			continue
		}
		if tb.Find(k) == nil {
			t.Fatalf("key %d lost during stash drain", k)
		}
	}
}

func stashEntries(tb *Table[int]) []uint64 {
	var out []uint64
	for _, e := range tb.stash {
		out = append(out, e.Key)
	}
	return out
}

func TestStashDeleteDirect(t *testing.T) {
	cfg := Config{Ways: 2, SetsPerWay: 16, Hash: hashfn.XorFold{}, StashSize: 2}
	tb := NewTable[int](cfg)
	for _, k := range []uint64{7, 23, 39} {
		tb.Insert(k, int(k))
	}
	stash := stashEntries(tb)
	if len(stash) != 1 {
		t.Fatalf("stash = %v", stash)
	}
	if !tb.Delete(stash[0]) {
		t.Fatal("Delete of stashed key failed")
	}
	if tb.Find(stash[0]) != nil {
		t.Fatal("stashed key still findable after delete")
	}
}

func TestStashOverflowEvicts(t *testing.T) {
	cfg := Config{Ways: 2, SetsPerWay: 16, Hash: hashfn.XorFold{}, StashSize: 1}
	tb := NewTable[int](cfg)
	// Four conflicting keys into 2 slots + 1 stash: fourth must evict.
	var evictions int
	for _, k := range []uint64{7, 23, 39, 55} {
		if res := tb.Insert(k, 0); res.Evicted != nil {
			evictions++
		}
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Ways: 1, SetsPerWay: 16},
		{Ways: 9, SetsPerWay: 16}, // wider than hashfn.MaxWays
		{Ways: 4, SetsPerWay: 0},
		{Ways: 4, SetsPerWay: 100}, // not a power of two
		{Ways: 4, SetsPerWay: 16, BucketSize: -1},
		{Ways: 4, SetsPerWay: 16, MaxAttempts: -1},
		{Ways: 4, SetsPerWay: 16, StashSize: -1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d passed Validate: %+v", i, cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic: %+v", i, cfg)
				}
			}()
			NewTable[int](cfg)
		}()
	}
	for _, ways := range []int{2, hashfn.MaxWays} {
		if err := (Config{Ways: ways, SetsPerWay: 16}).Validate(); err != nil {
			t.Errorf("Ways = %d: %v", ways, err)
		}
	}
}

func TestDefaults(t *testing.T) {
	tb := NewTable[int](Config{Ways: 3, SetsPerWay: 32})
	cfg := tb.Config()
	if cfg.MaxAttempts != DefaultMaxAttempts {
		t.Errorf("MaxAttempts default = %d", cfg.MaxAttempts)
	}
	if cfg.BucketSize != 1 {
		t.Errorf("BucketSize default = %d", cfg.BucketSize)
	}
	if cfg.Hash == nil || cfg.Hash.Name() != "skew" {
		t.Errorf("Hash default = %v", cfg.Hash)
	}
}

// Property: inserting distinct keys into a table kept below 40% occupancy
// never forces an eviction and every key remains findable (4-ary, strong
// hashing).
func TestQuickLowOccupancyInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := Config{Ways: 4, SetsPerWay: 256, Hash: hashfn.Strong{}}
		tb := NewTable[struct{}](cfg)
		r := rng.New(seed)
		n := tb.Capacity() * 2 / 5
		inserted := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			k := r.Uint64()
			res := tb.Insert(k, struct{}{})
			if res.Evicted != nil {
				return false
			}
			if !res.Present {
				inserted = append(inserted, k)
			}
		}
		for _, k := range inserted {
			if tb.Find(k) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestWayDistributionUniform verifies the §4.2 design point behind the
// rotating start way: "to maintain a uniform distribution of entries
// across the ways, each insertion starts at the way at which the previous
// insertion stopped". After a random fill, no way may be grossly over- or
// under-loaded.
func TestWayDistributionUniform(t *testing.T) {
	cfg := Config{Ways: 4, SetsPerWay: 2048, Hash: hashfn.Strong{}}
	tb := NewTable[struct{}](cfg)
	r := rng.New(808)
	n := tb.Capacity() / 2
	for i := 0; i < n; i++ {
		tb.Insert(r.Uint64(), struct{}{})
	}
	// Count per-way loads through the occupancy bitset.
	perWay := make([]int, cfg.Ways)
	seen := 0
	for w := 0; w < cfg.Ways; w++ {
		count := 0
		for s := 0; s < cfg.SetsPerWay; s++ {
			if tb.liveBit(tb.bucketBase(w, s)) {
				count++
			}
		}
		perWay[w] = count
		seen += count
	}
	if seen != tb.Len() {
		t.Fatalf("slot census %d != Len %d", seen, tb.Len())
	}
	expected := float64(seen) / float64(cfg.Ways)
	for w, c := range perWay {
		if dev := (float64(c) - expected) / expected; dev < -0.1 || dev > 0.1 {
			t.Errorf("way %d holds %d entries, expected ~%.0f (dev %.1f%%)", w, c, expected, dev*100)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tb := NewTable[int](smallCfg())
	for i := uint64(0); i < 10; i++ {
		tb.Insert(i, 0)
	}
	count := 0
	tb.ForEach(func(Entry[int]) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("ForEach visited %d entries after early stop", count)
	}
}

func BenchmarkTableLookupHit(b *testing.B) {
	tb := NewTable[uint64](Config{Ways: 4, SetsPerWay: 1 << 14, Hash: hashfn.Strong{}})
	r := rng.New(1)
	keys := make([]uint64, tb.Capacity()/2)
	for i := range keys {
		keys[i] = r.Uint64()
		tb.Insert(keys[i], 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb.Find(keys[i%len(keys)]) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTableInsert50(b *testing.B) {
	// Insert into a half-full table (steady-state directory behaviour).
	tb := NewTable[uint64](Config{Ways: 4, SetsPerWay: 1 << 14, Hash: hashfn.Strong{}})
	r := rng.New(2)
	half := tb.Capacity() / 2
	keys := make([]uint64, 0, half)
	for i := 0; i < half; i++ {
		k := r.Uint64()
		tb.Insert(k, 0)
		keys = append(keys, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep occupancy constant: delete one, insert one.
		tb.Delete(keys[i%len(keys)])
		k := r.Uint64()
		tb.Insert(k, 0)
		keys[i%len(keys)] = k
	}
}
