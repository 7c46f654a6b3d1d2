package directory

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/core"
	"cuckoodir/internal/hashfn"
)

// Tagless models the Tagless coherence directory of Zebchuk et al.
// (MICRO '09, reference [43]): a grid of Bloom filters, one per
// (private cache, cache set) pair, each encoding the tags resident in that
// set of that cache. A lookup reads the filters of the accessed block's
// set across all caches and returns the caches whose filter hits — a
// SUPERSET of the true sharers ("encoding a super-set of sharers in a
// Duplicate-Tag-like organization", §3.3). Spurious positives cause
// invalidation messages to caches that do not hold the block; the model
// counts them (SpuriousInvalidations) since they are the Tagless design's
// bandwidth cost.
//
// Two modelling notes, as recorded in DESIGN.md:
//
//   - The filters are counting Bloom filters so evictions can be removed.
//     Zebchuk's design keeps the grid in sync using the L1 eviction
//     notifications that any directory protocol already requires; counters
//     are the standard functional equivalent.
//   - An exact shadow map tracks which (cache, block) pairs were actually
//     inserted, standing in for the invalidation acknowledgements hardware
//     uses, so filter removals are always matched with insertions and the
//     counters never underflow.
//
// Energy and area are charged by internal/energy, which models the
// linearly-growing read/update width that makes Tagless energy-unscalable
// (Figure 4) — this type models behaviour only.
type Tagless struct {
	numCaches  int
	sets       int
	bucketBits int
	hashes     int
	setMask    uint64
	// counters[(cache*sets + set)*bucketBits + bit]
	counters []uint8
	shadow   map[uint64]uint64 // addr -> true holder mask
	// ix resolves the k probe-bit hashes in one devirtualized batch
	// ("way" k is probe k; the bit mask plays the set mask's role).
	ix    hashfn.Indexer
	stats *Stats
	// SpuriousInvalidations counts invalidations sent to caches that did
	// not hold the block (Bloom false positives).
	SpuriousInvalidations uint64
}

// NewTagless builds a Tagless directory slice.
//
// sets is the number of private-cache sets mapping to this slice (the grid
// row count), bucketBits the width of each Bloom filter bucket, and hashes
// the number of probe bits per lookup (k).
func NewTagless(numCaches, sets, bucketBits, hashes int) *Tagless {
	if numCaches <= 0 || numCaches > 64 {
		panic(fmt.Sprintf("directory: numCaches = %d", numCaches))
	}
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("directory: sets = %d, need a power of two", sets))
	}
	if bucketBits <= 0 || bucketBits&(bucketBits-1) != 0 {
		panic(fmt.Sprintf("directory: bucketBits = %d, need a power of two", bucketBits))
	}
	// The bound is hashfn.MaxWays, not a free choice: probeBits batches
	// all k probes through one Indexer.IndexAll call.
	if hashes <= 0 || hashes > hashfn.MaxWays {
		panic(fmt.Sprintf("directory: hashes = %d, need 1..%d", hashes, hashfn.MaxWays))
	}
	return &Tagless{
		numCaches:  numCaches,
		sets:       sets,
		bucketBits: bucketBits,
		hashes:     hashes,
		setMask:    uint64(sets - 1),
		counters:   make([]uint8, numCaches*sets*bucketBits),
		shadow:     make(map[uint64]uint64),
		ix:         hashfn.NewIndexer(hashfn.Strong{}, hashes, uint64(bucketBits-1)),
		stats:      core.NewDirStats(1),
	}
}

// Name implements Directory.
func (t *Tagless) Name() string { return "tagless" }

// NumCaches implements Directory.
func (t *Tagless) NumCaches() int { return t.numCaches }

// Capacity implements Directory. The grid has no per-entry capacity; its
// nominal capacity is the mirrored frame count.
func (t *Tagless) Capacity() int { return t.numCaches * t.sets * t.bucketBits / t.hashes }

// Len implements Directory (tracked distinct blocks, from the shadow).
func (t *Tagless) Len() int { return len(t.shadow) }

// Stats implements Directory.
func (t *Tagless) Stats() *Stats { return t.stats }

// ResetStats implements Directory.
func (t *Tagless) ResetStats() {
	t.stats = core.NewDirStats(1)
	t.SpuriousInvalidations = 0
}

// set returns the grid row of addr.
func (t *Tagless) set(addr uint64) uint64 { return addr & t.setMask }

// probeBits computes the k filter bit indexes of addr in one batched
// pass (hashes <= 8 == hashfn.MaxWays, enforced by the constructor).
func (t *Tagless) probeBits(addr uint64, dst *[hashfn.MaxWays]uint64) {
	t.ix.IndexAll(addr, dst)
}

// bucketBase returns the counter offset of (cache, set).
func (t *Tagless) bucketBase(cache int, set uint64) int {
	return (cache*t.sets + int(set)) * t.bucketBits
}

// filterHas reports whether the (cache, set) filter matches addr.
func (t *Tagless) filterHas(cache int, addr uint64) bool {
	base := t.bucketBase(cache, t.set(addr))
	var buf [hashfn.MaxWays]uint64
	t.probeBits(addr, &buf)
	for k := 0; k < t.hashes; k++ {
		if t.counters[base+int(buf[k])] == 0 {
			return false
		}
	}
	return true
}

// filterAdd inserts addr into the (cache, set) filter.
func (t *Tagless) filterAdd(cache int, addr uint64) {
	base := t.bucketBase(cache, t.set(addr))
	var buf [hashfn.MaxWays]uint64
	t.probeBits(addr, &buf)
	for k := 0; k < t.hashes; k++ {
		if t.counters[base+int(buf[k])] == 0xff {
			panic("directory: tagless counter saturated")
		}
		t.counters[base+int(buf[k])]++
	}
}

// filterRemove removes addr from the (cache, set) filter.
func (t *Tagless) filterRemove(cache int, addr uint64) {
	base := t.bucketBase(cache, t.set(addr))
	var buf [hashfn.MaxWays]uint64
	t.probeBits(addr, &buf)
	for k := 0; k < t.hashes; k++ {
		if t.counters[base+int(buf[k])] == 0 {
			panic("directory: tagless counter underflow")
		}
		t.counters[base+int(buf[k])]--
	}
}

// Lookup implements Directory: the mask of caches whose filters hit.
func (t *Tagless) Lookup(addr uint64) (uint64, bool) {
	var m uint64
	for c := 0; c < t.numCaches; c++ {
		if t.filterHas(c, addr) {
			m |= bit(c)
		}
	}
	return m, m != 0
}

// Read implements Directory.
func (t *Tagless) Read(addr uint64, cache int) Op {
	checkCache(cache, t.numCaches)
	m := t.shadow[addr]
	if m&bit(cache) != 0 {
		return Op{}
	}
	t.filterAdd(cache, addr)
	if m == 0 {
		return t.insert(addr, cache)
	}
	t.stats.ReadHit(&m, bit(cache))
	t.shadow[addr] = m
	return Op{}
}

// Write implements Directory. The invalidate mask is computed from the
// FILTERS, so it includes Bloom false positives — exactly the spurious
// traffic the real design pays.
func (t *Tagless) Write(addr uint64, cache int) Op {
	checkCache(cache, t.numCaches)
	positives, _ := t.Lookup(addr)
	inv := positives &^ bit(cache)
	m := t.shadow[addr]
	if m&bit(cache) == 0 {
		t.filterAdd(cache, addr)
	}
	var op Op
	var trueInv uint64
	if m == 0 {
		op = t.insert(addr, cache)
	} else {
		trueInv = t.stats.WriteHit(&m, bit(cache))
		// True holders drop their copies (acknowledged invalidations
		// update the grid).
		for h := trueInv; h != 0; h &= h - 1 {
			t.filterRemove(bits.TrailingZeros64(h), addr)
		}
		t.shadow[addr] = m
	}
	t.SpuriousInvalidations += uint64(bits.OnesCount64(inv &^ trueInv))
	op.Invalidate = inv
	return op
}

// insert starts tracking addr, held by cache alone, once cache's filter
// holds it. Occupancy is sampled after addr counts, as every other
// organization samples it.
func (t *Tagless) insert(addr uint64, cache int) Op {
	t.shadow[addr] = bit(cache)
	t.stats.Inserted(1, len(t.shadow), t.Capacity())
	return Op{Attempts: 1}
}

// Evict implements Directory.
func (t *Tagless) Evict(addr uint64, cache int) {
	checkCache(cache, t.numCaches)
	m, ok := t.shadow[addr]
	if !ok || m&bit(cache) == 0 {
		return
	}
	t.filterRemove(cache, addr)
	if t.stats.EvictHit(&m, bit(cache)) {
		delete(t.shadow, addr)
	} else {
		t.shadow[addr] = m
	}
}

// ForEach implements Directory, iterating the exact shadow (true holders;
// filter-level supersets are visible through Lookup).
func (t *Tagless) ForEach(fn func(addr, sharers uint64) bool) {
	for a, m := range t.shadow {
		if !fn(a, m) {
			return
		}
	}
}

var _ Directory = (*Tagless)(nil)
