// Package core implements the paper's primary contribution: the d-ary
// Cuckoo hash table (§4.1, Fotakis et al.'s generalization of Pagh and
// Rodler's cuckoo hash) and the Cuckoo coherence directory built on it
// (§4.2).
//
// The table is the hardware structure of Figure 6: W direct-mapped ways,
// each indexed by its own hash function. Lookup probes all ways in
// parallel (modelled as a scan; the energy model accounts for the parallel
// read). Insertion displaces conflicting entries to their alternate ways —
// the property that breaks the transitivity of set conflicts (§4) — with a
// bounded attempt budget; when the budget is exhausted the most recently
// displaced entry is discarded, which for a directory means forcibly
// invalidating the blocks it tracked.
//
// Two extensions discussed in the paper's related work are available for
// ablation studies: bucketized ways (Panigrahy [30], BucketSize > 1) and a
// victim stash (Kirsch et al. [22], StashSize > 0).
package core

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/hashfn"
)

// DefaultMaxAttempts is the insertion write budget used throughout the
// paper's evaluation ("we allow up to 32 insertion attempts to ensure
// termination in the unlikely event of a loop", §5.2).
const DefaultMaxAttempts = 32

// Config describes a d-ary cuckoo table.
type Config struct {
	// Ways is d, the number of direct-mapped ways. The paper evaluates 2-8
	// and selects 3- or 4-way designs. Must be >= 2.
	Ways int
	// SetsPerWay is the number of sets in each way; must be a power of two.
	SetsPerWay int
	// BucketSize is the number of entries per set of each way. 1 is the
	// paper's design; larger values are the Panigrahy ablation. Defaults
	// to 1.
	BucketSize int
	// MaxAttempts bounds the number of entry writes an insertion may
	// perform. Defaults to DefaultMaxAttempts.
	MaxAttempts int
	// Hash is the per-way hash family. Defaults to the Seznec-Bodin
	// skewing family sized for SetsPerWay, matching the paper's final
	// design choice (§5.5).
	Hash hashfn.Family
	// StashSize is the number of overflow entries held in a victim stash
	// CAM. 0 (the default) disables the stash, as the paper concludes the
	// directory "does not benefit from a stash".
	StashSize int
}

// normalize validates cfg and fills defaults.
func (c Config) normalize() Config {
	if c.Ways < 2 {
		panic(fmt.Sprintf("core: Ways = %d, need >= 2", c.Ways))
	}
	if c.SetsPerWay <= 0 || c.SetsPerWay&(c.SetsPerWay-1) != 0 {
		panic(fmt.Sprintf("core: SetsPerWay = %d, need a positive power of two", c.SetsPerWay))
	}
	if c.BucketSize == 0 {
		c.BucketSize = 1
	}
	if c.BucketSize < 0 {
		panic("core: negative BucketSize")
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.MaxAttempts < 1 {
		panic("core: MaxAttempts must be >= 1")
	}
	if c.StashSize < 0 {
		panic("core: negative StashSize")
	}
	if c.Hash == nil {
		c.Hash = defaultSkew(c.SetsPerWay)
	}
	return c
}

// defaultSkew is the default hash family for a table with the given
// per-way set count: the Seznec-Bodin skewing family sized to the index
// width (the paper's final design choice, §5.5).
func defaultSkew(setsPerWay int) hashfn.Family {
	return hashfn.NewSkew(bits.TrailingZeros(uint(setsPerWay)))
}

// Entry is a key/value pair stored in the table.
type Entry[V any] struct {
	Key uint64
	Val V
}

type slot[V any] struct {
	key   uint64
	val   V
	valid bool
}

// pair is one slot of the packed layout: a cuckoo entry's tag stored
// next to its payload, as one hardware directory entry holds both the
// tag and the sharer vector (§4.2, Figure 6). val comes first so that a
// zero-size V adds no trailing padding: a pair[uint64] is 16 bytes and
// a pair[struct{}] is 8, no more than its key and value alone.
type pair[V any] struct {
	val V
	key uint64
}

// packedEmpty is the reserved key sentinel of the packed layout: every
// vacant pair holds it as its key, so the probe hot path decides
// occupancy from the key compare alone. A real key MAY equal the
// sentinel — the live bitset stays authoritative — but probes consult
// the bitset only when the probed key itself is the sentinel, which a
// caller hits with probability 2^-64 per random key.
const packedEmpty uint64 = 0xfeed5eedcafe0b5e

// Result reports the outcome of an Insert.
type Result[V any] struct {
	// Present is true when the key was already in the table; its value was
	// updated and nothing else happened.
	Present bool
	// Attempts is the number of entry writes the insertion performed
	// (1 when a vacant slot was visible during the preceding lookup, the
	// cap when the procedure was terminated). 0 when Present.
	Attempts int
	// Evicted is the entry the table discarded because the attempt budget
	// ran out, or nil. A directory must invalidate the private-cache
	// blocks this entry tracked ("maintaining correctness by invalidating
	// the blocks in the private caches that correspond to the evicted
	// entry", §4.2).
	Evicted *Entry[V]
	// Stashed is true when the would-be evicted entry was parked in the
	// victim stash instead of discarded (only with StashSize > 0).
	Stashed bool
}

// Table is a d-ary cuckoo hash table with uint64 keys.
// It is not safe for concurrent use; each directory slice owns one.
//
// The probe pipeline is devirtualized and allocation-free: the hash
// family is resolved into a concrete hashfn.Indexer once at NewTable,
// and the paper's single-entry-bucket design (BucketSize == 1) runs a
// specialized path that batch-computes all d way-indices per key and
// reuses them across the lookup pass and the displacement loop. The
// unexported find, insertAt and deleteAt let a caller carry the indices
// from a lookup into the insert or delete of the same key, so a
// directory operation hashes its address once.
//
// The fast path stores its entries as one dense array of pairs, each
// a key next to its value (vacant pairs hold the packedEmpty key), plus
// a live bitset that is authoritative for occupancy but read off the
// hot path only (vacancy checks and sentinel-key probes). A
// pair[uint64] is 16 bytes, so four share a 64-byte cache line and none
// straddles two. A d-way lookup therefore reads exactly d cache lines,
// one per probed way, and the value a hit returns sits in the line
// whose key it has just compared, so a directory's sharer-mask update
// writes the line the lookup read. This is the paper's entry, tag and
// sharer vector together, and its "touch d ways, nothing more" cost
// model (§4.2, §5.5). d == 2 additionally takes an open-coded two-way
// case: both way indices via hashfn.Indexer.Index2 and both pairs' keys
// loaded before the first compare. The generic interleaved-slot path is
// kept for the Panigrahy ablation (BucketSize > 1), for way counts
// beyond hashfn.MaxWays, and as the differential-test baseline the
// packed layout is proven op-for-op identical to.
type Table[V any] struct {
	cfg  Config
	mask uint64
	ix   hashfn.Indexer
	// Packed fast-path layout (nil on generic-path tables).
	pairs []pair[V] // dense probe array; vacant pairs hold key packedEmpty
	live  []uint64  // occupancy bitset, 1 bit per slot; authoritative
	// Generic interleaved layout (nil on packed tables).
	slots   []slot[V]
	used    int
	nextWay int
	rot     int // rotating victim-slot choice within a bucket
	stash   []Entry[V]
	// fast selects the specialized single-entry-bucket pipeline
	// (BucketSize == 1 and Ways <= hashfn.MaxWays).
	fast bool
	// two selects the open-coded d=2 probe case within the fast path.
	two bool
	// forceGeneric pins the generic interleaved path on a fast-eligible
	// table; the differential tests use it (via forceGenericPath) to
	// prove the two layouts are operation-for-operation equivalent.
	forceGeneric bool
}

// NewTable creates an empty table from cfg (which is validated and given
// defaults).
func NewTable[V any](cfg Config) *Table[V] {
	cfg = cfg.normalize()
	mask := uint64(cfg.SetsPerWay - 1)
	t := &Table[V]{
		cfg:  cfg,
		mask: mask,
		ix:   hashfn.NewIndexer(cfg.Hash, cfg.Ways, mask),
		fast: cfg.BucketSize == 1 && cfg.Ways <= hashfn.MaxWays,
	}
	if t.fast {
		n := cfg.Ways * cfg.SetsPerWay
		t.pairs = make([]pair[V], n)
		for i := range t.pairs {
			t.pairs[i].key = packedEmpty
		}
		t.live = make([]uint64, (n+63)/64)
		t.two = cfg.Ways == 2
	} else {
		t.slots = make([]slot[V], cfg.Ways*cfg.SetsPerWay*cfg.BucketSize)
	}
	if cfg.StashSize > 0 {
		t.stash = make([]Entry[V], 0, cfg.StashSize)
	}
	return t
}

// forceGenericPath pins the generic interleaved-slot path on a (still
// empty) fast-eligible table and swaps its storage to the slot layout —
// the differential tests' baseline hook.
func (t *Table[V]) forceGenericPath() {
	if t.used != 0 || len(t.stash) != 0 {
		panic("core: forceGenericPath on a non-empty table")
	}
	t.forceGeneric = true
	if t.slots == nil {
		t.slots = make([]slot[V], t.cfg.Ways*t.cfg.SetsPerWay*t.cfg.BucketSize)
	}
	t.pairs, t.live = nil, nil
}

// packed reports whether the table stores entries in the packed pair
// layout.
func (t *Table[V]) packed() bool { return t.pairs != nil }

// liveBit reports slot si's occupancy from the bitset.
func (t *Table[V]) liveBit(si int) bool {
	return t.live[si>>6]&(1<<(uint(si)&63)) != 0
}

// setLive / clearLive flip slot si's occupancy bit.
func (t *Table[V]) setLive(si int)   { t.live[si>>6] |= 1 << (uint(si) & 63) }
func (t *Table[V]) clearLive(si int) { t.live[si>>6] &^= 1 << (uint(si) & 63) }

// occupied reports slot si's occupancy regardless of layout.
func (t *Table[V]) occupied(si int) bool {
	if t.packed() {
		return t.liveBit(si)
	}
	return t.slots[si].valid
}

// Config returns the normalized configuration.
func (t *Table[V]) Config() Config { return t.cfg }

// Capacity returns the number of entry slots (excluding any stash).
func (t *Table[V]) Capacity() int {
	return t.cfg.Ways * t.cfg.SetsPerWay * t.cfg.BucketSize
}

// Len returns the number of valid entries (excluding any stash).
func (t *Table[V]) Len() int { return t.used }

// StashLen returns the number of entries currently parked in the stash.
func (t *Table[V]) StashLen() int { return len(t.stash) }

// Occupancy returns Len/Capacity.
func (t *Table[V]) Occupancy() float64 {
	return float64(t.used) / float64(t.Capacity())
}

// index returns the set index of key in the given way, through the
// devirtualized indexer.
func (t *Table[V]) index(way int, key uint64) int {
	return int(t.ix.Index(way, key))
}

// bucketBase returns the slot offset of (way, set).
func (t *Table[V]) bucketBase(way, set int) int {
	return (way*t.cfg.SetsPerWay + set) * t.cfg.BucketSize
}

// Find returns a pointer to the value stored under key, or nil. The
// pointer is invalidated by any subsequent mutation of the table.
//
//cuckoo:hotpath
func (t *Table[V]) Find(key uint64) *V {
	var idx [hashfn.MaxWays]uint64
	return t.find(key, &idx)
}

// find is Find that leaves key's way indices in idx, so an insertAt or
// deleteAt of the same key that follows it hashes the key no second
// time. Only the packed path computes indices; the generic path neither
// reads nor writes idx.
//
//cuckoo:hotpath
func (t *Table[V]) find(key uint64, idx *[hashfn.MaxWays]uint64) *V {
	if t.fast && !t.forceGeneric {
		if t.two {
			return t.find2(key, idx)
		}
		t.ix.IndexAll(key, idx)
		sets := t.cfg.SetsPerWay
		for w := 0; w < t.cfg.Ways; w++ {
			si := w*sets + int(idx[w])
			if p := &t.pairs[si]; p.key == key && (key != packedEmpty || t.liveBit(si)) {
				return &p.val
			}
		}
		if len(t.stash) != 0 {
			return t.findStash(key)
		}
		return nil
	}
	for w := 0; w < t.cfg.Ways; w++ {
		base := t.bucketBase(w, t.index(w, key))
		for b := 0; b < t.cfg.BucketSize; b++ {
			s := &t.slots[base+b]
			if s.valid && s.key == key {
				return &s.val
			}
		}
	}
	if len(t.stash) != 0 {
		return t.findStash(key)
	}
	return nil
}

// find2 is the open-coded d=2 probe: both way indices computed in one
// Index2 call (and left in idx, as find does) and both pairs' keys
// loaded before the first compare, so the two probe-line reads start
// back to back instead of serializing behind the way-0 branch.
//
//cuckoo:hotpath
func (t *Table[V]) find2(key uint64, idx *[hashfn.MaxWays]uint64) *V {
	i0, i1 := t.ix.Index2(key)
	idx[0], idx[1] = i0, i1
	s0 := int(i0)
	s1 := t.cfg.SetsPerWay + int(i1)
	p0, p1 := &t.pairs[s0], &t.pairs[s1]
	k0, k1 := p0.key, p1.key
	if k0 == key && (key != packedEmpty || t.liveBit(s0)) {
		return &p0.val
	}
	if k1 == key && (key != packedEmpty || t.liveBit(s1)) {
		return &p1.val
	}
	if len(t.stash) != 0 {
		return t.findStash(key)
	}
	return nil
}

// findStash returns a pointer to key's stash entry, or nil. Callers
// skip the call entirely when the stash is empty — a StashSize > 0
// table with nothing parked pays nothing on lookups.
func (t *Table[V]) findStash(key uint64) *V {
	for i := range t.stash {
		if t.stash[i].Key == key {
			return &t.stash[i].Val
		}
	}
	return nil
}

// Contains reports whether key is stored in the table or stash.
func (t *Table[V]) Contains(key uint64) bool { return t.Find(key) != nil }

// Insert stores val under key.
//
// The procedure follows §4.2: a lookup precedes the insertion; if the
// lookup reveals a vacant eligible slot the entry is written there and the
// insertion counts one attempt. Otherwise entries are iteratively
// displaced, starting at the way where the previous insertion stopped and
// advancing cyclically, each write counting one attempt, until a displaced
// entry lands in a vacant slot or the budget is exhausted — in which case
// the most recently displaced entry is discarded (or stashed).
//
//cuckoo:hotpath
func (t *Table[V]) Insert(key uint64, val V) Result[V] {
	var idx [hashfn.MaxWays]uint64
	if t.fast && !t.forceGeneric {
		t.ix.IndexAll(key, &idx)
	}
	return t.insertAt(key, val, &idx)
}

// insertAt is Insert over key's way indices, as find left them in idx
// (the generic path ignores idx).
//
//cuckoo:hotpath
func (t *Table[V]) insertAt(key uint64, val V, idx *[hashfn.MaxWays]uint64) Result[V] {
	if t.fast && !t.forceGeneric {
		return t.insertFast(key, val, idx)
	}
	return t.insertGeneric(key, val)
}

// insertFast is the specialized Insert for the paper's single-entry-
// bucket design over the packed layout: the inserted key's d
// way-indices, computed once by the caller, serve both the lookup pass
// and the first displacement step; a displaced key's next index is
// re-derived from the set it was evicted from (hashfn.Indexer.Reindex),
// and every probe is a key compare against the dense pair array —
// values move only on update or displacement, and the live bitset is
// read only where a probed key word is the vacancy sentinel. It is
// operation-for-operation equivalent to insertGeneric on BucketSize ==
// 1 tables, which the differential tests verify.
//
//cuckoo:hotpath
func (t *Table[V]) insertFast(key uint64, val V, idx *[hashfn.MaxWays]uint64) Result[V] {
	ways, sets := t.cfg.Ways, t.cfg.SetsPerWay

	// Lookup pass: find the key or a vacant slot. Ways are scanned from
	// nextWay so vacancy selection also rotates, keeping the distribution
	// of entries across ways uniform.
	vacantWay, vacantSlot := -1, -1
	w := t.nextWay
	for i := 0; i < ways; i++ {
		si := w*sets + int(idx[w])
		if k := t.pairs[si].key; k == key {
			if key != packedEmpty || t.liveBit(si) {
				t.pairs[si].val = val
				return Result[V]{Present: true}
			}
			// The probed word is the sentinel of a vacant slot (the key
			// under insertion IS the sentinel value).
			if vacantWay == -1 {
				vacantWay, vacantSlot = w, si
			}
		} else if k == packedEmpty && vacantWay == -1 && !t.liveBit(si) {
			vacantWay, vacantSlot = w, si
		}
		if w++; w == ways {
			w = 0
		}
	}
	if len(t.stash) != 0 {
		for i := range t.stash {
			if t.stash[i].Key == key {
				t.stash[i].Val = val
				return Result[V]{Present: true}
			}
		}
	}

	if vacantWay != -1 {
		t.pairs[vacantSlot] = pair[V]{val: val, key: key}
		t.setLive(vacantSlot)
		t.used++
		t.nextWay = vacantWay
		return Result[V]{Attempts: 1}
	}

	// Displacement loop. The lookup pass proved every eligible slot of
	// key occupied, so the first probe (w == nextWay, index idx[w])
	// always swaps; vacancy checks matter only for displaced keys
	// arriving at their alternate way.
	cur := Entry[V]{Key: key, Val: val}
	w = t.nextWay
	set := int(idx[w])
	for attempt := 1; ; attempt++ {
		si := w*sets + set
		p := &t.pairs[si]
		if p.key == packedEmpty && !t.liveBit(si) {
			*p = pair[V]{val: cur.Val, key: cur.Key}
			t.setLive(si)
			t.used++
			t.nextWay = w
			return Result[V]{Attempts: attempt}
		}
		if attempt == t.cfg.MaxAttempts {
			// Budget exhausted: cur is the most recently displaced entry;
			// discard or stash it.
			t.nextWay = w
			if len(t.stash) < cap(t.stash) {
				t.stash = append(t.stash, cur)
				return Result[V]{Attempts: attempt, Stashed: true}
			}
			//cuckoo:ignore the evicted entry escapes by API contract (Result.Evicted is a pointer) and only on the budget-exhausted path
			victim := cur
			return Result[V]{Attempts: attempt, Evicted: &victim}
		}
		// Swap cur with the slot's occupant and continue in the next
		// way; the occupant sat at (w, set), which Reindex inverts.
		cur.Key, p.key = p.key, cur.Key
		cur.Val, p.val = p.val, cur.Val
		from := w
		if w++; w == ways {
			w = 0
		}
		set = int(t.ix.Reindex(cur.Key, from, uint64(set), w))
	}
}

// insertGeneric is the bucketized insertion procedure, kept for the
// Panigrahy ablation (BucketSize > 1) and for way counts beyond the
// batch indexer's width.
func (t *Table[V]) insertGeneric(key uint64, val V) Result[V] {
	ways := t.cfg.Ways
	// Lookup pass, as in insertFast.
	vacantWay, vacantSlot := -1, -1
	w := t.nextWay
	for i := 0; i < ways; i++ {
		base := t.bucketBase(w, t.index(w, key))
		for b := 0; b < t.cfg.BucketSize; b++ {
			s := &t.slots[base+b]
			if s.valid && s.key == key {
				s.val = val
				return Result[V]{Present: true}
			}
			if !s.valid && vacantWay == -1 {
				vacantWay, vacantSlot = w, base+b
			}
		}
		if w++; w == ways {
			w = 0
		}
	}
	for i := range t.stash {
		if t.stash[i].Key == key {
			t.stash[i].Val = val
			return Result[V]{Present: true}
		}
	}

	if vacantWay != -1 {
		t.slots[vacantSlot] = slot[V]{key: key, val: val, valid: true}
		t.used++
		t.nextWay = vacantWay
		return Result[V]{Attempts: 1}
	}

	// Displacement loop.
	cur := Entry[V]{Key: key, Val: val}
	w = t.nextWay
	for attempt := 1; attempt <= t.cfg.MaxAttempts; attempt++ {
		base := t.bucketBase(w, t.index(w, cur.Key))
		// A displaced entry may find a vacancy in its new bucket.
		placed := false
		for b := 0; b < t.cfg.BucketSize; b++ {
			s := &t.slots[base+b]
			if !s.valid {
				*s = slot[V]{key: cur.Key, val: cur.Val, valid: true}
				t.used++
				t.nextWay = w
				placed = true
				break
			}
		}
		if placed {
			return Result[V]{Attempts: attempt}
		}
		if attempt == t.cfg.MaxAttempts {
			// Budget exhausted: cur is the most recently displaced entry;
			// discard or stash it.
			t.nextWay = w
			if len(t.stash) < cap(t.stash) {
				t.stash = append(t.stash, cur)
				return Result[V]{Attempts: attempt, Stashed: true}
			}
			victim := cur
			return Result[V]{Attempts: attempt, Evicted: &victim}
		}
		// Swap cur with a victim from the bucket (rotating choice when
		// buckets hold more than one entry) and continue in the next way.
		vs := &t.slots[base+t.rot%t.cfg.BucketSize]
		t.rot++
		cur, vs.key, vs.val = Entry[V]{Key: vs.key, Val: vs.val}, cur.Key, cur.Val
		if w++; w == ways {
			w = 0
		}
	}
	panic("core: unreachable")
}

// Delete removes key from the table (or stash) and reports whether it was
// present. When the delete frees a slot and the stash holds entries, one
// stash entry eligible for the freed position is opportunistically moved
// back into the table.
//
//cuckoo:hotpath
func (t *Table[V]) Delete(key uint64) bool {
	var idx [hashfn.MaxWays]uint64
	if t.fast && !t.forceGeneric {
		t.ix.IndexAll(key, &idx)
	}
	return t.deleteAt(key, &idx)
}

// deleteAt is Delete over key's way indices, as find left them in idx
// (the generic path ignores idx).
//
//cuckoo:hotpath
func (t *Table[V]) deleteAt(key uint64, idx *[hashfn.MaxWays]uint64) bool {
	if t.fast && !t.forceGeneric {
		sets := t.cfg.SetsPerWay
		for w := 0; w < t.cfg.Ways; w++ {
			si := w*sets + int(idx[w])
			if t.pairs[si].key == key && (key != packedEmpty || t.liveBit(si)) {
				t.pairs[si] = pair[V]{key: packedEmpty}
				t.clearLive(si)
				t.used--
				if len(t.stash) != 0 {
					t.drainStashInto(si)
				}
				return true
			}
		}
		if len(t.stash) != 0 {
			return t.deleteStash(key)
		}
		return false
	}
	for w := 0; w < t.cfg.Ways; w++ {
		base := t.bucketBase(w, t.index(w, key))
		for b := 0; b < t.cfg.BucketSize; b++ {
			s := &t.slots[base+b]
			if s.valid && s.key == key {
				var zero slot[V]
				*s = zero
				t.used--
				if len(t.stash) != 0 {
					t.drainStashInto(base + b)
				}
				return true
			}
		}
	}
	if len(t.stash) != 0 {
		return t.deleteStash(key)
	}
	return false
}

// deleteStash removes key's stash entry, if any.
func (t *Table[V]) deleteStash(key uint64) bool {
	for i := range t.stash {
		if t.stash[i].Key == key {
			t.stash[i] = t.stash[len(t.stash)-1]
			t.stash = t.stash[:len(t.stash)-1]
			return true
		}
	}
	return false
}

// drainStashInto moves the first stash entry that hashes to the freed slot
// back into the table. slotIdx identifies the freed slot.
func (t *Table[V]) drainStashInto(slotIdx int) {
	if len(t.stash) == 0 {
		return
	}
	way := slotIdx / (t.cfg.SetsPerWay * t.cfg.BucketSize)
	set := (slotIdx / t.cfg.BucketSize) % t.cfg.SetsPerWay
	for i := range t.stash {
		if t.index(way, t.stash[i].Key) == set {
			if t.packed() {
				t.pairs[slotIdx] = pair[V]{val: t.stash[i].Val, key: t.stash[i].Key}
				t.setLive(slotIdx)
			} else {
				t.slots[slotIdx] = slot[V]{key: t.stash[i].Key, val: t.stash[i].Val, valid: true}
			}
			t.used++
			t.stash[i] = t.stash[len(t.stash)-1]
			t.stash = t.stash[:len(t.stash)-1]
			return
		}
	}
}

// ForEach calls fn for every entry (table then stash) until fn returns
// false. Iteration order is unspecified but deterministic.
func (t *Table[V]) ForEach(fn func(Entry[V]) bool) {
	if t.packed() {
		for i := range t.pairs {
			if p := &t.pairs[i]; p.key != packedEmpty || t.liveBit(i) {
				if !fn(Entry[V]{Key: p.key, Val: p.val}) {
					return
				}
			}
		}
	} else {
		for i := range t.slots {
			if t.slots[i].valid {
				if !fn(Entry[V]{Key: t.slots[i].key, Val: t.slots[i].val}) {
					return
				}
			}
		}
	}
	for _, e := range t.stash {
		if !fn(e) {
			return
		}
	}
}

// Clear removes all entries.
func (t *Table[V]) Clear() {
	if t.packed() {
		for i := range t.pairs {
			t.pairs[i] = pair[V]{key: packedEmpty}
		}
		for i := range t.live {
			t.live[i] = 0
		}
	} else {
		for i := range t.slots {
			var zero slot[V]
			t.slots[i] = zero
		}
	}
	t.stash = t.stash[:0]
	t.used = 0
	t.nextWay = 0
	t.rot = 0
}
