// Package core implements the paper's primary contribution: the d-ary
// Cuckoo hash table (§4.1, Fotakis et al.'s generalization of Pagh and
// Rodler's cuckoo hash) and the Cuckoo coherence directory built on it
// (§4.2).
//
// The table is the hardware structure of Figure 6: W direct-mapped ways,
// each indexed by its own hash function; an entry holds a tag beside its
// sharer vector. Lookup probes all ways in parallel (batched applies
// overlap successive lookups' line fills; the energy model accounts for
// the parallel read). Insertion displaces conflicting entries to their
// alternate ways — the property that breaks the transitivity of set
// conflicts (§4) — with a bounded attempt budget; when the budget is
// exhausted the most recently displaced entry is discarded, which for a
// directory means forcibly invalidating the blocks it tracked.
//
// Two extensions discussed in the paper's related work are available for
// ablation studies: bucketized ways (Panigrahy [30], BucketSize > 1) and a
// victim stash (Kirsch et al. [22], StashSize > 0). Both run on the same
// layout and probe code as the paper's design.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"unsafe"

	"cuckoodir/internal/hashfn"
)

// DefaultMaxAttempts is the insertion write budget used throughout the
// paper's evaluation ("we allow up to 32 insertion attempts to ensure
// termination in the unlikely event of a loop", §5.2).
const DefaultMaxAttempts = 32

// Config describes a d-ary cuckoo table.
type Config struct {
	// Ways is d, the number of direct-mapped ways. The paper evaluates 2-8
	// and selects 3- or 4-way designs. Must be in 2..hashfn.MaxWays.
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

// Validate reports the first constraint c violates, or nil. Zero
// BucketSize, MaxAttempts and Hash are valid: they select the defaults.
func (c Config) Validate() error {
	switch {
	case c.Ways < 2 || c.Ways > hashfn.MaxWays:
		return fmt.Errorf("core: Ways = %d, need 2..%d", c.Ways, hashfn.MaxWays)
	case c.SetsPerWay <= 0 || c.SetsPerWay&(c.SetsPerWay-1) != 0:
		return fmt.Errorf("core: SetsPerWay = %d, need a positive power of two", c.SetsPerWay)
	case c.BucketSize < 0:
		return errors.New("core: negative BucketSize")
	case c.MaxAttempts < 0:
		return errors.New("core: MaxAttempts must be >= 1")
	case c.StashSize < 0:
		return errors.New("core: negative StashSize")
	}
	return nil
}

// normalize fills cfg's defaults; it panics when cfg is invalid.
func (c Config) normalize() Config {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	if c.BucketSize == 0 {
		c.BucketSize = 1
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
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

// pair is one table entry: a cuckoo entry's tag stored next to its
// payload, as one hardware directory entry holds both the tag and the
// sharer vector (§4.2, Figure 6). val comes first so that a zero-size V
// adds no trailing padding: a pair[uint64] is 16 bytes and a
// pair[struct{}] is 8, no more than its key and value alone.
type pair[V any] struct {
	val V
	key uint64
}

// packedEmpty is the reserved key sentinel: every vacant pair holds it
// as its key, so the probe hot path decides occupancy from the key
// compare alone. A real key MAY equal the sentinel — the live bitset
// stays authoritative — but probes consult the bitset only when the
// probed key itself is the sentinel, which a caller hits with
// probability 2^-64 per random key.
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
// which computes all d way-indices of a key in one batch. The
// unexported findAt, insertAt and deleteAt take those indices from the
// caller, so a directory operation hashes its address once — and a
// batched one hashes it ahead of time (Directory.Index and Prefetch);
// a key displaced during an insertion gets its next index from the set
// it left (hashfn.Indexer.Reindex). findAt is the only probe: an
// insertion builds on the lookup that missed, and a directory evict
// frees the pair its lookup found (deleteSlot).
//
// Entries live in one dense array of pairs, each a key next to its
// value (vacant pairs hold the packedEmpty key), plus a live bitset that
// is authoritative for occupancy but read off the hot path only
// (vacancy checks and sentinel-key probes). The bucket of set s in way
// w is the BucketSize consecutive pairs at (w*SetsPerWay+s)*BucketSize,
// for the paper's single-entry design and the Panigrahy ablation alike.
// A pair[uint64] is 16 bytes, so four share a 64-byte cache line and
// none straddles two: a lookup with BucketSize <= 4 reads one line per
// probed way when its bucket is line-aligned, and the value a hit
// returns sits in the line whose key it has just compared, so a
// directory's sharer-mask update writes the line the lookup read. This
// is the paper's entry, tag and sharer vector together, and its "touch d
// ways, nothing more" cost model (§4.2, §5.5).
type Table[V any] struct {
	cfg     Config
	ix      hashfn.Indexer
	pairs   []pair[V] // buckets in (way, set) order; vacant pairs hold key packedEmpty
	live    []uint64  // occupancy bitset, 1 bit per pair; authoritative
	used    int
	nextWay int
	rot     int // victim pair within a full bucket, 0..BucketSize-1
	stash   []Entry[V]
}

// NewTable creates an empty table from cfg (which is validated and given
// defaults). It panics on a config Validate rejects.
func NewTable[V any](cfg Config) *Table[V] {
	cfg = cfg.normalize()
	n := cfg.Ways * cfg.SetsPerWay * cfg.BucketSize
	t := &Table[V]{
		cfg:   cfg,
		ix:    hashfn.NewIndexer(cfg.Hash, cfg.Ways, uint64(cfg.SetsPerWay-1)),
		pairs: make([]pair[V], n),
		live:  make([]uint64, (n+63)/64),
	}
	for i := range t.pairs {
		t.pairs[i].key = packedEmpty
	}
	if cfg.StashSize > 0 {
		t.stash = make([]Entry[V], 0, cfg.StashSize)
	}
	return t
}

// liveBit reports pair si's occupancy from the bitset.
func (t *Table[V]) liveBit(si int) bool {
	return t.live[si>>6]&(1<<(uint(si)&63)) != 0
}

// setLive / clearLive flip pair si's occupancy bit.
func (t *Table[V]) setLive(si int)   { t.live[si>>6] |= 1 << (uint(si) & 63) }
func (t *Table[V]) clearLive(si int) { t.live[si>>6] &^= 1 << (uint(si) & 63) }

// vacant reports whether pair si is free.
func (t *Table[V]) vacant(si int) bool {
	return t.pairs[si].key == packedEmpty && !t.liveBit(si)
}

// Config returns the normalized configuration.
func (t *Table[V]) Config() Config { return t.cfg }

// Capacity returns the number of entry slots (excluding any stash).
func (t *Table[V]) Capacity() int { return len(t.pairs) }

// Bytes returns the size of the pair array, the memory probes read.
//
//cuckoo:hotpath
func (t *Table[V]) Bytes() int { return len(t.pairs) * int(unsafe.Sizeof(pair[V]{})) }

// Len returns the number of valid entries (excluding any stash).
func (t *Table[V]) Len() int { return t.used }

// StashLen returns the number of entries currently parked in the stash.
func (t *Table[V]) StashLen() int { return len(t.stash) }

// Occupancy returns Len/Capacity.
func (t *Table[V]) Occupancy() float64 {
	return float64(t.used) / float64(t.Capacity())
}

// bucketBase returns the index of the first pair of (way, set).
func (t *Table[V]) bucketBase(way, set int) int {
	return (way*t.cfg.SetsPerWay + set) * t.cfg.BucketSize
}

// Find returns a pointer to the value stored under key, or nil. The
// pointer is invalidated by any subsequent mutation of the table.
//
//cuckoo:hotpath
func (t *Table[V]) Find(key uint64) *V {
	var idx [hashfn.MaxWays]uint64
	t.ix.IndexAll(key, &idx)
	_, p := t.findAt(key, &idx)
	if p == nil && len(t.stash) != 0 {
		p = t.findStash(key)
	}
	return p
}

// findAt is the table's one probe: it returns the index of the pair
// that holds key among the buckets key's way indices in idx name (from
// IndexAll), and a pointer to its value, or -1 and nil. It does not
// look in the stash; that is the caller's fallback. An insertAt or
// deleteSlot of the same key builds on its result instead of probing
// again. The pointer comes back with the index so that a hit's caller
// need not re-derive it after the call.
//
// Every probed pair is compared, with no early exit: keys are unique,
// so at most one matches, and the match is kept with a conditional
// move, so a hit pays no mispredicted branch on the way it sits in.
// Only the sentinel key, which vacant pairs also hold, needs the live
// bitset, and it takes findSentinel.
//
//cuckoo:hotpath
func (t *Table[V]) findAt(key uint64, idx *[hashfn.MaxWays]uint64) (int, *V) {
	if key == packedEmpty {
		return t.findSentinel(idx)
	}
	hit := -1
	for w := 0; w < t.cfg.Ways; w++ {
		si := t.bucketBase(w, int(idx[w]))
		for end := si + t.cfg.BucketSize; si < end; si++ {
			if t.pairs[si].key == key {
				hit = si
			}
		}
	}
	if hit < 0 {
		return -1, nil
	}
	return hit, &t.pairs[hit].val
}

// findSentinel is findAt for the sentinel key: a pair holding it is an
// entry only when its live bit is set.
func (t *Table[V]) findSentinel(idx *[hashfn.MaxWays]uint64) (int, *V) {
	for w := 0; w < t.cfg.Ways; w++ {
		si := t.bucketBase(w, int(idx[w]))
		for end := si + t.cfg.BucketSize; si < end; si++ {
			if t.pairs[si].key == packedEmpty && t.liveBit(si) {
				return si, &t.pairs[si].val
			}
		}
	}
	return -1, nil
}

// prefetch computes key's way indices into idx and starts the fill of
// each bucket's first line, four ways per prefetch4 (lanes past the last
// way repeat it). A prefetch is only a hint: results are the same without.
//
//cuckoo:hotpath
func (t *Table[V]) prefetch(key uint64, idx *[hashfn.MaxWays]uint64) {
	t.ix.IndexAll(key, idx)
	last := t.cfg.Ways - 1
	for w := 0; w <= last; w += 4 {
		prefetch4(t.bucket(w, idx), t.bucket(min(w+1, last), idx),
			t.bucket(min(w+2, last), idx), t.bucket(min(w+3, last), idx))
	}
}

func (t *Table[V]) bucket(w int, idx *[hashfn.MaxWays]uint64) unsafe.Pointer {
	return unsafe.Pointer(&t.pairs[t.bucketBase(w, int(idx[w]))])
}

// findStash returns a pointer to key's stash entry, or nil. Callers
// skip the call entirely when the stash is empty — a StashSize > 0
// table with nothing parked pays nothing on lookups. It stays out of
// line: inlined into Directory.ReadAt and WriteAt, its loop grows the
// hit path that every access takes, for a fallback only a non-empty
// stash reaches.
//
//go:noinline
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
// key is present its value is updated. Otherwise, if one of the key's
// buckets has a vacant slot the entry is written there and the
// insertion counts one attempt. Otherwise entries are iteratively
// displaced, starting at the way where the previous insertion stopped and
// advancing cyclically, each write counting one attempt, until a displaced
// entry lands in a vacant slot or the budget is exhausted — in which case
// the most recently displaced entry is discarded (or stashed).
//
//cuckoo:hotpath
func (t *Table[V]) Insert(key uint64, val V) Result[V] {
	var idx [hashfn.MaxWays]uint64
	t.ix.IndexAll(key, &idx)
	_, p := t.findAt(key, &idx)
	if p == nil && len(t.stash) != 0 {
		p = t.findStash(key)
	}
	if p != nil {
		*p = val
		return Result[V]{Present: true}
	}
	return t.insertAt(key, val, &idx)
}

// insertAt inserts key, which the caller's lookup over the same way
// indices in idx has just missed in the table and the stash: the
// insertion builds on that lookup instead of repeating it. Its first
// pass only looks for a vacancy, and the displacement loop starts in a
// bucket that pass found full. A vacancy test reads the pair's key word,
// and the live bitset only where that word is the sentinel.
//
//cuckoo:hotpath
func (t *Table[V]) insertAt(key uint64, val V, idx *[hashfn.MaxWays]uint64) Result[V] {
	ways, bs := t.cfg.Ways, t.cfg.BucketSize

	// Vacancy pass. Ways are scanned from nextWay so vacancy selection
	// also rotates, keeping the distribution of entries across ways
	// uniform.
	w := t.nextWay
	for i := 0; i < ways; i++ {
		si := t.bucketBase(w, int(idx[w]))
		for end := si + bs; si < end; si++ {
			if t.vacant(si) {
				t.pairs[si] = pair[V]{val: val, key: key}
				t.setLive(si)
				t.used++
				t.nextWay = w
				return Result[V]{Attempts: 1}
			}
		}
		if w++; w == ways {
			w = 0
		}
	}

	// Displacement loop. The vacancy pass proved every bucket of key
	// full, so the first step (w == nextWay, index idx[w]) swaps
	// without a vacancy check; the check matters only for displaced
	// keys arriving at their alternate way.
	cur := Entry[V]{Key: key, Val: val}
	w = t.nextWay
	set := int(idx[w])
	for attempt := 1; ; attempt++ {
		base := t.bucketBase(w, set)
		if attempt > 1 {
			for si := base; si < base+bs; si++ {
				if t.vacant(si) {
					t.pairs[si] = pair[V]{val: cur.Val, key: cur.Key}
					t.setLive(si)
					t.used++
					t.nextWay = w
					return Result[V]{Attempts: attempt}
				}
			}
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
		// Swap cur with the bucket's victim (a rotating choice when
		// buckets hold more than one entry) and continue in the next
		// way; the victim sat at (w, set), which Reindex inverts.
		p := &t.pairs[base+t.rot]
		if t.rot++; t.rot == bs {
			t.rot = 0
		}
		cur.Key, p.key = p.key, cur.Key
		cur.Val, p.val = p.val, cur.Val
		from := w
		if w++; w == ways {
			w = 0
		}
		set = int(t.ix.Reindex(cur.Key, from, uint64(set), w))
	}
}

// Delete removes key from the table (or stash) and reports whether it was
// present. When the delete frees a slot and the stash holds entries, one
// stash entry eligible for the freed position is opportunistically moved
// back into the table.
//
//cuckoo:hotpath
func (t *Table[V]) Delete(key uint64) bool {
	var idx [hashfn.MaxWays]uint64
	t.ix.IndexAll(key, &idx)
	return t.deleteAt(key, &idx)
}

// deleteAt is Delete over key's way indices in idx, from IndexAll.
//
//cuckoo:hotpath
func (t *Table[V]) deleteAt(key uint64, idx *[hashfn.MaxWays]uint64) bool {
	if si, _ := t.findAt(key, idx); si >= 0 {
		t.deleteSlot(si)
		return true
	}
	if len(t.stash) != 0 {
		return t.deleteStash(key)
	}
	return false
}

// deleteSlot frees pair si, which a lookup found, and moves one stash
// entry eligible for the freed position back into the table.
//
//cuckoo:hotpath
func (t *Table[V]) deleteSlot(si int) {
	t.pairs[si] = pair[V]{key: packedEmpty}
	t.clearLive(si)
	t.used--
	if len(t.stash) != 0 {
		t.drainStashInto(si)
	}
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

// drainStashInto moves the first stash entry that hashes to the freed
// pair si back into the table.
func (t *Table[V]) drainStashInto(si int) {
	way := si / (t.cfg.SetsPerWay * t.cfg.BucketSize)
	set := uint64(si/t.cfg.BucketSize) % uint64(t.cfg.SetsPerWay)
	for i, e := range t.stash {
		if t.ix.Index(way, e.Key) == set {
			t.pairs[si] = pair[V]{val: e.Val, key: e.Key}
			t.setLive(si)
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
	for i := range t.pairs {
		if p := &t.pairs[i]; p.key != packedEmpty || t.liveBit(i) {
			if !fn(Entry[V]{Key: p.key, Val: p.val}) {
				return
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
	for i := range t.pairs {
		t.pairs[i] = pair[V]{key: packedEmpty}
	}
	clear(t.live)
	t.stash = t.stash[:0]
	t.used = 0
	t.nextWay = 0
	t.rot = 0
}
