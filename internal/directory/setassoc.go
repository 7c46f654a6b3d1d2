package directory

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/core"
	"cuckoodir/internal/hashfn"
)

// setAssoc implements the classic Sparse, the skewed-associative and the
// Elbow directories; they differ only in how ways are indexed and in
// whether an insertion may displace an entry:
//
//   - Sparse (Gupta et al. [17], §3.2): every way uses the same low-order
//     index bits, so a set is A physically adjacent slots and conflicts
//     are transitive. On overflow the LRU entry of the set is evicted,
//     forcing invalidation of the cached blocks it tracked.
//   - Skewed (Seznec [33], §5.4's "Skewed 2x"): each way has its own
//     Seznec-Bodin hash, which breaks much of the conflict transitivity,
//     but — unlike the Cuckoo directory — insertion still picks a victim
//     from the A candidate slots rather than displacing entries to their
//     alternate locations. Victims are the LRU candidate.
//   - Elbow (Spjuth, Karlsson and Hagersten, §6): Skewed plus at most one
//     displacement. When every candidate slot is taken, the first
//     candidate with a vacant slot in another way moves there and the
//     new entry takes its place, in two writes; only when no candidate
//     can move is the LRU candidate evicted. The paper places it between
//     Skewed and Cuckoo: "the Elbow cache is limited to one displacement
//     per insertion and requires multiple lookups to select a
//     displacement victim, resulting in a complex and power-hungry design
//     that experiences more forced invalidations than the Cuckoo
//     directory." The ablation experiment's displacement table measures
//     that ordering.
type setAssoc struct {
	name string
	ways int
	sets int
	// elbow lets an insertion displace one entry before it evicts.
	elbow bool
	// ix is the devirtualized per-way index pipeline, resolved once from
	// the organization's hash family (see internal/hashfn.Indexer) — the
	// same probing idiom the cuckoo table's hot path uses.
	ix        hashfn.Indexer
	slots     []saEntry
	used      int
	lruClock  uint64
	numCaches int
	stats     *Stats
}

type saEntry struct {
	addr    uint64
	sharers uint64
	lru     uint64
	valid   bool
}

// NewSparse builds a classic Sparse directory slice with the given
// associativity and set count (capacity = ways*sets).
func NewSparse(ways, sets, numCaches int) Directory {
	return newSetAssoc("sparse", ways, sets, numCaches, hashfn.XorFold{}, false)
}

// NewSkewed builds a skewed-associative directory slice.
func NewSkewed(ways, sets, numCaches int) Directory {
	return newSetAssoc("skewed", ways, sets, numCaches,
		hashfn.NewSkew(bits.TrailingZeros(uint(sets))), false)
}

// NewElbow builds an Elbow directory slice: a skewed slice whose
// insertions may displace one entry. It needs at least two ways, so that
// a displaced entry has somewhere to go.
func NewElbow(ways, sets, numCaches int) Directory {
	if ways < 2 {
		panic(fmt.Sprintf("directory: Elbow ways = %d, need >= 2", ways))
	}
	return newSetAssoc("elbow", ways, sets, numCaches,
		hashfn.NewSkew(bits.TrailingZeros(uint(sets))), true)
}

func newSetAssoc(name string, ways, sets, numCaches int, h hashfn.Family, elbow bool) *setAssoc {
	if ways <= 0 {
		panic(fmt.Sprintf("directory: ways = %d", ways))
	}
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("directory: sets = %d, need a power of two", sets))
	}
	if numCaches <= 0 || numCaches > 64 {
		panic(fmt.Sprintf("directory: numCaches = %d", numCaches))
	}
	s := &setAssoc{
		name:      name,
		ways:      ways,
		sets:      sets,
		elbow:     elbow,
		ix:        hashfn.NewIndexer(h, ways, uint64(sets-1)),
		slots:     make([]saEntry, ways*sets),
		numCaches: numCaches,
	}
	s.ResetStats()
	return s
}

// Name implements Directory.
func (s *setAssoc) Name() string { return s.name }

// NumCaches implements Directory.
func (s *setAssoc) NumCaches() int { return s.numCaches }

// Capacity implements Directory.
func (s *setAssoc) Capacity() int { return s.ways * s.sets }

// Len implements Directory.
func (s *setAssoc) Len() int { return s.used }

// Stats implements Directory.
func (s *setAssoc) Stats() *Stats { return s.stats }

// ResetStats implements Directory. An Elbow insertion makes up to two
// writes, so its attempt histogram reaches 2.
func (s *setAssoc) ResetStats() {
	if s.elbow {
		s.stats = core.NewDirStats(2)
	} else {
		s.stats = core.NewDirStats(1)
	}
}

// slotIdx returns the slot of (way, addr).
func (s *setAssoc) slotIdx(way int, addr uint64) int {
	return way*s.sets + int(s.ix.Index(way, addr))
}

// find returns the entry tracking addr, or nil. The candidate slots of
// all ways are batch-indexed in one pass when the way count allows.
func (s *setAssoc) find(addr uint64) *saEntry {
	if s.ix.Batched() {
		var idx [hashfn.MaxWays]uint64
		s.ix.IndexAll(addr, &idx)
		for w := 0; w < s.ways; w++ {
			e := &s.slots[w*s.sets+int(idx[w])]
			if e.valid && e.addr == addr {
				return e
			}
		}
		return nil
	}
	for w := 0; w < s.ways; w++ {
		e := &s.slots[s.slotIdx(w, addr)]
		if e.valid && e.addr == addr {
			return e
		}
	}
	return nil
}

// Lookup implements Directory.
func (s *setAssoc) Lookup(addr uint64) (uint64, bool) {
	if e := s.find(addr); e != nil {
		return e.sharers, true
	}
	return 0, false
}

// ForEach implements Directory.
func (s *setAssoc) ForEach(fn func(addr, sharers uint64) bool) {
	for i := range s.slots {
		if s.slots[i].valid {
			if !fn(s.slots[i].addr, s.slots[i].sharers) {
				return
			}
		}
	}
}

// touch updates the entry's LRU stamp.
func (s *setAssoc) touch(e *saEntry) {
	s.lruClock++
	e.lru = s.lruClock
}

// insert allocates an entry for addr holding sharers. A vacant candidate
// slot takes it in one write; when every candidate is taken, an Elbow
// slice first tries its one displacement, and otherwise the LRU
// candidate is evicted. The Op carries the writes made and the forced
// eviction, if any.
func (s *setAssoc) insert(addr, sharers uint64) Op {
	// Insertions are far rarer than lookups (one per allocated entry),
	// so a single per-way indexed loop beats duplicating the victim
	// policy across batched/unbatched variants.
	var victim *saEntry
	for w := 0; w < s.ways; w++ {
		e := &s.slots[s.slotIdx(w, addr)]
		if !e.valid {
			victim = e
			break
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	op := Op{Attempts: 1}
	if victim.valid && s.elbow {
		if e := s.displace(addr); e != nil {
			victim, op.Attempts = e, 2
		}
	}
	if victim.valid {
		op.Forced = append(op.Forced, s.stats.ForcedOut(victim.addr, victim.sharers))
		s.used--
	}
	*victim = saEntry{addr: addr, sharers: sharers, valid: true}
	s.touch(victim)
	s.used++
	s.stats.Inserted(op.Attempts, s.used, s.Capacity())
	return op
}

// displace makes Elbow's one move for addr, whose candidate slots are
// all taken: the first candidate, in way order, whose slot in another
// way is vacant moves there, keeping its LRU stamp. It returns the slot
// the move freed, or nil when no candidate can move.
func (s *setAssoc) displace(addr uint64) *saEntry {
	for w := 0; w < s.ways; w++ {
		e := &s.slots[s.slotIdx(w, addr)]
		for w2 := 0; w2 < s.ways; w2++ {
			// In way w, e's own slot is alt, which is taken.
			if alt := &s.slots[s.slotIdx(w2, e.addr)]; !alt.valid {
				*alt = *e
				e.valid = false
				return e
			}
		}
	}
	return nil
}

// Read implements Directory.
func (s *setAssoc) Read(addr uint64, cache int) Op {
	checkCache(cache, s.numCaches)
	if e := s.find(addr); e != nil {
		s.stats.ReadHit(&e.sharers, bit(cache))
		s.touch(e)
		return Op{}
	}
	return s.insert(addr, bit(cache))
}

// Write implements Directory.
func (s *setAssoc) Write(addr uint64, cache int) Op {
	checkCache(cache, s.numCaches)
	if e := s.find(addr); e != nil {
		inv := s.stats.WriteHit(&e.sharers, bit(cache))
		s.touch(e)
		return Op{Invalidate: inv}
	}
	return s.insert(addr, bit(cache))
}

// Evict implements Directory.
func (s *setAssoc) Evict(addr uint64, cache int) {
	checkCache(cache, s.numCaches)
	e := s.find(addr)
	if e == nil || e.sharers&bit(cache) == 0 {
		return
	}
	if s.stats.EvictHit(&e.sharers, bit(cache)) {
		e.valid = false
		s.used--
	}
}

var _ Directory = (*setAssoc)(nil)
