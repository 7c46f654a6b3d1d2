package core

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/stats"
)

// Event is one of the five directory event classes of the paper's
// energy methodology (§5.6 footnote: insert 23.5%, add sharer 26.9%,
// remove sharer 24.9%, remove tag 23.5%, invalidate all sharers 1.2%).
type Event uint8

// The event classes, in the order reports print them.
const (
	EvInsertTag Event = iota
	EvAddSharer
	EvRemoveSharer
	EvRemoveTag
	EvInvalidate
	// NumEvents is the number of event classes.
	NumEvents
)

var eventNames = [NumEvents]string{"insert-tag", "add-sharer", "remove-sharer", "remove-tag", "invalidate-sharers"}

// String returns the event's report name, e.g. "insert-tag".
func (e Event) String() string { return eventNames[e] }

// EventCounts counts directory events, one fixed counter per class,
// indexed by Event.
type EventCounts [NumEvents]uint64

// Inc counts one event of class e.
//
//cuckoo:hotpath
func (c *EventCounts) Inc(e Event) { c[e]++ }

// Total returns the number of events of every class.
func (c *EventCounts) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// DirConfig configures a Cuckoo directory slice.
type DirConfig struct {
	// Table is the underlying d-ary cuckoo table geometry.
	Table Config
	// NumCaches is the number of private caches tracked (<= 64; sharer
	// sets are held as bit masks in the functional model — the pluggable
	// compressed formats of internal/sharer govern storage cost, which the
	// energy model accounts separately).
	NumCaches int
}

// Forced describes a directory-initiated eviction: the directory could not
// track the entry any longer, so the listed sharer caches must invalidate
// the block.
type Forced struct {
	Addr    uint64
	Sharers uint64
}

// DirStats aggregates a directory slice's behaviour.
//
//cuckoo:stats merge=Merge
type DirStats struct {
	// Events counts the five directory event classes.
	Events EventCounts
	// Attempts is the per-insertion write-attempt histogram (1..cap),
	// the quantity of Figures 7, 9, 10 and 11.
	Attempts *stats.Histogram
	// ForcedEvictions counts entries the directory discarded on insertion
	// failure; ForcedBlocks counts the cache blocks invalidated as a
	// consequence.
	ForcedEvictions uint64
	ForcedBlocks    uint64
	// OccupancySum/OccupancySamples accumulate occupancy sampled at every
	// insertion, giving the average directory occupancy of Figure 8.
	OccupancySum     float64
	OccupancySamples uint64
}

// NewDirStats returns zeroed statistics sized for the given attempt cap.
func NewDirStats(maxAttempts int) *DirStats {
	return &DirStats{Attempts: stats.NewHistogram(maxAttempts)}
}

// MergeDirStats merges per-slice statistics into one fresh aggregate.
// The aggregate's attempt histogram starts minimal and grows to the
// widest input range (Histogram.Merge), so heterogeneous slices merge
// fine. Call with no arguments for an empty aggregate to Merge into
// incrementally (e.g. under per-slice locks).
func MergeDirStats(stats ...*DirStats) *DirStats {
	agg := NewDirStats(1)
	for _, st := range stats {
		agg.Merge(st)
	}
	return agg
}

// MeanOccupancy returns the average sampled occupancy.
func (s *DirStats) MeanOccupancy() float64 {
	if s.OccupancySamples == 0 {
		return 0
	}
	return s.OccupancySum / float64(s.OccupancySamples)
}

// InvalidationRate returns forced invalidation events as a fraction of
// directory entry insertions — the metric of Figure 12 ("we present the
// invalidation rate as a fraction of directory entry insertions").
func (s *DirStats) InvalidationRate() float64 {
	ins := s.Events[EvInsertTag]
	if ins == 0 {
		return 0
	}
	return float64(s.ForcedEvictions) / float64(ins)
}

// Merge accumulates other into s (used to aggregate per-slice statistics).
func (s *DirStats) Merge(other *DirStats) {
	for e := range s.Events {
		s.Events[e] += other.Events[e]
	}
	s.Attempts.Merge(other.Attempts)
	s.ForcedEvictions += other.ForcedEvictions
	s.ForcedBlocks += other.ForcedBlocks
	s.OccupancySum += other.OccupancySum
	s.OccupancySamples += other.OccupancySamples
}

// The sharer protocol. Every organization keeps one sharer mask per
// tracked block and differs only in where that entry lives, so the
// mask's transitions, and the accounting of an insertion and of a
// forced eviction, are DirStats methods that count their own events. In
// each, bit is the acting cache's sharer bit.

// ReadHit records a read of a tracked block whose sharer mask is *mask:
// the reader joins the sharers.
//
//cuckoo:hotpath
func (s *DirStats) ReadHit(mask *uint64, bit uint64) {
	if *mask&bit == 0 {
		*mask |= bit
		s.Events.Inc(EvAddSharer)
	}
}

// WriteHit records a write of a tracked block whose sharer mask is
// *mask: the writer becomes the only sharer, and the returned mask lists
// the other sharers, which must invalidate their copies. That counts one
// invalidate event; a write that invalidates no one counts an add-sharer
// when the writer was not yet a sharer.
//
//cuckoo:hotpath
func (s *DirStats) WriteHit(mask *uint64, bit uint64) (invalidate uint64) {
	invalidate = *mask &^ bit
	if invalidate != 0 {
		s.Events.Inc(EvInvalidate)
	} else if *mask&bit == 0 {
		s.Events.Inc(EvAddSharer)
	}
	*mask = bit
	return invalidate
}

// EvictHit records that a sharer in *mask evicted the block. It reports
// whether the entry is left without sharers, which counts a remove-tag
// on top of the remove-sharer; the caller then frees the entry.
//
//cuckoo:hotpath
func (s *DirStats) EvictHit(mask *uint64, bit uint64) (empty bool) {
	*mask &^= bit
	s.Events.Inc(EvRemoveSharer)
	if *mask != 0 {
		return false
	}
	s.Events.Inc(EvRemoveTag)
	return true
}

// Inserted records an entry allocated in attempts writes and samples the
// occupancy as n tracked blocks in capacity entries; an unbounded slice
// (capacity 0) takes no sample.
//
//cuckoo:hotpath
func (s *DirStats) Inserted(attempts, n, capacity int) {
	s.Events.Inc(EvInsertTag)
	s.Attempts.Add(attempts)
	if capacity > 0 {
		s.OccupancySum += float64(n) / float64(capacity)
		s.OccupancySamples++
	}
}

// ForcedOut records that the directory discarded the entry tracking addr
// for sharers, and returns the record of it: each sharer must invalidate
// the block.
//
//cuckoo:hotpath
func (s *DirStats) ForcedOut(addr, sharers uint64) Forced {
	s.ForcedEvictions++
	s.ForcedBlocks += uint64(bits.OnesCount64(sharers))
	return Forced{Addr: addr, Sharers: sharers}
}

// Directory is one slice of the distributed Cuckoo directory: a d-ary
// cuckoo table whose entries map a block address to the bit mask of caches
// sharing the block.
type Directory struct {
	t            *Table[uint64]
	numCaches    int
	stats        *DirStats
	lastAttempts int
}

// NewDirectory creates an empty Cuckoo directory slice.
func NewDirectory(cfg DirConfig) *Directory {
	if cfg.NumCaches <= 0 || cfg.NumCaches > 64 {
		panic(fmt.Sprintf("core: NumCaches = %d, need 1..64", cfg.NumCaches))
	}
	t := NewTable[uint64](cfg.Table)
	return &Directory{
		t:         t,
		numCaches: cfg.NumCaches,
		stats:     NewDirStats(t.Config().MaxAttempts),
	}
}

// NumCaches returns the number of caches this slice tracks.
func (d *Directory) NumCaches() int { return d.numCaches }

// Stats returns the slice's statistics (live; callers may read at any
// point).
func (d *Directory) Stats() *DirStats { return d.stats }

// ResetStats zeroes the statistics without touching directory contents —
// used to discard the warm-up phase, mirroring the paper's methodology of
// warming the micro-architectural state before measuring.
func (d *Directory) ResetStats() {
	d.stats = NewDirStats(d.t.Config().MaxAttempts)
}

// Len returns the number of tracked blocks.
func (d *Directory) Len() int { return d.t.Len() }

// Capacity returns the number of entry slots.
func (d *Directory) Capacity() int { return d.t.Capacity() }

// Occupancy returns the current occupancy fraction.
func (d *Directory) Occupancy() float64 { return d.t.Occupancy() }

// Lookup returns the sharer mask for addr.
func (d *Directory) Lookup(addr uint64) (sharers uint64, ok bool) {
	if p := d.t.Find(addr); p != nil {
		return *p, true
	}
	return 0, false
}

// checkCache rejects a cache id the slice does not track. The panic is
// raised out of line (badCache) so Read, Write and Evict carry no
// formatting machinery.
func (d *Directory) checkCache(cache int) {
	if cache < 0 || cache >= d.numCaches {
		badCache(cache, d.numCaches)
	}
}

//
//cuckoo:cold
//go:noinline
func badCache(cache, n int) {
	panic(fmt.Sprintf("core: cache id %d out of range [0,%d)", cache, n))
}

// insert allocates a new entry for addr with the given sharer mask and
// updates statistics. idx holds addr's way indices from the lookup that
// missed, so the insertion neither hashes addr again nor repeats the
// lookup. It returns the forced eviction, if any.
func (d *Directory) insert(addr, mask uint64, idx *[hashfn.MaxWays]uint64) *Forced {
	res := d.t.insertAt(addr, mask, idx)
	d.lastAttempts = res.Attempts
	d.stats.Inserted(res.Attempts, d.t.Len(), d.t.Capacity())
	if res.Evicted != nil {
		f := d.stats.ForcedOut(res.Evicted.Key, res.Evicted.Val)
		return &f
	}
	return nil
}

// LastAttempts returns the insertion write count of the most recent Read
// or Write that allocated an entry (0 when the last operation allocated
// nothing). The timing model uses it to charge insertion occupancy.
//
//cuckoo:hotpath
func (d *Directory) LastAttempts() int { return d.lastAttempts }

// Index puts addr's way indices, which no operation invalidates, in idx
// for a later ReadAt, WriteAt or EvictAt. It starts no line fill: it is
// Prefetch for a table that stays in cache, where a fill hides no wait.
//
//cuckoo:hotpath
func (d *Directory) Index(addr uint64, idx *[hashfn.MaxWays]uint64) {
	d.t.ix.IndexAll(addr, idx)
}

// Prefetch is Index that also starts the line fills of addr's d
// buckets, so a later ReadAt, WriteAt or EvictAt finds them in cache.
//
//cuckoo:hotpath
func (d *Directory) Prefetch(addr uint64, idx *[hashfn.MaxWays]uint64) {
	d.t.prefetch(addr, idx)
}

// TableBytes returns the size of the slice's pair array, the memory its
// probes read.
//
//cuckoo:hotpath
func (d *Directory) TableBytes() int { return d.t.Bytes() }

// Read records a read (fill) of addr by cache: the cache becomes a sharer,
// allocating a directory entry if the block was untracked. The returned
// Forced is non-nil when the allocation displaced an entry out of the
// directory.
//
//cuckoo:hotpath
func (d *Directory) Read(addr uint64, cache int) *Forced {
	var idx [hashfn.MaxWays]uint64
	d.t.ix.IndexAll(addr, &idx)
	return d.ReadAt(addr, cache, &idx)
}

// ReadAt is Read over addr's way indices, as Index or Prefetch left
// them in idx.
//
//cuckoo:hotpath
func (d *Directory) ReadAt(addr uint64, cache int, idx *[hashfn.MaxWays]uint64) *Forced {
	d.checkCache(cache)
	d.lastAttempts = 0
	bit := uint64(1) << uint(cache)
	_, p := d.t.findAt(addr, idx)
	if p == nil && len(d.t.stash) != 0 {
		p = d.t.findStash(addr)
	}
	if p != nil {
		d.stats.ReadHit(p, bit)
		return nil
	}
	return d.insert(addr, bit, idx)
}

// Write records a write (exclusive fill or upgrade) of addr by cache. The
// returned invalidate mask lists the other caches that must invalidate
// their copies; forced is as for Read.
//
//cuckoo:hotpath
func (d *Directory) Write(addr uint64, cache int) (invalidate uint64, forced *Forced) {
	var idx [hashfn.MaxWays]uint64
	d.t.ix.IndexAll(addr, &idx)
	return d.WriteAt(addr, cache, &idx)
}

// WriteAt is Write over addr's way indices, as Index or Prefetch left
// them in idx.
//
//cuckoo:hotpath
func (d *Directory) WriteAt(addr uint64, cache int, idx *[hashfn.MaxWays]uint64) (invalidate uint64, forced *Forced) {
	d.checkCache(cache)
	d.lastAttempts = 0
	bit := uint64(1) << uint(cache)
	_, p := d.t.findAt(addr, idx)
	if p == nil && len(d.t.stash) != 0 {
		p = d.t.findStash(addr)
	}
	if p != nil {
		return d.stats.WriteHit(p, bit), nil
	}
	return 0, d.insert(addr, bit, idx)
}

// Evict records that cache no longer holds addr (clean or dirty eviction;
// the directory treats both alike, §5.2: "dirty and clean evictions from
// the private caches are tracked by the directory"). The entry is freed
// when its last sharer leaves. Unknown addresses are ignored: the block
// may have been forcibly evicted from the directory earlier.
//
//cuckoo:hotpath
func (d *Directory) Evict(addr uint64, cache int) {
	var idx [hashfn.MaxWays]uint64
	d.t.ix.IndexAll(addr, &idx)
	d.EvictAt(addr, cache, &idx)
}

// EvictAt is Evict over addr's way indices, as Index or Prefetch left
// them in idx. When the last sharer leaves it frees the pair its lookup
// found, without probing again.
//
//cuckoo:hotpath
func (d *Directory) EvictAt(addr uint64, cache int, idx *[hashfn.MaxWays]uint64) {
	d.checkCache(cache)
	bit := uint64(1) << uint(cache)
	si, p := d.t.findAt(addr, idx)
	if p == nil && len(d.t.stash) != 0 {
		p = d.t.findStash(addr)
	}
	if p == nil || *p&bit == 0 {
		return
	}
	if !d.stats.EvictHit(p, bit) {
		return
	}
	if si >= 0 {
		d.t.deleteSlot(si)
	} else {
		d.t.deleteStash(addr)
	}
}

// ForEach iterates over tracked (addr, sharer mask) pairs.
func (d *Directory) ForEach(fn func(addr, sharers uint64) bool) {
	d.t.ForEach(func(e Entry[uint64]) bool { return fn(e.Key, e.Val) })
}
