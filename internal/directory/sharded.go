package directory

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"cuckoodir/internal/core"
	"cuckoodir/internal/hashfn"
)

// AccessKind discriminates the three directory operations in a batched
// Access stream.
type AccessKind uint8

// Access kinds.
const (
	// AccessRead is a read fill (Directory.Read).
	AccessRead AccessKind = iota
	// AccessWrite is a write fill/upgrade (Directory.Write).
	AccessWrite
	// AccessEvict is a cache eviction (Directory.Evict).
	AccessEvict
)

// String names the kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessEvict:
		return "evict"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Access is one directory operation in a batch.
type Access struct {
	Kind  AccessKind
	Addr  uint64
	Cache int
}

// Home selects the shard-homing function of a ShardedDirectory — how a
// block address chooses its shard. The choice models directory placement
// policies (the opaque-distributed-directory study of Kommrusch et al.):
// homing interacts with each organization's own set indexing, so the same
// aggregate capacity can behave very differently under different home
// functions.
type Home uint8

// Home functions.
const (
	// HomeMix (the default) multiplies the address by a 64-bit mixing
	// constant and takes high product bits, decorrelating shard choice
	// from the low address bits the slices index their sets with.
	HomeMix Home = iota
	// HomeInterleave takes the low address bits directly — the classic
	// static block interleaving of the paper's Figure 2 (and of the
	// simulators' home-slice selection). Sparse, Tagless and
	// Duplicate-Tag slices index their sets with those same bits, so
	// under HomeInterleave each shard reaches only 1/shards of its sets
	// and aggregate capacity collapses to a single slice's worth — the
	// aliasing pitfall DESIGN.md describes, kept addressable exactly so
	// experiments can measure it.
	HomeInterleave
)

// String names the home function ("mix", "interleave").
func (h Home) String() string {
	switch h {
	case HomeMix:
		return "mix"
	case HomeInterleave:
		return "interleave"
	default:
		return fmt.Sprintf("Home(%d)", uint8(h))
	}
}

// ParseHome parses a home-function name as it appears in flags and
// sharded registry names ("mix", "interleave").
func ParseHome(s string) (Home, error) {
	switch s {
	case "mix":
		return HomeMix, nil
	case "interleave":
		return HomeInterleave, nil
	default:
		return 0, fmt.Errorf("directory: unknown home function %q (want mix or interleave)", s)
	}
}

// ShardedDirectory is an address-interleaved array of per-shard
// mutex-guarded directory slices behind the plain Directory interface —
// the concurrency-safe front-end of this package. A block address homes
// onto one shard via a mixing hash (see home), so disjoint address
// regions proceed in parallel and per-block operation order is
// preserved.
//
// Unlike every other implementation in this package, a ShardedDirectory
// IS safe for concurrent use. Point operations (Read/Write/Evict/Lookup)
// lock only the home shard; Apply batches operations and takes each
// shard's lock once per batch. Stats returns a merged snapshot rather
// than a live record.
type ShardedDirectory struct {
	shards    []*dirShard
	mask      uint64
	homeKind  Home
	numCaches int
	name      string

	// Online-resize state (resize.go). policy is fixed at build time;
	// the counters back the lock-free ResizeStats/MigratingShards views.
	policy          ResizePolicy
	migCount        atomic.Int32
	resizeStarted   atomic.Uint64
	resizeDone      atomic.Uint64
	migratedEntries atomic.Uint64
	migrationForced atomic.Uint64
}

// ShardCounters is a snapshot of the hot operation counters a
// ShardedDirectory maintains in per-shard padded atomics, readable at
// any time WITHOUT taking any shard lock (Counters, CountersByShard) —
// the stats-polling path that must not stall the shards. The full
// merged DirStats snapshot (event mix, attempt histogram, occupancy
// samples) still requires Stats, which locks each shard once.
//
//cuckoo:stats merge=add
type ShardCounters struct {
	// Reads, Writes and Evicts count dispatched operations by kind.
	Reads, Writes, Evicts uint64
	// Inserts counts operations that allocated a directory entry
	// (Op.Attempts > 0); Attempts totals the entry writes those
	// insertions performed, so Attempts/Inserts is the mean insertion
	// attempt count.
	Inserts  uint64
	Attempts uint64
	// Forced counts entries the directory discarded on insertion
	// failure; ForcedBlocks the cache blocks invalidated as a result.
	Forced       uint64
	ForcedBlocks uint64
}

// Ops returns the total operation count.
func (c ShardCounters) Ops() uint64 { return c.Reads + c.Writes + c.Evicts }

// MeanAttempts returns the average insertion attempt count (0 when no
// entry has been allocated).
func (c ShardCounters) MeanAttempts() float64 {
	if c.Inserts == 0 {
		return 0
	}
	return float64(c.Attempts) / float64(c.Inserts)
}

// observe accumulates one operation outcome. Batched appliers observe
// into a stack-local aggregate and flush it with one atomic add per
// field, so the shard's atomics are touched once per batch, not once
// per access.
func (c *ShardCounters) observe(kind AccessKind, op Op) {
	switch kind {
	case AccessRead:
		c.Reads++
	case AccessWrite:
		c.Writes++
	default:
		c.Evicts++
	}
	if op.Attempts > 0 {
		c.Inserts++
		c.Attempts += uint64(op.Attempts)
	}
	if len(op.Forced) > 0 {
		c.Forced += uint64(len(op.Forced))
		for _, f := range op.Forced {
			c.ForcedBlocks += uint64(bits.OnesCount64(f.Sharers))
		}
	}
}

// add accumulates another snapshot into c.
func (c *ShardCounters) add(o ShardCounters) {
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.Evicts += o.Evicts
	c.Inserts += o.Inserts
	c.Attempts += o.Attempts
	c.Forced += o.Forced
	c.ForcedBlocks += o.ForcedBlocks
}

// shardCtr is the atomic backing store of one shard's ShardCounters.
type shardCtr struct {
	reads, writes, evicts, inserts, attempts, forced, forcedBlocks atomic.Uint64
}

// flush adds a local aggregate into the shard's atomics, skipping
// fields with nothing to add.
//
//cuckoo:hotpath
func (ctr *shardCtr) flush(c ShardCounters) {
	if c.Reads != 0 {
		ctr.reads.Add(c.Reads)
	}
	if c.Writes != 0 {
		ctr.writes.Add(c.Writes)
	}
	if c.Evicts != 0 {
		ctr.evicts.Add(c.Evicts)
	}
	if c.Inserts != 0 {
		ctr.inserts.Add(c.Inserts)
	}
	if c.Attempts != 0 {
		ctr.attempts.Add(c.Attempts)
	}
	if c.Forced != 0 {
		ctr.forced.Add(c.Forced)
	}
	if c.ForcedBlocks != 0 {
		ctr.forcedBlocks.Add(c.ForcedBlocks)
	}
}

// snapshot loads the counters. Each field is individually exact;
// because flushes are batched, cross-field relations (e.g. Attempts vs
// Inserts) may be off by one in-flight batch relative to each other.
func (ctr *shardCtr) snapshot() ShardCounters {
	return ShardCounters{
		Reads:        ctr.reads.Load(),
		Writes:       ctr.writes.Load(),
		Evicts:       ctr.evicts.Load(),
		Inserts:      ctr.inserts.Load(),
		Attempts:     ctr.attempts.Load(),
		Forced:       ctr.forced.Load(),
		ForcedBlocks: ctr.forcedBlocks.Load(),
	}
}

// reset zeroes the counters.
func (ctr *shardCtr) reset() {
	ctr.reads.Store(0)
	ctr.writes.Store(0)
	ctr.evicts.Store(0)
	ctr.inserts.Store(0)
	ctr.attempts.Store(0)
	ctr.forced.Store(0)
	ctr.forcedBlocks.Store(0)
}

// dirShard pairs one slice with its lock. Shards are individually
// allocated so neighbouring locks do not share a cache line; the pad
// keeps the counter lines a lock-free Counters poller reads off the
// line the shard's mutex (and owner) is bouncing.
type dirShard struct {
	mu  sync.Mutex
	dir Directory
	// spec is the slice's current build spec, the geometry automatic
	// growth (GrowShard) scales from. Guarded by mu, like dir.
	spec Spec
	_    [64]byte
	ctr  shardCtr
	// migrating mirrors "dir is a *migratingDir", readable without the
	// lock (ShardMigrating); flipped only under mu.
	migrating atomic.Bool
}

// newSharded builds the sharded directory a validated spec describes:
// Shard.Count slices of the spec without its Shard field, each carrying
// that slice spec for automatic growth.
func newSharded(s Spec) *ShardedDirectory {
	slice := s
	slice.Shard = ShardSpec{}
	d := &ShardedDirectory{
		mask:      uint64(s.Shard.Count - 1),
		homeKind:  s.Shard.Home,
		numCaches: s.NumCaches,
		policy:    s.Shard.Resize,
	}
	for range s.Shard.Count {
		d.shards = append(d.shards, &dirShard{dir: MustBuild(slice), spec: slice})
	}
	d.name = shardedName(s.Shard.Count, s.Shard.Home, d.shards[0].dir.Name())
	return d
}

// shardedName renders the registry-name form of a sharded directory:
// "sharded-8(cuckoo-4x512)", or "sharded-8@interleave(...)" for a
// non-default home function. ParseSpecName inverts it.
func shardedName(shards int, home Home, inner string) string {
	if home == HomeMix {
		return fmt.Sprintf("sharded-%d(%s)", shards, inner)
	}
	return fmt.Sprintf("sharded-%d@%s(%s)", shards, home, inner)
}

// BuildSharded builds a ShardedDirectory whose every shard is one slice
// of the given spec (total capacity = shardCount x the spec's capacity).
// The spec's own Shard.Count, if any, is replaced by shardCount; its
// Shard.Home is kept.
func BuildSharded(spec Spec, shardCount int) (*ShardedDirectory, error) {
	if shardCount <= 0 {
		return nil, fmt.Errorf("directory: BuildSharded: shardCount = %d, need a positive power of two", shardCount)
	}
	spec.Shard.Count = shardCount
	d, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return d.(*ShardedDirectory), nil
}

// ShardCount returns the number of shards.
func (s *ShardedDirectory) ShardCount() int { return len(s.shards) }

// Home returns the home function shard selection uses.
func (s *ShardedDirectory) Home() Home { return s.homeKind }

// ShardOf returns the shard index addr homes onto. Batching front-ends
// (internal/replay) use it to partition work shard-affinely: a batch
// whose accesses all share one home shard takes Apply's inline
// single-lock fast path, so parallelism can come from concurrent
// callers instead of Apply's internal fan-out.
//
//cuckoo:hotpath
func (s *ShardedDirectory) ShardOf(addr uint64) int { return s.home(addr) }

// home returns the shard index of addr. Under the default HomeMix the
// address is mixed before the shard bits are taken: Sparse, Tagless and
// Duplicate-Tag slices index their sets with the raw low address bits, so
// consuming those same bits for shard selection would leave each shard
// able to reach only 1/shardCount of its sets, silently collapsing
// aggregate capacity to a single slice's worth. HomeInterleave consumes
// exactly those bits, deliberately, to model (and measure) classic static
// interleaving.
func (s *ShardedDirectory) home(addr uint64) int {
	if s.homeKind == HomeInterleave {
		return int(addr & s.mask)
	}
	return int((addr * 0x9e3779b97f4a7c15 >> 32) & s.mask)
}

// Name implements Directory.
func (s *ShardedDirectory) Name() string { return s.name }

// NumCaches implements Directory.
func (s *ShardedDirectory) NumCaches() int { return s.numCaches }

// recordOne accumulates a single point operation into sh's counters.
func recordOne(sh *dirShard, kind AccessKind, op Op) {
	var c ShardCounters
	c.observe(kind, op)
	sh.ctr.flush(c)
}

// Read implements Directory; it locks only addr's home shard.
func (s *ShardedDirectory) Read(addr uint64, cache int) Op {
	sh := s.shards[s.home(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	op := sh.dir.Read(addr, cache)
	recordOne(sh, AccessRead, op)
	return op
}

// Write implements Directory; it locks only addr's home shard.
func (s *ShardedDirectory) Write(addr uint64, cache int) Op {
	sh := s.shards[s.home(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	op := sh.dir.Write(addr, cache)
	recordOne(sh, AccessWrite, op)
	return op
}

// Evict implements Directory; it locks only addr's home shard.
func (s *ShardedDirectory) Evict(addr uint64, cache int) {
	sh := s.shards[s.home(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.dir.Evict(addr, cache)
	recordOne(sh, AccessEvict, Op{})
}

// Lookup implements Directory; it locks only addr's home shard.
func (s *ShardedDirectory) Lookup(addr uint64) (uint64, bool) {
	sh := s.shards[s.home(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dir.Lookup(addr)
}

// Apply executes a batch of accesses and returns one Op per access, in
// input order (Evicts yield zero Ops). Accesses are grouped by home
// shard; each group drains under a single lock acquisition, and groups
// run in parallel across shards — the batched entry point concurrent
// drivers should prefer over per-operation calls.
//
// Within a shard, accesses execute in batch order, so per-block operation
// order is exactly the input order (a block never spans shards). Ordering
// BETWEEN blocks on different shards is not defined — callers needing
// cross-block ordering must split their batches at the dependency.
func (s *ShardedDirectory) Apply(accesses []Access) []Op {
	ops := make([]Op, len(accesses))
	// Reject malformed batches up front, on the caller's stack, before any
	// access executes: the panic is recoverable regardless of which worker
	// goroutine the access would have landed in (a panic inside a worker
	// kills the process), and no prefix of the batch is applied.
	for _, a := range accesses {
		if a.Kind > AccessEvict {
			panic(fmt.Sprintf("directory: Apply: unknown access kind %d", a.Kind))
		}
		if a.Cache < 0 || a.Cache >= s.numCaches {
			panic(fmt.Sprintf("directory: Apply: cache %d out of range (tracking %d)", a.Cache, s.numCaches))
		}
	}
	groups := make([][]int32, len(s.shards))
	largest := 0
	for i, a := range accesses {
		h := s.home(a.Addr)
		groups[h] = append(groups[h], int32(i))
		if len(groups[h]) > len(groups[largest]) {
			largest = h
		}
	}
	// A batch homing onto one shard applies in place: no gather, no spawn.
	if len(groups[largest]) == len(accesses) {
		s.ApplyShardOps(largest, accesses, ops)
		return ops
	}
	// The largest group runs inline on the calling goroutine, so on
	// spread batches the caller's core does the most work instead of
	// blocking in Wait.
	var wg sync.WaitGroup
	for h, idxs := range groups {
		if len(idxs) == 0 || h == largest {
			continue
		}
		wg.Add(1)
		go func(h int, idxs []int32) {
			defer wg.Done()
			s.applyGroup(h, accesses, idxs, ops)
		}(h, idxs)
	}
	s.applyGroup(largest, accesses, groups[largest], ops)
	wg.Wait()
	return ops
}

// applyGroup gathers the accesses at idxs — all homing onto shard h —
// into a contiguous batch, applies it through ApplyShardOps, and
// scatters the Ops back to their input positions.
func (s *ShardedDirectory) applyGroup(h int, accesses []Access, idxs []int32, ops []Op) {
	accs := make([]Access, len(idxs))
	for k, i := range idxs {
		accs[k] = accesses[i]
	}
	gops := make([]Op, len(idxs))
	s.ApplyShardOps(h, accs, gops)
	for k, i := range idxs {
		ops[i] = gops[k]
	}
}

// ApplyShard executes a batch whose accesses ALL home onto shard h —
// the zero-overhead variant of Apply for shard-affine batching
// front-ends (internal/replay): one lock acquisition, no grouping pass,
// and no Op recording (callers that need the Ops use Apply or
// ApplyShardOps). Like Apply, the whole batch is validated up front on
// the caller's stack — unknown kinds, out-of-range caches and accesses
// homing onto a different shard panic before anything is applied.
//
//cuckoo:hotpath
func (s *ShardedDirectory) ApplyShard(h int, accesses []Access) {
	s.ApplyShardOps(h, accesses, nil)
}

// ApplyShardOps is ApplyShard with Op recording: ops, when non-nil,
// must have len(accesses) and receives each access's Op at the matching
// index (Evicts yield zero Ops). It is the entry point the asynchronous
// engine's drainers use — one lock acquisition per call, results
// written into caller-owned storage so ticket slots can be filled
// without an intermediate Op slice allocation. A nil ops is exactly
// ApplyShard. Under the lock the shard's slice is inspected once per
// batch: a plain *Cuckoo runs the typed loop applyCuckoo, and any other
// slice runs applyOne and observe per access. Validation failures
// panic out of line (the cold helpers below) so the hot body carries
// no formatting machinery; the lock is released explicitly rather than
// deferred — nothing between Lock and Unlock can fail once the batch
// has validated.
//
//cuckoo:hotpath
func (s *ShardedDirectory) ApplyShardOps(h int, accesses []Access, ops []Op) {
	if h < 0 || h >= len(s.shards) {
		badShard(h, len(s.shards))
	}
	if ops != nil && len(ops) != len(accesses) {
		badOpsLen(len(ops), len(accesses))
	}
	for _, a := range accesses {
		if a.Kind > AccessEvict {
			badKind(a.Kind)
		}
		if a.Cache < 0 || a.Cache >= s.numCaches {
			badCache(a.Cache, s.numCaches)
		}
		if s.home(a.Addr) != h {
			badHome(a.Addr, s.home(a.Addr), h)
		}
	}
	sh := s.shards[h]
	sh.mu.Lock()
	var c ShardCounters
	if cd, ok := sh.dir.(*Cuckoo); ok {
		applyCuckoo(cd.d, accesses, ops, &c, s.fills(cd.d))
	} else if ops == nil {
		for _, a := range accesses {
			c.observe(a.Kind, applyOne(sh.dir, a))
		}
	} else {
		for i, a := range accesses {
			ops[i] = applyOne(sh.dir, a)
			c.observe(a.Kind, ops[i])
		}
	}
	sh.ctr.flush(c)
	sh.mu.Unlock()
}

// prefetchDepth is how many accesses ahead applyCuckoo computes way
// indices, and so, with fills, how many accesses' probe lines are in
// flight. On 8 shards x cuckoo-4x16384 (8 MiB of pairs, with fills), on
// a 2-vCPU Xeon host with 2 MiB of L2 per core (median [quartiles] over
// 10 interleaved runs: perfbench 8 s runs at seed 89 in M acc/s, and
// bench apply/hits/sets=16384 in ns per access):
//
//	depth   replay-oltp-warm      engine-rr-mixed       apply/hits
//	  4     8.40 [8.36, 8.44]     6.12 [6.06, 6.16]     76.6 [73.2, 80.0]
//	  6     9.00 [8.96, 9.09]     6.46 [6.35, 6.53]     69.7 [66.4, 73.5]
//	  8     9.14 [8.85, 9.33]     6.49 [6.30, 6.59]     66.9 [61.5, 71.9]
//	 12     9.30 [9.00, 9.40]     6.47 [6.30, 6.58]     67.5 [63.7, 73.1]
//	 16     9.15 [9.04, 9.43]     6.48 [6.45, 6.55]     65.1 [64.3, 79.7]
//
// 8 is the smallest depth whose median lies within the quartiles of
// the best on all three (6 falls just below them on OLTP); being a
// power of two, it keeps i%prefetchDepth a mask.
const prefetchDepth = 8

// fillBytes is the directory footprint (shard count x one slice's pair
// array) from which applyCuckoo starts line fills ahead of its probes.
// Below it the tables stay in a core's L2, a fill hides no wait, and
// computing bucket addresses and issuing prefetches only costs. Hits on
// 8 shards x 4 ways at 35% load, in 256-access batches, on a 2-vCPU
// Xeon host with 2 MiB of L2 per core (median ns per access over 6
// interleaved 1 s runs):
//
//	sets/way (footprint)   with fills   without
//	  512 (256 KiB)            72.6        68.7
//	 2048   (1 MiB)            73.0        65.8
//	 4096   (2 MiB)            70.8       112.9
//	 8192   (4 MiB)            88.8       240.4
//	16384   (8 MiB)            97.8       269.9
//
// Skipping fills on a big table costs up to x2.8 and filling a small
// one about x1.1 (x1.4 in other sweeps), so the threshold errs low,
// leaving room for hosts with a smaller L2.
const fillBytes = 512 << 10

// fills reports whether applyCuckoo should start line fills on a shard
// holding d. It reads the slice's current size, so the mode follows an
// online resize.
//
//cuckoo:hotpath
func (s *ShardedDirectory) fills(d *core.Directory) bool {
	return len(s.shards)*d.TableBytes() >= fillBytes
}

// applyCuckoo is ApplyShardOps' loop for a plain *Cuckoo slice, which
// is what every benchmark shard holds: it calls core.Directory
// directly, counts into c from the returned *Forced and LastAttempts
// instead of from an Op, and builds an Op only when ops is non-nil. It
// writes exactly the Ops and counts that applyOne and observe would.
//
// Access i probes with the indices put in ring slot i%prefetchDepth
// prefetchDepth accesses earlier: by Prefetch, which also starts the
// probe lines' fills, when fill is set, else by Index (DESIGN.md §8).
//
//cuckoo:hotpath
func applyCuckoo(d *core.Directory, accesses []Access, ops []Op, c *ShardCounters, fill bool) {
	var ring [prefetchDepth][hashfn.MaxWays]uint64
	for i := range min(prefetchDepth, len(accesses)) {
		if fill {
			d.Prefetch(accesses[i].Addr, &ring[i])
		} else {
			d.Index(accesses[i].Addr, &ring[i])
		}
	}
	for i, a := range accesses {
		idx := &ring[i%prefetchDepth]
		var inv uint64
		var f *Forced
		n := 0
		switch a.Kind {
		case AccessRead:
			c.Reads++
			f = d.ReadAt(a.Addr, a.Cache, idx)
			n = d.LastAttempts()
		case AccessWrite:
			c.Writes++
			inv, f = d.WriteAt(a.Addr, a.Cache, idx)
			n = d.LastAttempts()
		default:
			c.Evicts++
			d.EvictAt(a.Addr, a.Cache, idx)
		}
		if j := i + prefetchDepth; j < len(accesses) {
			if fill {
				d.Prefetch(accesses[j].Addr, idx)
			} else {
				d.Index(accesses[j].Addr, idx)
			}
		}
		if n > 0 {
			c.Inserts++
			c.Attempts += uint64(n)
		}
		if f != nil {
			c.Forced++
			c.ForcedBlocks += uint64(bits.OnesCount64(f.Sharers))
		}
		if ops != nil {
			ops[i] = cuckooOp(inv, f, n)
		}
	}
}

// Out-of-line validation failures: each is a separate noinline function
// so its fmt call and panic frame stay off the applier's hot path.

//
//cuckoo:cold
//go:noinline
func badShard(h, n int) {
	panic(fmt.Sprintf("directory: ApplyShard: shard %d out of range (have %d)", h, n))
}

//
//cuckoo:cold
//go:noinline
func badOpsLen(ops, accs int) {
	panic(fmt.Sprintf("directory: ApplyShardOps: %d ops slots for %d accesses", ops, accs))
}

//
//cuckoo:cold
//go:noinline
func badKind(k AccessKind) {
	panic(fmt.Sprintf("directory: ApplyShard: unknown access kind %d", k))
}

//
//cuckoo:cold
//go:noinline
func badCache(c, n int) {
	panic(fmt.Sprintf("directory: ApplyShard: cache %d out of range (tracking %d)", c, n))
}

//
//cuckoo:cold
//go:noinline
func badHome(addr uint64, got, want int) {
	panic(fmt.Sprintf("directory: ApplyShard: address %#x homes onto shard %d, not %d", addr, got, want))
}

// applyOne dispatches one access on an already-locked slice that
// applyCuckoo does not serve: the other organizations, a cuckoo slice
// with a sharer Format (FormattedCuckoo) and a resizing shard's
// migratingDir. Those slices share no concrete type, so the three calls
// are interface dispatch and carry ignore directives.
//
//cuckoo:hotpath
func applyOne(d Directory, a Access) Op {
	switch a.Kind {
	case AccessRead:
		//cuckoo:ignore fallback for non-cuckoo, formatted-cuckoo and resizing slices; plain *Cuckoo shards take applyCuckoo
		return d.Read(a.Addr, a.Cache)
	case AccessWrite:
		//cuckoo:ignore fallback for non-cuckoo, formatted-cuckoo and resizing slices; plain *Cuckoo shards take applyCuckoo
		return d.Write(a.Addr, a.Cache)
	case AccessEvict:
		//cuckoo:ignore fallback for non-cuckoo, formatted-cuckoo and resizing slices; plain *Cuckoo shards take applyCuckoo
		d.Evict(a.Addr, a.Cache)
		return Op{}
	default:
		badKind(a.Kind)
		return Op{}
	}
}

// Stats implements Directory, returning a merged SNAPSHOT of the
// per-shard statistics (not a live record: mutating it does not affect
// the shards, and later operations do not update it). Each shard is
// locked once; heterogeneous shards with different attempt-histogram
// ranges merge fine (the merge grows the aggregate's range).
func (s *ShardedDirectory) Stats() *Stats {
	agg := core.MergeDirStats()
	for _, sh := range s.shards {
		sh.mu.Lock()
		agg.Merge(sh.dir.Stats())
		sh.mu.Unlock()
	}
	return agg
}

// Counters returns the merged lock-free snapshot of the per-shard
// operation counters: no shard lock is taken and no shard is stalled,
// so a monitoring goroutine can poll it at any rate while workers
// drain batches. See ShardCounters for the consistency contract.
func (s *ShardedDirectory) Counters() ShardCounters {
	var total ShardCounters
	for _, sh := range s.shards {
		total.add(sh.ctr.snapshot())
	}
	return total
}

// CountersByShard returns each shard's counter snapshot in shard index
// order, lock-free (the per-shard view of Counters).
func (s *ShardedDirectory) CountersByShard() []ShardCounters {
	out := make([]ShardCounters, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.ctr.snapshot()
	}
	return out
}

// ResetStats implements Directory; it also zeroes the lock-free shard
// counters, keeping both views aligned at the end of a warm-up phase.
func (s *ShardedDirectory) ResetStats() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.dir.ResetStats()
		sh.ctr.reset()
		sh.mu.Unlock()
	}
}

// Capacity implements Directory (sum over shards; 0 when unbounded).
func (s *ShardedDirectory) Capacity() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		c := sh.dir.Capacity()
		sh.mu.Unlock()
		if c == 0 {
			return 0
		}
		total += c
	}
	return total
}

// ShardLens returns each shard's tracked-block count, in shard index
// order — the per-shard occupancy view the replay pipeline reports.
// Shards are locked one at a time, so concurrent mutators may move
// blocks between the individual reads (same caveat as Stats).
func (s *ShardedDirectory) ShardLens() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.dir.Len()
		sh.mu.Unlock()
	}
	return out
}

// Len implements Directory (sum over shards).
func (s *ShardedDirectory) Len() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.dir.Len()
		sh.mu.Unlock()
	}
	return total
}

// ForEach implements Directory, visiting shards in index order. fn runs
// under the visited shard's lock and must not call back into the
// ShardedDirectory. Concurrent mutators may interleave between shards;
// the iteration is consistent per shard, not globally.
func (s *ShardedDirectory) ForEach(fn func(addr, sharers uint64) bool) {
	for _, sh := range s.shards {
		stopped := false
		sh.mu.Lock()
		sh.dir.ForEach(func(addr, sharers uint64) bool {
			if !fn(addr, sharers) {
				stopped = true
				return false
			}
			return true
		})
		sh.mu.Unlock()
		if stopped {
			return
		}
	}
}

var _ Directory = (*ShardedDirectory)(nil)
