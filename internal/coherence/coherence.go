// Package coherence is the event-driven MESI-style directory protocol that
// exercises the timing-facing claims of §4.2: directory lookups happen off
// the L2 critical path, and multi-attempt Cuckoo insertions are too rare
// to affect request latency ("the frequency of long insertions is too low
// to have a measurable impact on performance").
//
// The model is a three-hop directory protocol over a 2D mesh:
//
//   - each core has a private cache (the Private-L2 configuration, where
//     §4.2 notes insertion latency *could* appear on the critical path);
//   - misses send GetS/GetM to the block's home directory slice;
//   - the home slice serializes transactions per block, invalidates
//     sharers on GetM (collecting acks), recalls dirty owners on GetS,
//     and supplies data from memory or a recalled owner;
//   - evictions send PutS/PutM replacement notifications.
//
// Cores are in-order with one outstanding miss (the simple end of the
// paper's UltraSPARC cores). Directory insertions occupy the slice for
// `attempts` insertion cycles after the response is sent; a request that
// arrives during an insertion waits, and the wait is accounted — this is
// the quantity the latency experiment reports.
package coherence

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/cache"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/event"
	"cuckoodir/internal/noc"
	"cuckoodir/internal/workload"
)

// Config parameterizes the protocol system.
type Config struct {
	// Cores must equal the mesh tile count. Each core has one private
	// cache of CacheSets x CacheAssoc frames.
	Cores      int
	CacheSets  int
	CacheAssoc int
	Mesh       noc.Config
	// Latencies, in cycles.
	CacheHitLatency event.Time
	DirLatency      event.Time
	MemLatency      event.Time
	// InsertCycle is the cost of one insertion write attempt at the
	// directory (slice occupancy, not request latency).
	InsertCycle event.Time
}

// DefaultConfig returns a 16-core Private-L2-style system with ordinary
// latencies for the paper's era.
func DefaultConfig() Config {
	return Config{
		Cores:      16,
		CacheSets:  1024,
		CacheAssoc: 16,
		Mesh:       noc.DefaultConfig(),
		// Hit in a large private cache; directory SRAM access; DRAM.
		CacheHitLatency: 4,
		DirLatency:      2,
		MemLatency:      90,
		InsertCycle:     1,
	}
}

// message kinds.
type kind int

const (
	getS kind = iota
	getM
	putS
	putM
	inv
	invAck
	recall
	recallAck
	data
)

const (
	ctrlBytes = 8
	dataBytes = 72 // 64-byte block + header
)

// msg is one protocol message.
type msg struct {
	kind kind
	addr uint64
	src  int
	// upgrade marks a GetM from a core that already holds the block in
	// Shared state (no data needed).
	upgrade bool
}

// CoreStats aggregates per-core timing.
type CoreStats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	Upgrades     uint64
	MissLatency  uint64 // total cycles spent in misses/upgrades
	MaxMissCycle uint64
}

// DirTimingStats aggregates per-slice protocol behaviour.
type DirTimingStats struct {
	Requests            uint64
	Recalls             uint64
	Invalidations       uint64
	ForcedInvalidations uint64
	// InsertBusyCycles is the total slice occupancy charged to insertion
	// writes; InsertWaitCycles the request delay actually caused by it.
	InsertBusyCycles uint64
	InsertWaitCycles uint64
}

// System is the protocol simulation.
type System struct {
	cfg    Config
	q      *event.Queue
	mesh   *noc.Mesh
	caches []*cache.Cache
	dirs   []*dirCtl
	cores  []*coreCtl

	sliceMask uint64
	completed uint64
	target    uint64

	coreStats CoreStats
}

// validate reports a malformed configuration.
func (c Config) validate() error {
	if c.Cores <= 0 || c.Cores&(c.Cores-1) != 0 {
		return fmt.Errorf("coherence: Cores = %d, need a power of two", c.Cores)
	}
	if c.Mesh.Width <= 0 || c.Mesh.Height <= 0 || c.Cores != c.Mesh.Width*c.Mesh.Height {
		return fmt.Errorf("coherence: %d cores on a %dx%d mesh, need one core per tile",
			c.Cores, c.Mesh.Width, c.Mesh.Height)
	}
	if c.CacheSets <= 0 || c.CacheSets&(c.CacheSets-1) != 0 {
		return fmt.Errorf("coherence: CacheSets = %d, need a power of two", c.CacheSets)
	}
	if c.CacheAssoc <= 0 {
		return fmt.Errorf("coherence: CacheAssoc = %d, need > 0", c.CacheAssoc)
	}
	return nil
}

// New builds a protocol system running the given workload, with one home
// slice per core built from the slice spec bound to the core count. It
// checks the configuration, the profile and the spec before it builds
// anything.
func New(cfg Config, prof workload.Profile, seed uint64, slice directory.Spec) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(cfg.Cores); err != nil {
		return nil, fmt.Errorf("coherence: %w", err)
	}
	slice = slice.WithCaches(cfg.Cores)
	if err := slice.ValidateFor(cfg.CacheSets, cfg.CacheAssoc); err != nil {
		return nil, fmt.Errorf("coherence: slice: %w", err)
	}
	if slice.Org == directory.OrgDuplicateTag {
		return nil, fmt.Errorf("coherence: slice %s: duplicate-tag slices are unsupported: a replacement notice can wait "+
			"behind a busy block at its home while the fill that replaced it goes ahead, overflowing the mirrored set", slice)
	}
	q := &event.Queue{}
	s := &System{
		cfg:       cfg,
		q:         q,
		mesh:      noc.New(cfg.Mesh, q),
		sliceMask: uint64(cfg.Cores - 1),
	}
	for i := 0; i < cfg.Cores; i++ {
		s.caches = append(s.caches, cache.New(cache.Config{
			Sets:  cfg.CacheSets,
			Assoc: cfg.CacheAssoc,
		}))
		s.dirs = append(s.dirs, newDirCtl(s, i, directory.MustBuild(slice)))
	}
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, newCoreCtl(s, i, workload.NewGenerator(prof, i, cfg.Cores, seed)))
	}
	return s, nil
}

// home returns the slice index of addr.
func (s *System) home(addr uint64) int { return int(addr & s.sliceMask) }

// send routes a message and invokes the destination handler on delivery.
func (s *System) send(src, dst int, m msg, size int, toDir bool) {
	s.mesh.Send(src, dst, size, func() {
		if toDir {
			s.dirs[dst].handle(m)
		} else {
			s.cores[dst].handle(m)
		}
	})
}

// Run simulates until n accesses complete and returns the cycle count.
func (s *System) Run(n uint64) event.Time {
	s.target = s.completed + n
	for i, c := range s.cores {
		switch {
		case !c.started:
			c.started = true
			// Stagger issue starts so cores do not proceed in lockstep.
			s.q.At(s.q.Now()+event.Time(i), c.issue)
		case c.idle:
			c.idle = false
			s.q.After(1, c.issue)
		}
	}
	for s.completed < s.target && s.q.Step() {
	}
	return s.q.Now()
}

// Now returns the current cycle.
func (s *System) Now() event.Time { return s.q.Now() }

// ResetStats zeroes timing, functional-directory and mesh statistics
// (end of warm-up); simulation state is preserved.
func (s *System) ResetStats() {
	s.coreStats = CoreStats{}
	for _, d := range s.dirs {
		d.stats = DirTimingStats{}
		d.dir.ResetStats()
	}
	s.mesh.ResetStats()
}

// CoreStats returns aggregated core timing.
func (s *System) CoreStats() CoreStats { return s.coreStats }

// DirStats returns the aggregated protocol-level directory stats.
func (s *System) DirStats() DirTimingStats {
	var agg DirTimingStats
	for _, d := range s.dirs {
		agg.Requests += d.stats.Requests
		agg.Recalls += d.stats.Recalls
		agg.Invalidations += d.stats.Invalidations
		agg.ForcedInvalidations += d.stats.ForcedInvalidations
		agg.InsertBusyCycles += d.stats.InsertBusyCycles
		agg.InsertWaitCycles += d.stats.InsertWaitCycles
	}
	return agg
}

// DirectoryStats returns the merged functional directory statistics.
func (s *System) DirectoryStats() *directory.Stats {
	snaps := make([]*directory.Stats, len(s.dirs))
	for i, d := range s.dirs {
		snaps[i] = d.dir.Stats()
	}
	return core.MergeDirStats(snaps...)
}

// MeshStats returns interconnect traffic counters.
func (s *System) MeshStats() noc.Stats { return s.mesh.Stats() }

// AvgMissLatency returns the mean cycles a miss (or upgrade) stalls its
// core.
func (s *System) AvgMissLatency() float64 {
	n := s.coreStats.Misses + s.coreStats.Upgrades
	if n == 0 {
		return 0
	}
	return float64(s.coreStats.MissLatency) / float64(n)
}

// CheckConsistency audits caches against directory slices, as in cmpsim.
// It must only be called when the calendar is quiescent (between Runs it
// may report transient in-flight states as errors; prefer calling after
// Drain).
func (s *System) CheckConsistency() error {
	modified := make(map[uint64]int)
	holders := make(map[uint64]int)
	for cid, c := range s.caches {
		var err error
		c.ForEach(func(addr uint64, st cache.State) bool {
			m, ok := s.dirs[s.home(addr)].dir.Lookup(addr)
			if !ok || m&(1<<uint(cid)) == 0 {
				err = fmt.Errorf("coherence: cache %d holds %#x untracked", cid, addr)
				return false
			}
			holders[addr]++
			if st == cache.Modified {
				modified[addr]++
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	// Single-writer/multiple-reader: a Modified block has exactly one
	// holder system-wide.
	for addr, n := range modified {
		if n > 1 || holders[addr] > 1 {
			return fmt.Errorf("coherence: SWMR violated for %#x: %d modified, %d holders",
				addr, n, holders[addr])
		}
	}
	// Converse direction: every tracked sharer must actually hold the
	// block (a failure here means directory entries leak).
	for si, d := range s.dirs {
		var err error
		d.dir.ForEach(func(addr, sharers uint64) bool {
			if sharers == 0 {
				err = fmt.Errorf("coherence: slice %d tracks %#x with no sharers", si, addr)
				return false
			}
			for m := sharers; m != 0; m &= m - 1 {
				cid := bits.TrailingZeros64(m)
				if !s.caches[cid].Contains(addr) {
					err = fmt.Errorf("coherence: slice %d lists cache %d for %#x, which it does not hold", si, cid, addr)
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Drain runs the calendar dry (no new issues: call only after Run returned
// and cores are blocked or done). Used before consistency audits in tests.
func (s *System) Drain() {
	// Prevent new work: cores with pending issue events will still run
	// them; bound the drain generously.
	s.q.Drain(10_000_000)
}
