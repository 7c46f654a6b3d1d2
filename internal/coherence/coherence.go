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

	"cuckoodir/internal/cache"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/event"
	"cuckoodir/internal/noc"
	"cuckoodir/internal/tile"
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
	cfg   Config
	q     *event.Queue
	mesh  *noc.Mesh
	tiles *tile.Tiles
	dirs  []*dirCtl
	cores []*coreCtl

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

// CheckSlice returns the error New would return for the slice spec on
// this configuration (Spec.ValidateFor against the caches, and no
// Duplicate-Tag slice), without building anything.
func (c Config) CheckSlice(slice directory.Spec) error {
	slice = slice.WithCaches(c.Cores)
	if err := slice.ValidateFor(c.CacheSets, c.CacheAssoc); err != nil {
		return fmt.Errorf("coherence: slice: %w", err)
	}
	if slice.Org == directory.OrgDuplicateTag {
		return fmt.Errorf("coherence: slice %s: duplicate-tag slices are unsupported: a replacement notice can wait "+
			"behind a busy block at its home while the fill that replaced it goes ahead, overflowing the mirrored set", slice)
	}
	return nil
}

// New builds a protocol system running the given workload, with one home
// slice per core built from the slice spec bound to the core count. It
// checks the configuration, the profile and the spec (CheckSlice) before
// it builds anything.
func New(cfg Config, prof workload.Profile, seed uint64, slice directory.Spec) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(cfg.Cores); err != nil {
		return nil, fmt.Errorf("coherence: %w", err)
	}
	if err := cfg.CheckSlice(slice); err != nil {
		return nil, err
	}
	tiles, err := tile.New(cfg.Cores, cfg.CacheSets, cfg.CacheAssoc, cfg.Cores, slice)
	if err != nil {
		return nil, err
	}
	q := &event.Queue{}
	s := &System{cfg: cfg, q: q, mesh: noc.New(cfg.Mesh, q), tiles: tiles}
	for i := 0; i < cfg.Cores; i++ {
		s.dirs = append(s.dirs, newDirCtl(s, i, tiles.Slices[i]))
		s.cores = append(s.cores, newCoreCtl(s, i, workload.NewGenerator(prof, i, cfg.Cores, seed)))
	}
	return s, nil
}

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
	}
	s.tiles.ResetStats()
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
func (s *System) DirectoryStats() *directory.Stats { return s.tiles.DirStats() }

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

// CheckConsistency audits caches against slices (tile.Tiles.Check) and
// single-writer/multiple-reader: a Modified block has exactly one
// holder. Call it only when the calendar is quiescent, after Drain.
func (s *System) CheckConsistency() error {
	modified := make(map[uint64]int)
	holders := make(map[uint64]int)
	if err := s.tiles.Check(func(_ int, addr uint64, st cache.State) {
		holders[addr]++
		if st == cache.Modified {
			modified[addr]++
		}
	}); err != nil {
		return err
	}
	for addr, n := range modified {
		if n > 1 || holders[addr] > 1 {
			return fmt.Errorf("coherence: SWMR violated for %#x: %d modified, %d holders",
				addr, n, holders[addr])
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
