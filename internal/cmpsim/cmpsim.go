// Package cmpsim is the functional simulator of the paper's evaluation
// platform (§5, Table 1): a tiled 16-core CMP whose private caches are
// kept coherent by an address-interleaved distributed directory, one slice
// per tile.
//
// Two system configurations are modelled, exactly as §5 describes:
//
//   - Shared-L2: the directory tracks the private L1 caches — split I/D,
//     64 KB, 2-way, 64-byte blocks (two caches per core). Each slice's
//     worst-case tracked-block count ("1x") is 2048 entries.
//   - Private-L2: the directory tracks private 1 MB 16-way L2 caches (one
//     cache per core; "also representative of a system with a 3-level
//     cache hierarchy using two private levels and a shared LLC"). "1x"
//     is 16384 entries per slice.
//
// The simulator is tag-only and untimed: every directory metric the paper
// reports (occupancy, insertion attempts, forced invalidation rate, event
// mix) is a function of the fill/upgrade/eviction stream, which this model
// reproduces exactly. Timing-facing behaviour is exercised separately by
// internal/coherence.
package cmpsim

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/cache"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/tile"
	"cuckoodir/internal/workload"
)

// Kind selects the cache hierarchy the directory tracks.
type Kind int

// Hierarchy kinds.
const (
	// SharedL2 tracks per-core split I/D L1s backed by a shared NUCA L2.
	SharedL2 Kind = iota
	// PrivateL2 tracks per-core private L2 caches.
	PrivateL2
)

// String names the configuration as the paper does.
func (k Kind) String() string {
	switch k {
	case SharedL2:
		return "Shared-L2"
	case PrivateL2:
		return "Private-L2"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config is the system configuration (Table 1).
type Config struct {
	Kind  Kind
	Cores int
	// TrackedSets/TrackedAssoc is the geometry of each tracked private
	// cache (L1: 512x2; private L2: 1024x16, 64-byte blocks).
	TrackedSets  int
	TrackedAssoc int
}

// DefaultConfig returns the paper's 16-core configuration for the kind.
// For a kind other than SharedL2 or PrivateL2 it returns Config{Kind:
// kind}, which New refuses.
func DefaultConfig(kind Kind) Config {
	switch kind {
	case SharedL2:
		// 64 KB / 64 B / 2 ways = 512 sets.
		return Config{Kind: SharedL2, Cores: 16, TrackedSets: 512, TrackedAssoc: 2}
	case PrivateL2:
		// 1 MB / 64 B / 16 ways = 1024 sets.
		return Config{Kind: PrivateL2, Cores: 16, TrackedSets: 1024, TrackedAssoc: 16}
	default:
		return Config{Kind: kind}
	}
}

// NumCaches returns the number of tracked caches (two per core for
// SharedL2's split I/D, one per core for PrivateL2).
func (c Config) NumCaches() int {
	if c.Kind == SharedL2 {
		return 2 * c.Cores
	}
	return c.Cores
}

// Slices returns the number of directory slices (one per tile).
func (c Config) Slices() int { return c.Cores }

// FramesPerCache returns each tracked cache's frame count.
func (c Config) FramesPerCache() int { return c.TrackedSets * c.TrackedAssoc }

// OneXSliceCapacity returns the "1x" provisioning-factor capacity of one
// directory slice: the worst-case number of distinct blocks that map to it
// (total tracked frames divided by slice count), the baseline of Figure 9.
// It is 0 for a configuration without slices.
func (c Config) OneXSliceCapacity() int {
	if c.Slices() <= 0 {
		return 0
	}
	return c.NumCaches() * c.FramesPerCache() / c.Slices()
}

// validate reports a malformed configuration.
func (c Config) validate() error {
	if c.Kind != SharedL2 && c.Kind != PrivateL2 {
		return fmt.Errorf("cmpsim: unknown %v", c.Kind)
	}
	if c.Cores <= 0 || c.Cores&(c.Cores-1) != 0 {
		return fmt.Errorf("cmpsim: Cores = %d, need a power of two", c.Cores)
	}
	if c.TrackedSets <= 0 || c.TrackedSets&(c.TrackedSets-1) != 0 {
		return fmt.Errorf("cmpsim: TrackedSets = %d, need a power of two", c.TrackedSets)
	}
	if c.TrackedAssoc <= 0 {
		return fmt.Errorf("cmpsim: TrackedAssoc = %d, need > 0", c.TrackedAssoc)
	}
	if c.NumCaches() > 64 {
		return fmt.Errorf("cmpsim: %d tracked caches (%v, %d cores), at most 64", c.NumCaches(), c.Kind, c.Cores)
	}
	return nil
}

// CheckSlice returns the error New would return for the slice spec on
// this configuration (Spec.ValidateFor against the tracked caches),
// without building anything.
func (c Config) CheckSlice(slice directory.Spec) error {
	if err := slice.WithCaches(c.NumCaches()).ValidateFor(c.TrackedSets, c.TrackedAssoc); err != nil {
		return fmt.Errorf("cmpsim: slice: %w", err)
	}
	return nil
}

// System is one simulated CMP running one workload against one directory
// organization.
type System struct {
	cfg      Config
	tiles    *tile.Tiles
	gens     []*workload.Generator
	nextCore int
	accesses uint64
	occ      stats.Mean
	// occEvery controls occupancy sampling frequency (accesses).
	occEvery uint64
}

// New builds a system running the given workload profile, with one
// directory slice per tile built from the slice spec bound to the
// system's tracked-cache count. It checks the configuration, the profile
// and the spec (CheckSlice) before it builds anything.
func New(cfg Config, prof workload.Profile, seed uint64, slice directory.Spec) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(cfg.Cores); err != nil {
		return nil, fmt.Errorf("cmpsim: %w", err)
	}
	if err := cfg.CheckSlice(slice); err != nil {
		return nil, err
	}
	tiles, err := tile.New(cfg.NumCaches(), cfg.TrackedSets, cfg.TrackedAssoc, cfg.Slices(), slice)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, tiles: tiles, occEvery: 1024}
	for c := 0; c < cfg.Cores; c++ {
		s.gens = append(s.gens, workload.NewGenerator(prof, c, cfg.Cores, seed))
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// cacheID maps (core, instruction-fetch?) to a tracked cache index.
// SharedL2 splits I (even ids) and D (odd ids); PrivateL2 unifies.
func (s *System) cacheID(coreID int, code bool) int {
	if s.cfg.Kind == SharedL2 {
		id := coreID * 2
		if !code {
			id++
		}
		return id
	}
	return coreID
}

// homeSlice returns addr's home slice (tile.Home).
func (s *System) homeSlice(addr uint64) directory.Directory {
	return s.tiles.Slices[s.tiles.Home(addr)]
}

// Step simulates one access from the next core (round-robin).
func (s *System) Step() {
	coreID := s.nextCore
	s.nextCore = (s.nextCore + 1) % s.cfg.Cores
	a := s.gens[coreID].Next()
	s.access(coreID, a)
	s.accesses++
	if s.accesses%s.occEvery == 0 {
		s.occ.Add(s.occupancyNow())
	}
}

// Run simulates n accesses.
func (s *System) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Inject simulates one externally supplied access from coreID — the trace
// replay path. Mixing Inject with Step is allowed but loses the
// round-robin interleaving guarantee.
func (s *System) Inject(coreID int, a workload.Access) {
	if coreID < 0 || coreID >= s.cfg.Cores {
		panic("cmpsim: inject core out of range")
	}
	s.access(coreID, a)
	s.accesses++
	if s.accesses%s.occEvery == 0 {
		s.occ.Add(s.occupancyNow())
	}
}

// access performs one reference from coreID.
func (s *System) access(coreID int, a workload.Access) {
	cid := s.cacheID(coreID, a.Code)
	res := s.tiles.Caches[cid].Access(a.Addr, a.Write)

	// Replacement notification precedes the fill request, as in hardware
	// (and as the Duplicate-Tag mirroring invariant requires).
	if res.Victim != nil {
		s.homeSlice(res.Victim.Addr).Evict(res.Victim.Addr, cid)
	}

	var op directory.Op
	switch {
	case !res.Hit && a.Write:
		op = s.homeSlice(a.Addr).Write(a.Addr, cid)
	case !res.Hit:
		op = s.homeSlice(a.Addr).Read(a.Addr, cid)
	case res.NeedUpgrade:
		op = s.homeSlice(a.Addr).Write(a.Addr, cid)
	default:
		return
	}
	s.applyOp(a.Addr, cid, op)
}

// applyOp applies a directory operation's side effects to the caches.
func (s *System) applyOp(addr uint64, requester int, op directory.Op) {
	// Write invalidations: every listed cache drops its copy. Inexact
	// directories may list non-holders (spurious); Remove tolerates that.
	for m := op.Invalidate; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if c != requester {
			s.tiles.Caches[c].Remove(addr)
		}
	}
	// Directory-forced evictions: the tracked blocks are invalidated in
	// all their sharer caches ("forcing invalidation of cached blocks
	// tracked by the conflicting directory entries", §3.2). Note the
	// forced victim can be the just-inserted block itself when a Cuckoo
	// insertion fails.
	for _, f := range op.Forced {
		for m := f.Sharers; m != 0; m &= m - 1 {
			s.tiles.Caches[bits.TrailingZeros64(m)].Remove(f.Addr)
		}
	}
}

// occupancyNow returns current tracked entries / aggregate 1x capacity.
func (s *System) occupancyNow() float64 {
	entries := 0
	for _, d := range s.tiles.Slices {
		entries += d.Len()
	}
	return float64(entries) / float64(s.cfg.OneXSliceCapacity()*s.cfg.Slices())
}

// MeanOccupancy returns the time-averaged directory occupancy relative to
// the 1x capacity (Figure 8's metric). The value is meaningful after the
// caches are warm.
func (s *System) MeanOccupancy() float64 { return s.occ.Value() }

// ResetStats zeroes all cache and directory statistics and the occupancy
// series; contents are preserved. Call after warm-up.
func (s *System) ResetStats() {
	s.tiles.ResetStats()
	s.occ = stats.Mean{}
}

// DirStats returns the directory statistics merged across slices.
func (s *System) DirStats() *directory.Stats { return s.tiles.DirStats() }

// CacheStats returns the cache statistics summed over all tracked caches.
func (s *System) CacheStats() cache.Stats {
	var agg cache.Stats
	for _, c := range s.tiles.Caches {
		st := c.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Upgrades += st.Upgrades
		agg.Evictions += st.Evictions
		agg.Invalidations += st.Invalidations
	}
	return agg
}

// Accesses returns the number of simulated accesses.
func (s *System) Accesses() uint64 { return s.accesses }

// Slices returns the directory slices (for experiment-level inspection).
func (s *System) Slices() []directory.Directory { return s.tiles.Slices }

// CheckConsistency audits the caches against the directory slices in
// both directions (tile.Tiles.Check) and returns the first violation.
func (s *System) CheckConsistency() error { return s.tiles.Check(nil) }
