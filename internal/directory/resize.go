// Online resize: the per-shard migration state machine behind
// ShardedDirectory's live rehash (DESIGN.md §11).
//
// A resize flips one shard from its current slice ("from") to a freshly
// built replacement ("to") without stopping service: the shard's
// Directory is swapped for a migratingDir that probes the UNION of both
// tables, and ownership of each tracked block moves from -> to either
// when an access touches the block (touch migration, on the access
// path) or when a background migration step walks the next bounded run
// of the pending snapshot (MigrateShard — the engine's drainers call it
// between request runs, so other shards keep serving at full speed).
// When the pending cursor is exhausted the migratingDir unwraps to the
// bare "to" slice and the shard is out of migration state.
//
// Everything here executes under the owning shard's mutex and is
// deliberately off the hot path (//cuckoo:cold); the only resize state
// the hot path ever consults is one atomic counter (MigratingShards).

package directory

import (
	"errors"
	"fmt"
	"math/bits"

	"cuckoodir/internal/core"
)

// DefaultMigrationRun is the number of pending addresses one background
// migration step examines when neither the caller nor the shard's
// ResizePolicy picks a run length. Small enough that a step never
// holds a shard lock for long next to a drained request run, large
// enough that a few thousand entries migrate in tens of steps.
const DefaultMigrationRun = 64

// DefaultGrowthFactor is the capacity multiplier an auto-grow resize
// applies when ResizePolicy.Factor is 0.
const DefaultGrowthFactor = 2

// ErrResizeInProgress is returned by ResizeShardSpec when
// the shard is already migrating: a resize must complete before the
// next one can re-geometry the same shard.
var ErrResizeInProgress = errors.New("directory: shard resize already in progress")

// ResizePolicy configures automatic growth of a ShardedDirectory's
// shards. The zero value disables it; resizes then happen only through
// the explicit ResizeShardSpec API. Registry form:
// "sharded-8^grow=0.85x2(cuckoo-4x512)".
type ResizePolicy struct {
	// MaxLoad is the per-shard load factor (Len/Capacity) at or above
	// which the shard is grown, in (0, 1]. 0 disables automatic growth.
	MaxLoad float64
	// Factor multiplies the slice geometry on each growth (sets for
	// geometric organizations, capacity for in-cache/ideal). Must be a
	// power of two >= 2, or 0 for DefaultGrowthFactor.
	Factor int
	// Run is the number of pending addresses one background migration
	// step examines (0 = DefaultMigrationRun).
	Run int
}

// validate reports whether the policy is well-formed. The zero policy
// is valid (disabled); a non-trigger field without MaxLoad is rejected
// as a likely mistake.
func (p ResizePolicy) validate() error {
	if p == (ResizePolicy{}) {
		return nil
	}
	if p.MaxLoad == 0 {
		return fmt.Errorf("directory: resize policy: Factor/Run set but MaxLoad = 0 (the growth trigger; set it in (0,1])")
	}
	if p.MaxLoad < 0 || p.MaxLoad > 1 {
		return fmt.Errorf("directory: resize policy: MaxLoad = %v, need 0 < MaxLoad <= 1 (a per-shard load factor)", p.MaxLoad)
	}
	if f := p.Factor; f != 0 && (f < 2 || f&(f-1) != 0) {
		return fmt.Errorf("directory: resize policy: Factor = %d, need a power of two >= 2 (or 0 for the default %d)", f, DefaultGrowthFactor)
	}
	if p.Run < 0 {
		return fmt.Errorf("directory: resize policy: Run = %d, need >= 0 (0 = default %d)", p.Run, DefaultMigrationRun)
	}
	return nil
}

// factor returns the effective growth factor.
func (p ResizePolicy) factor() int {
	if p.Factor == 0 {
		return DefaultGrowthFactor
	}
	return p.Factor
}

// run returns the effective migration run length.
func (p ResizePolicy) run() int {
	if p.Run == 0 {
		return DefaultMigrationRun
	}
	return p.Run
}

// ResizeStats is a lock-free snapshot of a ShardedDirectory's resize
// activity. It is monitoring output, not a mergeable stats record.
type ResizeStats struct {
	// Started and Completed count shard resizes begun and finished.
	// Started - Completed is NOT InProgress in general (snapshots are
	// per-field atomic); use InProgress.
	Started, Completed uint64
	// MigratedEntries counts tracked blocks moved old -> new table.
	MigratedEntries uint64
	// MigrationForced counts forced evictions the re-insertions of
	// BACKGROUND migration steps caused in the new table (access-path
	// touch migrations report theirs in the access's own Op.Forced and
	// the shard counters instead). With headroom in the new geometry —
	// the entire point of growing — this stays 0; a victim stash
	// (CuckooParams.StashSize) absorbs displacement failures the same
	// way it does for ordinary insertions.
	MigrationForced uint64
	// InProgress is the number of shards currently migrating.
	InProgress int
}

// migratingDir is the union view a shard serves while its contents move
// from the old slice to the new one. It implements Directory but is
// only ever reached through the owning dirShard's mutex — like every
// non-sharded implementation in this package it is NOT concurrency-safe
// on its own.
//
// Invariant: a block address is tracked by AT MOST ONE of from/to at
// any instant. move removes the address from the old table before
// re-inserting it into the new one, all under the shard lock, so no
// census (ForEach/Len/Lookup) can ever observe an entry twice or not at
// all.
type migratingDir struct {
	from, to Directory
	// pending is the address snapshot taken when the resize began; next
	// is the background cursor. Addresses an access touch-migrated (or
	// evicted) before the cursor reaches them are simply misses in from
	// by then — the cursor never moves an address twice.
	pending []uint64
	next    int
}

// done reports whether the background cursor has exhausted the pending
// snapshot (the migration's completion condition).
func (m *migratingDir) done() bool { return m.next >= len(m.pending) }

// move migrates addr's entry from the old table into the new one if the
// old table still tracks it, returning any forced evictions the
// re-insertion caused and whether an entry actually moved. Inexact
// organizations (Tagless, coarse formats) surface superset sharer
// masks; re-inserting the superset keeps the union view in the same
// conservative-correctness class as the organization itself.
func (m *migratingDir) move(addr uint64) (forced []Forced, moved bool) {
	sharers, ok := m.from.Lookup(addr)
	if !ok || sharers == 0 {
		return nil, false
	}
	// Evict every sharer from the old table first (the last eviction
	// drops the tag), then rebuild the mask in the new table. The shard
	// lock is held throughout, so the entry is never visible twice.
	for s := sharers; s != 0; {
		c := bits.TrailingZeros64(s)
		s &^= 1 << uint(c)
		m.from.Evict(addr, c)
	}
	for s := sharers; s != 0; {
		c := bits.TrailingZeros64(s)
		s &^= 1 << uint(c)
		op := m.to.Read(addr, c)
		forced = append(forced, op.Forced...)
	}
	return forced, true
}

// step runs one bounded background migration step: up to max pending
// addresses are examined (already-migrated ones are cheap Lookup
// misses) and moved if still owned by the old table.
func (m *migratingDir) step(max int) (moved, forcedBlocks int, done bool) {
	for n := 0; n < max && m.next < len(m.pending); n++ {
		forced, ok := m.move(m.pending[m.next])
		m.next++
		if ok {
			moved++
		}
		for _, f := range forced {
			forcedBlocks += bits.OnesCount64(f.Sharers)
		}
	}
	return moved, forcedBlocks, m.done()
}

// Name implements Directory (the target slice names the shard).
func (m *migratingDir) Name() string { return m.to.Name() }

// NumCaches implements Directory.
func (m *migratingDir) NumCaches() int { return m.to.NumCaches() }

// Read implements Directory: touch-migrate, then read the new table.
// Forced evictions the migration itself caused are merged into the
// returned Op so the caller invalidates them like any others.
func (m *migratingDir) Read(addr uint64, cache int) Op {
	forced, _ := m.move(addr)
	op := m.to.Read(addr, cache)
	op.Forced = append(forced, op.Forced...)
	return op
}

// Write implements Directory: touch-migrate, then write the new table.
func (m *migratingDir) Write(addr uint64, cache int) Op {
	forced, _ := m.move(addr)
	op := m.to.Write(addr, cache)
	op.Forced = append(forced, op.Forced...)
	return op
}

// Evict implements Directory: the eviction lands in whichever table
// still tracks the block (no point moving an entry to shrink it).
func (m *migratingDir) Evict(addr uint64, cache int) {
	if _, ok := m.from.Lookup(addr); ok {
		m.from.Evict(addr, cache)
		return
	}
	m.to.Evict(addr, cache)
}

// Lookup implements Directory over the union.
func (m *migratingDir) Lookup(addr uint64) (uint64, bool) {
	if sharers, ok := m.to.Lookup(addr); ok {
		return sharers, ok
	}
	return m.from.Lookup(addr)
}

// Stats implements Directory with a merged snapshot of both tables
// (migration re-insertions count as the new table's insertions).
func (m *migratingDir) Stats() *Stats {
	agg := core.MergeDirStats()
	agg.Merge(m.from.Stats())
	agg.Merge(m.to.Stats())
	return agg
}

// ResetStats implements Directory.
func (m *migratingDir) ResetStats() {
	m.from.ResetStats()
	m.to.ResetStats()
}

// Capacity implements Directory, reporting the TARGET capacity: the old
// table is draining, so its slots are not real headroom.
func (m *migratingDir) Capacity() int { return m.to.Capacity() }

// Len implements Directory (the tables are disjoint, so the sum is
// exact).
func (m *migratingDir) Len() int { return m.from.Len() + m.to.Len() }

// ForEach implements Directory: new table first, then the not-yet-moved
// remainder. Disjointness guarantees no address is visited twice.
func (m *migratingDir) ForEach(fn func(addr, sharers uint64) bool) {
	stopped := false
	m.to.ForEach(func(addr, sharers uint64) bool {
		if !fn(addr, sharers) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	m.from.ForEach(fn)
}

var _ Directory = (*migratingDir)(nil)

// ResizePolicy returns the automatic-growth policy the directory was
// built with (zero when disabled).
func (s *ShardedDirectory) ResizePolicy() ResizePolicy { return s.policy }

// MigratingShards returns the number of shards currently in migration
// state, lock-free — the one resize signal consulted on hot paths (the
// engine's drain loop polls it between runs).
//
//cuckoo:hotpath
func (s *ShardedDirectory) MigratingShards() int { return int(s.migCount.Load()) }

// ShardMigrating reports whether shard h is currently migrating,
// lock-free.
//
//cuckoo:cold
func (s *ShardedDirectory) ShardMigrating(h int) bool { return s.shards[h].migrating.Load() }

// ResizeStats returns a lock-free snapshot of resize activity.
//
//cuckoo:cold
func (s *ShardedDirectory) ResizeStats() ResizeStats {
	return ResizeStats{
		Started:         s.resizeStarted.Load(),
		Completed:       s.resizeDone.Load(),
		MigratedEntries: s.migratedEntries.Load(),
		MigrationForced: s.migrationForced.Load(),
		InProgress:      int(s.migCount.Load()),
	}
}

// ShardLoad returns shard h's load factor (Len/Capacity; 0 when the
// slice is unbounded). During a migration it is the load of the TARGET
// capacity, matching what a completed migration will report.
func (s *ShardedDirectory) ShardLoad(h int) float64 {
	if h < 0 || h >= len(s.shards) {
		badShard(h, len(s.shards))
	}
	sh := s.shards[h]
	sh.mu.Lock()
	c, l := sh.dir.Capacity(), sh.dir.Len()
	sh.mu.Unlock()
	if c <= 0 {
		return 0
	}
	return float64(l) / float64(c)
}

// ResizeShardSpec begins a live resize of shard h to a replacement
// slice built from the spec (any Shard field is ignored; the cache count
// is bound to the directory's): the shard flips into migration state,
// and subsequent MigrateShard calls (the engine's drainers, or
// FinishResize) move its contents over incrementally while the union
// of both tables keeps serving. An empty shard completes immediately.
// The spec is retained, so a ResizePolicy keeps growing the shard from
// the new geometry.
func (s *ShardedDirectory) ResizeShardSpec(h int, slice Spec) error {
	if h < 0 || h >= len(s.shards) {
		return fmt.Errorf("directory: ResizeShardSpec: shard %d out of range (have %d)", h, len(s.shards))
	}
	slice.Shard = ShardSpec{}
	slice = slice.WithCaches(s.numCaches)
	nd, err := Build(slice)
	if err != nil {
		return err
	}
	sh := s.shards[h]
	sh.mu.Lock()
	if _, ok := sh.dir.(*migratingDir); ok {
		sh.mu.Unlock()
		return ErrResizeInProgress
	}
	old := sh.dir
	sh.spec = slice
	if old.Len() == 0 {
		// Nothing to migrate: complete the resize in place.
		sh.dir = nd
		sh.mu.Unlock()
		s.resizeStarted.Add(1)
		s.resizeDone.Add(1)
		return nil
	}
	m := &migratingDir{from: old, to: nd, pending: make([]uint64, 0, old.Len())}
	old.ForEach(func(addr, _ uint64) bool {
		m.pending = append(m.pending, addr)
		return true
	})
	sh.dir = m
	sh.migrating.Store(true)
	sh.mu.Unlock()
	s.migCount.Add(1)
	s.resizeStarted.Add(1)
	return nil
}

// MigrateShard runs one bounded background migration step on shard h:
// up to max pending addresses are examined (max <= 0 selects the
// policy's run length, or DefaultMigrationRun) and any still tracked by
// the old table move to the new one. It returns how many entries moved
// and whether the shard's migration is complete — on completion the
// shard unwraps to the bare new slice. A shard that is not migrating
// returns (0, true).
//
// The engine's drainers call this between request runs; callers without
// an engine can drive it directly (see FinishResize).
//
//cuckoo:cold
func (s *ShardedDirectory) MigrateShard(h, max int) (moved int, done bool) {
	if h < 0 || h >= len(s.shards) {
		badShard(h, len(s.shards))
	}
	if max <= 0 {
		max = s.policy.run()
	}
	sh := s.shards[h]
	sh.mu.Lock()
	m, ok := sh.dir.(*migratingDir)
	if !ok {
		sh.mu.Unlock()
		return 0, true
	}
	moved, forcedBlocks, done := m.step(max)
	if done {
		sh.dir = m.to
		sh.migrating.Store(false)
	}
	sh.mu.Unlock()
	if moved > 0 {
		s.migratedEntries.Add(uint64(moved))
	}
	if forcedBlocks > 0 {
		s.migrationForced.Add(uint64(forcedBlocks))
	}
	if done {
		s.migCount.Add(-1)
		s.resizeDone.Add(1)
	}
	return moved, done
}

// FinishResize drives shard h's migration to completion synchronously.
func (s *ShardedDirectory) FinishResize(h int) {
	for {
		if _, done := s.MigrateShard(h, 0); done {
			return
		}
	}
}

// FinishResizes drives every in-progress migration to completion
// synchronously — the stop-the-world fallback for callers without an
// engine, and the cleanup path after Engine.Close left migrations
// parked (the union view stays fully correct in the meantime).
func (s *ShardedDirectory) FinishResizes() {
	for h := range s.shards {
		s.FinishResize(h)
	}
}

// GrowShard applies the directory's ResizePolicy to shard h: when the
// shard is bounded, not already migrating, and at or above the policy's
// MaxLoad, a replacement with Factor-times the geometry is built from
// the shard's retained spec and a live resize begins. It reports
// whether a resize started. With no policy (or no load trigger hit) it
// returns (false, nil); a triggered grow whose grown geometry fails
// validation returns an error.
//
//cuckoo:cold
func (s *ShardedDirectory) GrowShard(h int) (bool, error) {
	if s.policy.MaxLoad <= 0 {
		return false, nil
	}
	if h < 0 || h >= len(s.shards) {
		return false, fmt.Errorf("directory: GrowShard: shard %d out of range (have %d)", h, len(s.shards))
	}
	sh := s.shards[h]
	if sh.migrating.Load() {
		return false, nil
	}
	sh.mu.Lock()
	if _, ok := sh.dir.(*migratingDir); ok {
		sh.mu.Unlock()
		return false, nil
	}
	c, l := sh.dir.Capacity(), sh.dir.Len()
	spec := sh.spec
	sh.mu.Unlock()
	if c <= 0 || float64(l) < s.policy.MaxLoad*float64(c) {
		return false, nil
	}
	grown, err := grownSpec(spec, s.policy.factor())
	if err != nil {
		return false, err
	}
	if err := s.ResizeShardSpec(h, grown); err != nil {
		if errors.Is(err, ErrResizeInProgress) {
			// Another grower won the race between the load check and
			// ResizeShardSpec; their resize covers this trigger.
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// grownSpec scales a slice spec's capacity by factor: sets for the
// geometric organizations, Capacity for in-cache/ideal. The result is
// validated, so repeated growth stops with an error at the maxEntries
// bound instead of overflowing.
func grownSpec(slice Spec, factor int) (Spec, error) {
	g := slice
	switch g.Org {
	case OrgInCache, OrgIdeal:
		if g.Capacity <= 0 {
			return Spec{}, fmt.Errorf("directory: GrowShard: %s slice is unbounded, nothing to grow", g.Org)
		}
		g.Capacity *= factor
	default:
		g.Geometry.Sets *= factor
	}
	if err := g.validate(true); err != nil {
		return Spec{}, err
	}
	return g, nil
}
