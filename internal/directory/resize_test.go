// Online-resize tests: migration state-machine semantics, and the
// oracle-backed census invariant — no entry lost, none duplicated,
// sharer masks intact — across live resizes under concurrent
// ApplyShard traffic (the engine-path variant lives in
// internal/engine). ISSUE: the resize ships together with this suite;
// the correctness claim is machine-checked, not asserted.

package directory

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"cuckoodir/internal/core"
)

// resizeSpec is the small cuckoo slice the resize tests grow from.
func resizeSpec(sets int) Spec {
	return Spec{Org: OrgCuckoo, NumCaches: 8, Geometry: Geometry{Ways: 4, Sets: sets}}
}

// buildResizable builds a sharded directory of shards cuckoo-4x{sets}
// slices with the spec retained (the Build path), tracking 8 caches.
func buildResizable(t *testing.T, shards, sets int) *ShardedDirectory {
	t.Helper()
	spec := resizeSpec(sets)
	spec.Shard.Count = shards
	d, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d.(*ShardedDirectory)
}

// census collects the directory's full contents, failing the test on a
// duplicate address (an entry visible in both tables of a migration).
func census(t *testing.T, d Directory) map[uint64]uint64 {
	t.Helper()
	got := map[uint64]uint64{}
	d.ForEach(func(addr, sharers uint64) bool {
		if _, dup := got[addr]; dup {
			t.Errorf("census: address %#x visited twice (entry duplicated across old/new tables)", addr)
		}
		got[addr] = sharers
		return true
	})
	return got
}

// checkCensus compares a census against the oracle exactly.
func checkCensus(t *testing.T, d Directory, want map[uint64]uint64) {
	t.Helper()
	got := census(t, d)
	for addr, sharers := range want {
		g, ok := got[addr]
		if !ok {
			t.Errorf("census: address %#x lost (want sharers %#x)", addr, sharers)
			continue
		}
		if g != sharers {
			t.Errorf("census: address %#x sharers = %#x, want %#x", addr, g, sharers)
		}
	}
	for addr := range got {
		if _, ok := want[addr]; !ok {
			t.Errorf("census: address %#x tracked but never left live by any producer", addr)
		}
	}
	if len(got) != d.Len() {
		t.Errorf("census: ForEach visited %d entries, Len reports %d", len(got), d.Len())
	}
}

// TestMigratingDirSemantics drives one shard through a full resize
// single-threaded, checking the union view at every stage.
func TestMigratingDirSemantics(t *testing.T) {
	d := buildResizable(t, 1, 64) // one shard: everything homes onto it
	const n = 100
	truth := map[uint64]uint64{}
	for a := uint64(1); a <= n; a++ {
		d.Write(a, int(a%8))
		truth[a] = 1 << (a % 8)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}

	if err := d.ResizeShardSpec(0, resizeSpec(256)); err != nil {
		t.Fatal(err)
	}
	if got := d.MigratingShards(); got != 1 {
		t.Fatalf("MigratingShards = %d, want 1", got)
	}
	if !d.ShardMigrating(0) {
		t.Fatal("ShardMigrating(0) = false during migration")
	}
	if err := d.ResizeShardSpec(0, resizeSpec(512)); !errors.Is(err, ErrResizeInProgress) {
		t.Fatalf("second resize error = %v, want ErrResizeInProgress", err)
	}

	// Union view before any migration step: nothing lost, capacity is
	// the target's.
	checkCensus(t, d, truth)
	if want := 4 * 256; d.Capacity() != want {
		t.Errorf("Capacity during migration = %d, want target %d", d.Capacity(), want)
	}
	for a := uint64(1); a <= n; a++ {
		sharers, ok := d.Lookup(a)
		if !ok || sharers != truth[a] {
			t.Fatalf("Lookup(%#x) = %#x,%v during migration, want %#x,true", a, sharers, ok, truth[a])
		}
	}

	// Access-path behaviour mid-migration: touch migration on
	// read/write, eviction routed to whichever table holds the block.
	d.Read(1, 3) // touch-migrates addr 1, then adds cache 3
	truth[1] |= 1 << 3
	d.Evict(2, 2) // addr 2 still in the old table; sole sharer drops the tag
	delete(truth, 2)
	d.Write(n+1, 0) // new insert goes to the new table
	truth[n+1] = 1
	checkCensus(t, d, truth)

	// Bounded background steps: each examines at most the run length,
	// and the cursor completes even though some addresses were already
	// touch-migrated or evicted.
	steps := 0
	for {
		_, done := d.MigrateShard(0, 16)
		steps++
		if done {
			break
		}
		if steps > n {
			t.Fatal("migration never completed")
		}
	}
	if steps < n/16 {
		t.Errorf("migration finished in %d steps — run bound not honored", steps)
	}
	if d.MigratingShards() != 0 || d.ShardMigrating(0) {
		t.Error("shard still marked migrating after completion")
	}
	checkCensus(t, d, truth)

	rs := d.ResizeStats()
	if rs.Started != 1 || rs.Completed != 1 || rs.InProgress != 0 {
		t.Errorf("ResizeStats = %+v, want 1 started, 1 completed, 0 in progress", rs)
	}
	if rs.MigrationForced != 0 {
		t.Errorf("MigrationForced = %d with 4x headroom, want 0", rs.MigrationForced)
	}
	// The background cursor moved everything the access path did not.
	if rs.MigratedEntries == 0 || rs.MigratedEntries > n {
		t.Errorf("MigratedEntries = %d, want in (0, %d]", rs.MigratedEntries, n)
	}

	// A further MigrateShard on a settled shard is a no-op.
	if forced, done := d.MigrateShard(0, 16); forced != nil || !done {
		t.Errorf("MigrateShard on settled shard = (%v, %v), want (nil, true)", forced, done)
	}
	if got := d.ResizeStats().Steps; got != uint64(steps) {
		t.Errorf("ResizeStats.Steps = %d after %d migrating steps", got, steps)
	}
}

// TestMigratedEntriesCountsTouches: MigratedEntries counts every entry
// a resize moves, whether a background step moved it or an access
// touched it first. A shard holds n blocks; k of them are read or
// written mid-migration, which moves them ahead of the cursor, and
// FinishResizes moves the rest: the count reads n, not n-k.
func TestMigratedEntriesCountsTouches(t *testing.T) {
	const n, k = 200, 37
	d := buildResizable(t, 1, 128)
	for a := uint64(1); a <= n; a++ {
		d.Write(a, 0)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d after %d fills, want no forced eviction", d.Len(), n)
	}
	if err := d.ResizeShardSpec(0, resizeSpec(256)); err != nil {
		t.Fatal(err)
	}
	for a := uint64(1); a <= k; a++ {
		if a%2 == 0 {
			d.Write(a, 1)
		} else {
			d.Read(a, 1)
		}
	}
	if forced := d.FinishResizes(); len(forced) != 0 {
		t.Fatalf("FinishResizes forced %d entries out of a table twice the size", len(forced))
	}
	if got := d.ResizeStats().MigratedEntries; got != n {
		t.Errorf("MigratedEntries = %d after %d touches and FinishResizes, want %d", got, k, n)
	}
}

// TestResizeEmptyShard: an empty shard's resize completes in place.
func TestResizeEmptyShard(t *testing.T) {
	d := buildResizable(t, 2, 64)
	if err := d.ResizeShardSpec(1, resizeSpec(128)); err != nil {
		t.Fatal(err)
	}
	if d.ShardMigrating(1) || d.MigratingShards() != 0 {
		t.Error("empty-shard resize left the shard migrating")
	}
	rs := d.ResizeStats()
	if rs.Started != 1 || rs.Completed != 1 {
		t.Errorf("ResizeStats = %+v, want started=completed=1", rs)
	}
}

// TestResizeKeepsStats: a resize replaces a shard's slice, and Stats
// keeps the replaced slice's counts whether the shard migrates or
// resizes in place; ResetStats clears them.
func TestResizeKeepsStats(t *testing.T) {
	d := buildResizable(t, 1, 64) // 256 entries for 300 blocks
	for a := uint64(1); a <= 300; a++ {
		d.Read(a, 0)
		d.Read(a, 1)
	}
	for a := uint64(1); a <= 50; a++ {
		d.Evict(a, 0)
		d.Evict(a, 1)
	}
	atLeast := func(stage string, prev *Stats) {
		t.Helper()
		st := d.Stats()
		for ev, n := range st.Events {
			if n < prev.Events[ev] {
				t.Errorf("%s: %v = %d, below the %d before", stage, core.Event(ev), n, prev.Events[ev])
			}
		}
		if st.ForcedEvictions < prev.ForcedEvictions || st.Attempts.Count() < prev.Attempts.Count() {
			t.Errorf("%s: forced %d, attempts %d; below the %d and %d before",
				stage, st.ForcedEvictions, st.Attempts.Count(), prev.ForcedEvictions, prev.Attempts.Count())
		}
	}
	before := d.Stats()
	if before.ForcedEvictions == 0 {
		t.Fatal("the fill forced no evictions")
	}
	if err := d.ResizeShardSpec(0, resizeSpec(256)); err != nil {
		t.Fatal(err)
	}
	if !d.ShardMigrating(0) {
		t.Fatal("a non-empty shard resized in place")
	}
	d.FinishResizes()
	atLeast("after a migrating resize", before)

	for addr, sharers := range census(t, d) {
		for s := sharers; s != 0; s &= s - 1 {
			d.Evict(addr, bits.TrailingZeros64(s))
		}
	}
	emptied := d.Stats()
	if err := d.ResizeShardSpec(0, resizeSpec(64)); err != nil {
		t.Fatal(err)
	}
	if d.ShardMigrating(0) {
		t.Fatal("an empty shard is migrating")
	}
	atLeast("after an in-place resize", emptied)

	d.ResetStats()
	if st := d.Stats(); st.Events != (core.EventCounts{}) || st.ForcedEvictions != 0 || st.Attempts.Count() != 0 {
		t.Errorf("after ResetStats: events %v, forced %d, attempts %d; want zeros",
			st.Events, st.ForcedEvictions, st.Attempts.Count())
	}
}

// TestShrinkReportsForced: a migration into a table too small for the
// shard's blocks forces entries out, and the background steps return a
// Forced record for exactly each block the census lost, so a caller
// can invalidate every cached copy the directory dropped.
func TestShrinkReportsForced(t *testing.T) {
	d := buildResizable(t, 1, 128) // 512 entries
	const n = 400
	for a := uint64(1); a <= n; a++ {
		d.Read(a, 0)
		d.Read(a, 1)
	}
	if c := d.Counters(); c.Forced != 0 {
		t.Fatalf("the fill forced %d evictions at 78%% load", c.Forced)
	}
	if err := d.ResizeShardSpec(0, resizeSpec(64)); err != nil { // 256 entries
		t.Fatal(err)
	}
	forced := d.FinishResizes()
	got := census(t, d)
	reported := map[uint64]bool{}
	for _, f := range forced {
		if reported[f.Addr] {
			t.Errorf("address %#x reported forced twice", f.Addr)
		}
		reported[f.Addr] = true
		if f.Sharers != 0b11 {
			t.Errorf("address %#x forced with sharers %#b, want 0b11", f.Addr, f.Sharers)
		}
		if _, ok := got[f.Addr]; ok {
			t.Errorf("address %#x reported forced but still tracked", f.Addr)
		}
	}
	for a := uint64(1); a <= n; a++ {
		if _, ok := got[a]; !ok && !reported[a] {
			t.Errorf("address %#x lost without a Forced record", a)
		}
	}
	if len(forced) < n-4*64 {
		t.Errorf("%d entries forced out; %d blocks cannot fit in 256 entries", len(forced), n)
	}
	if rs := d.ResizeStats(); rs.MigrationForced != uint64(len(forced)) {
		t.Errorf("ResizeStats.MigrationForced = %d, want the %d entries forced", rs.MigrationForced, len(forced))
	}
}

// TestResizeShardErrors: the explicit API rejects malformed calls with
// errors, not panics, and binds a replacement spec to the directory:
// its cache count is the directory's and its Shard field is dropped.
func TestResizeShardErrors(t *testing.T) {
	d := buildResizable(t, 2, 64)
	if err := d.ResizeShardSpec(5, resizeSpec(128)); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := d.ResizeShardSpec(0, Spec{Org: "nonsense"}); err == nil {
		t.Error("invalid replacement spec accepted")
	}
	nested := resizeSpec(128).WithCaches(4)
	nested.Shard = ShardSpec{Count: 2}
	if err := d.ResizeShardSpec(0, nested); err != nil {
		t.Fatal(err)
	}
	got := d.shards[0].dir
	if _, ok := got.(*ShardedDirectory); ok || got.NumCaches() != 8 || got.Capacity() != 4*128 {
		t.Errorf("replacement %s tracks %d caches with capacity %d; want an unsharded 8-cache cuckoo-4x128",
			got.Name(), got.NumCaches(), got.Capacity())
	}
}

// TestGrowShardPolicy: automatic growth triggers at the policy's load
// factor, scales by the factor, and compounds across resizes.
func TestGrowShardPolicy(t *testing.T) {
	spec := resizeSpec(16) // 64 slots per shard
	spec.Shard = ShardSpec{Count: 1, Resize: ResizePolicy{MaxLoad: 0.5, Factor: 4}}
	d := MustBuild(spec).(*ShardedDirectory)

	if started, err := d.GrowShard(0); err != nil || started {
		t.Fatalf("GrowShard under threshold = (%v, %v), want (false, nil)", started, err)
	}
	for a := uint64(1); a <= 32; a++ { // load = 0.5
		d.Write(a, 0)
	}
	started, err := d.GrowShard(0)
	if err != nil || !started {
		t.Fatalf("GrowShard at threshold = (%v, %v), want (true, nil)", started, err)
	}
	if started, err = d.GrowShard(0); err != nil || started {
		t.Fatalf("GrowShard while migrating = (%v, %v), want (false, nil)", started, err)
	}
	d.FinishResizes()
	if want := 4 * 64; d.Capacity() != want {
		t.Fatalf("capacity after grow = %d, want %d (factor 4)", d.Capacity(), want)
	}
	// The grown spec was retained: the next grow compounds from it.
	for a := uint64(33); a <= 128; a++ {
		d.Write(a, 0)
	}
	if started, err = d.GrowShard(0); err != nil || !started {
		t.Fatalf("second GrowShard = (%v, %v), want (true, nil)", started, err)
	}
	d.FinishResizes()
	if want := 4 * 256; d.Capacity() != want {
		t.Fatalf("capacity after second grow = %d, want %d", d.Capacity(), want)
	}
	if rs := d.ResizeStats(); rs.Started != 2 || rs.Completed != 2 {
		t.Errorf("ResizeStats = %+v, want 2 started, 2 completed", rs)
	}
}

// resizeProducer drives deterministic churn over a disjoint address
// range as cache p: every address is written, a third of them churn
// (write, evict, rewrite), and a sixth end evicted. The returned oracle
// is exact because no other producer touches the range and forced
// evictions are asserted zero by the callers.
func resizeProducer(d *ShardedDirectory, p int, lo, hi uint64) map[uint64]uint64 {
	truth := map[uint64]uint64{}
	shards := d.ShardCount()
	batches := make([][]Access, shards)
	flush := func() {
		for h, b := range batches {
			if len(b) > 0 {
				d.ApplyShard(h, b)
				batches[h] = batches[h][:0]
			}
		}
	}
	add := func(k AccessKind, addr uint64) {
		h := d.ShardOf(addr)
		batches[h] = append(batches[h], Access{Kind: k, Addr: addr, Cache: p})
		if len(batches[h]) >= 64 {
			d.ApplyShard(h, batches[h])
			batches[h] = batches[h][:0]
		}
	}
	for addr := lo; addr < hi; addr++ {
		add(AccessWrite, addr)
		truth[addr] = 1 << uint(p)
		switch addr % 6 {
		case 1, 3:
			add(AccessEvict, addr)
			add(AccessWrite, addr)
		case 5:
			add(AccessEvict, addr)
			delete(truth, addr)
		}
	}
	flush()
	return truth
}

// TestResizeCensusUnderApplyShard is the ViaApplyShard invariant test:
// concurrent producers churn disjoint ranges through ApplyShard while
// shard 0 resizes live (a dedicated migrator goroutine steps it, as the
// engine's drainer would); afterwards the census must match the merged
// oracles exactly — no entry lost, none duplicated, sharer masks
// intact.
func TestResizeCensusUnderApplyShard(t *testing.T) {
	const producers = 4
	const perProducer = 400
	d := buildResizable(t, 4, 256) // 4096 slots/shard: ample headroom

	truths := make([]map[uint64]uint64, producers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			lo := uint64(1 + p*perProducer)
			truths[p] = resizeProducer(d, p, lo, lo+perProducer)
		}(p)
	}

	// The migrator: wait for some traffic, then grow shard 0 live and
	// step it incrementally — racing the producers by design.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for d.Counters().Ops() < producers*perProducer/4 {
			// Let the producers get ahead so the pending snapshot is
			// non-trivial.
		}
		if err := d.ResizeShardSpec(0, resizeSpec(1024)); err != nil {
			t.Error(err)
			return
		}
		for {
			if _, done := d.MigrateShard(0, 32); done {
				return
			}
		}
	}()
	close(start)
	wg.Wait()

	if d.MigratingShards() != 0 {
		t.Fatal("migration still in progress after the migrator finished")
	}
	if c := d.Counters(); c.Forced != 0 {
		t.Fatalf("forced evictions = %d with ample headroom — the oracle would diverge", c.Forced)
	}
	if rs := d.ResizeStats(); rs.MigrationForced != 0 {
		t.Fatalf("background migration forced %d evictions with ample headroom", rs.MigrationForced)
	}
	want := map[uint64]uint64{}
	for _, truth := range truths {
		for addr, sharers := range truth {
			want[addr] = sharers
		}
	}
	checkCensus(t, d, want)
}

// TestShrinkAndRegrowChurn is the shrink-and-regrow variant: shard
// contents are churned down, the shard shrinks to a quarter of its
// geometry (still fitting the survivors), then regrows — with
// concurrent churn traffic across both migrations.
func TestShrinkAndRegrowChurn(t *testing.T) {
	d := buildResizable(t, 2, 256) // 1024 slots/shard
	const n = 300
	truth := map[uint64]uint64{}
	for a := uint64(1); a <= n; a++ {
		d.Write(a, int(a%8))
		truth[a] = 1 << (a % 8)
	}
	// Churn down: evict two thirds so the survivors fit a 4x64=256-slot
	// shard even if every survivor homed onto one shard.
	for a := uint64(1); a <= n; a++ {
		if a%3 != 0 {
			d.Evict(a, int(a%8))
			delete(truth, a)
		}
	}

	// churn writes fresh addresses from base until stopped, evicting
	// each even one at once and each odd one 64 steps later: at most 32
	// churned addresses are live at any time, so the shard's load does
	// not depend on how long the resize takes.
	churn := func(stop chan struct{}, base uint64) map[uint64]uint64 {
		local := map[uint64]uint64{}
		for a := base; ; a++ {
			select {
			case <-stop:
				return local
			default:
			}
			d.Write(a, 1)
			local[a] = 2
			if a%2 == 0 {
				d.Evict(a, 1)
				delete(local, a)
			}
			if old := a - 64; old >= base && old%2 == 1 {
				d.Evict(old, 1)
				delete(local, old)
			}
		}
	}

	for round, sets := range []int{64, 256} { // shrink, then regrow
		stop := make(chan struct{})
		var churned map[uint64]uint64
		var wg sync.WaitGroup
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			churned = churn(stop, base)
		}(uint64(round+1) << 32) // disjoint per round, however long each runs

		if err := d.ResizeShardSpec(0, resizeSpec(sets)); err != nil {
			t.Fatal(err)
		}
		if err := d.ResizeShardSpec(1, resizeSpec(sets)); err != nil {
			t.Fatal(err)
		}
		d.FinishResizes()
		close(stop)
		wg.Wait()
		for addr, sharers := range churned {
			truth[addr] = sharers
		}
		if c := d.Counters(); c.Forced != 0 {
			t.Fatalf("round %d: forced evictions = %d — shrink target too small for the oracle", round, c.Forced)
		}
		checkCensus(t, d, truth)
	}
	if rs := d.ResizeStats(); rs.Started != 4 || rs.Completed != 4 {
		t.Errorf("ResizeStats = %+v, want 4 started, 4 completed", rs)
	}
}

// TestResizeSpecStringRoundTrip: specs carrying a resize policy render
// to registry names that parse back to the same spec.
func TestResizeSpecStringRoundTrip(t *testing.T) {
	for _, spec := range []Spec{
		{Org: OrgCuckoo, Geometry: Geometry{Ways: 4, Sets: 512},
			Shard: ShardSpec{Count: 8, Resize: ResizePolicy{MaxLoad: 0.85}}},
		{Org: OrgCuckoo, Geometry: Geometry{Ways: 4, Sets: 512},
			Shard: ShardSpec{Count: 8, Home: HomeInterleave, Resize: ResizePolicy{MaxLoad: 0.5, Factor: 4}}},
		{Org: OrgSparse, Geometry: Geometry{Ways: 8, Sets: 2048},
			Shard: ShardSpec{Count: 2, Resize: ResizePolicy{MaxLoad: 0.75, Factor: 2}}},
	} {
		name := spec.String()
		parsed, ok := ParseSpecName(name)
		if !ok {
			t.Errorf("%q did not parse back", name)
			continue
		}
		// Factor 2 renders as the default (omitted); normalize.
		want := spec
		if want.Shard.Resize.Factor == DefaultGrowthFactor {
			want.Shard.Resize.Factor = 0
		}
		if fmt.Sprint(parsed) != fmt.Sprint(want) || parsed.String() != name {
			t.Errorf("round trip %q -> %+v, want %+v", name, parsed, want)
		}
	}
}
