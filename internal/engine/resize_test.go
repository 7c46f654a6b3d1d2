// Online-resize tests at the engine layer: the ViaEngine census
// invariant (no entry lost or duplicated across a live per-shard
// rehash under concurrent multi-producer traffic), automatic growth
// driven by the drainers, and the lifecycle guarantees — Flush
// barriers and Close issued mid-migration quiesce deterministically.

package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/qos"
)

// resizableDir builds a sharded cuckoo directory through the Spec path
// (specs retained, so ResizeShardSpec/GrowShard work), 8 caches.
func resizableDir(t testing.TB, shards, sets int) *directory.ShardedDirectory {
	t.Helper()
	d, err := directory.BuildSharded(directory.Spec{
		Org:       directory.OrgCuckoo,
		NumCaches: 8,
		Geometry:  directory.Geometry{Ways: 4, Sets: sets},
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// engineProducer churns a disjoint address range as cache p through
// SubmitDetached batches, maintaining an exact local oracle (valid as
// long as no forced eviction occurs — callers assert that). passes > 1
// re-runs the churn so traffic stays live across a mid-stream resize.
func engineProducer(t *testing.T, eng *Engine, p int, lo, hi uint64, passes int) map[uint64]uint64 {
	t.Helper()
	ctx := context.Background()
	truth := map[uint64]uint64{}
	var batch []directory.Access
	add := func(k directory.AccessKind, addr uint64) {
		batch = append(batch, directory.Access{Kind: k, Addr: addr, Cache: p})
		if len(batch) >= 48 {
			if err := eng.SubmitDetachedClass(ctx, qos.Foreground, batch); err != nil {
				t.Error(err)
			}
			batch = nil
		}
	}
	for pass := 0; pass < passes; pass++ {
		for addr := lo; addr < hi; addr++ {
			add(directory.AccessWrite, addr)
			truth[addr] = 1 << uint(p)
			switch (addr + uint64(pass)) % 6 {
			case 1, 3:
				add(directory.AccessEvict, addr)
				add(directory.AccessWrite, addr)
			case 5:
				add(directory.AccessEvict, addr)
				delete(truth, addr)
			}
		}
	}
	if len(batch) > 0 {
		if err := eng.SubmitDetachedClass(ctx, qos.Foreground, batch); err != nil {
			t.Error(err)
		}
	}
	return truth
}

// checkEngineCensus compares the directory's full contents against the
// merged oracle exactly, failing on loss, duplication or a wrong mask.
func checkEngineCensus(t *testing.T, d *directory.ShardedDirectory, want map[uint64]uint64) {
	t.Helper()
	got := map[uint64]uint64{}
	d.ForEach(func(addr, sharers uint64) bool {
		if _, dup := got[addr]; dup {
			t.Errorf("census: address %#x visited twice (duplicated across old/new tables)", addr)
		}
		got[addr] = sharers
		return true
	})
	for addr, sharers := range want {
		g, ok := got[addr]
		if !ok {
			t.Errorf("census: address %#x lost (want sharers %#x)", addr, sharers)
		} else if g != sharers {
			t.Errorf("census: address %#x sharers = %#x, want %#x", addr, g, sharers)
		}
	}
	for addr := range got {
		if _, ok := want[addr]; !ok {
			t.Errorf("census: address %#x tracked but not in any oracle", addr)
		}
	}
}

// TestResizeCensusUnderEngine is the ViaEngine invariant test: four
// producers churn disjoint ranges through detached submissions while
// shard 0 is resized live through the engine; the drainers execute the
// migration between request runs. Afterwards the census must match the
// merged oracles exactly.
func TestResizeCensusUnderEngine(t *testing.T) {
	const producers = 4
	const perProducer = 300
	dir := resizableDir(t, 4, 256)
	eng, err := New(dir, Options{MigrationRun: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Cold blocks on shard 0 that no producer touches, applied before the
	// traffic starts: the resize below never finds shard 0 empty (even
	// when its drainer lags the others), and only drainer migration steps
	// can move these blocks, so the drainers' share of the migration stays
	// observable even when one coalesced run touch-migrates every hot one.
	truths := make([]map[uint64]uint64, producers+1)
	cold := map[uint64]uint64{}
	var seed []directory.Access
	for a := uint64(1 + producers*perProducer); len(seed) < 64; a++ {
		if dir.ShardOf(a) == 0 {
			seed = append(seed, directory.Access{Kind: directory.AccessWrite, Addr: a, Cache: 7})
			cold[a] = 1 << 7
		}
	}
	if err := eng.SubmitDetachedClass(context.Background(), qos.Foreground, seed); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	truths[producers] = cold
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			lo := uint64(1 + p*perProducer)
			truths[p] = engineProducer(t, eng, p, lo, lo+perProducer, 4)
		}(p)
	}

	// Mid-stream, grow shard 0 four-fold through the engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for dir.Counters().Ops() < uint64(producers*perProducer) {
			time.Sleep(100 * time.Microsecond)
		}
		if err := eng.ResizeShardSpec(0, directory.Spec{
			Org:      directory.OrgCuckoo,
			Geometry: directory.Geometry{Ways: 4, Sets: 1024},
		}); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()

	// The drainers finish the migration on their own (idle-queue steps);
	// wait for it, then barrier and close.
	deadline := time.Now().Add(10 * time.Second)
	for dir.MigratingShards() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("drainers never completed the migration")
		}
		time.Sleep(time.Millisecond)
	}
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	if c := dir.Counters(); c.Forced != 0 {
		t.Fatalf("forced evictions = %d with ample headroom — oracle invalid", c.Forced)
	}
	rs := dir.ResizeStats()
	if rs.Started != 1 || rs.Completed != 1 || rs.MigrationForced != 0 {
		t.Fatalf("ResizeStats = %+v, want exactly one clean completed resize", rs)
	}
	if rs.Steps == 0 {
		t.Error("ResizeStats: the drainers ran zero migration steps for a non-empty shard")
	}
	if rs.MigratedEntries == 0 {
		t.Error("ResizeStats: the drainers migrated zero entries")
	}
	want := map[uint64]uint64{}
	for _, truth := range truths {
		for addr, sharers := range truth {
			want[addr] = sharers
		}
	}
	checkEngineCensus(t, dir, want)
}

// TestEngineAutoGrow: a directory built with a ^grow policy resizes
// itself under engine traffic — the drainers detect the load-factor
// crossing after a drained run, start the grow, and migrate it to
// completion, with the census intact.
func TestEngineAutoGrow(t *testing.T) {
	d, err := directory.BuildNamed("sharded-2^grow=0.5(cuckoo-4x32)", 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := d.(*directory.ShardedDirectory)
	baseCap := dir.Capacity() // 2 x 128
	eng, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Fill to ~60% of the ORIGINAL capacity: both shards cross 0.5.
	truth := map[uint64]uint64{}
	var batch []directory.Access
	ctx := context.Background()
	for addr := uint64(1); addr <= uint64(baseCap)*6/10; addr++ {
		batch = append(batch, directory.Access{Kind: directory.AccessWrite, Addr: addr, Cache: int(addr % 8)})
		truth[addr] = 1 << (addr % 8)
		if len(batch) == 32 {
			if err := eng.SubmitDetachedClass(ctx, qos.Foreground, batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if len(batch) > 0 {
		if err := eng.SubmitDetachedClass(ctx, qos.Foreground, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		rs := dir.ResizeStats()
		if rs.Completed >= 2 && rs.InProgress == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-grow never completed: %+v", dir.ResizeStats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dir.Capacity(); got < 2*baseCap {
		t.Errorf("capacity after auto-grow = %d, want >= %d", got, 2*baseCap)
	}
	if es := eng.Stats(); es.GrowFailures != 0 {
		t.Errorf("grow failures = %d, want 0", es.GrowFailures)
	}
	if c := dir.Counters(); c.Forced != 0 {
		t.Fatalf("forced evictions = %d — oracle invalid", c.Forced)
	}
	checkEngineCensus(t, dir, truth)
}

// TestEngineLifecycleMidMigration is the table-driven lifecycle test:
// Flush and Close issued while a migration is in progress quiesce
// deterministically — barriers complete without waiting for the
// migration, tickets complete in submission order, Close leaves no
// drainer goroutines behind, and a parked migration finishes
// synchronously afterwards with the census intact.
func TestEngineLifecycleMidMigration(t *testing.T) {
	cases := []struct {
		name  string
		drive func(t *testing.T, eng *Engine, dir *directory.ShardedDirectory)
	}{
		{
			// Flush mid-migration: the barrier covers the submitted
			// requests, not the migration — it must return promptly even
			// though the shard is still migrating.
			name: "flush-mid-migration",
			drive: func(t *testing.T, eng *Engine, dir *directory.ShardedDirectory) {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := eng.Flush(ctx); err != nil {
					t.Fatalf("Flush mid-migration: %v", err)
				}
			},
		},
		{
			// Close mid-migration: drainers drain their queues and exit;
			// the migration parks (the union view stays correct).
			name:  "close-mid-migration",
			drive: func(t *testing.T, eng *Engine, dir *directory.ShardedDirectory) {},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			dir := resizableDir(t, 2, 256)
			eng, err := New(dir, Options{MigrationRun: 8})
			if err != nil {
				t.Fatal(err)
			}

			// Seed entries, then start a live resize with a large pending
			// snapshot relative to the tiny migration run.
			ctx := context.Background()
			truth := map[uint64]uint64{}
			var accs []directory.Access
			for addr := uint64(1); addr <= 600; addr++ {
				accs = append(accs, directory.Access{Kind: directory.AccessWrite, Addr: addr, Cache: int(addr % 8)})
				truth[addr] = 1 << (addr % 8)
			}
			tk, err := eng.SubmitBatch(ctx, accs)
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if err := eng.ResizeShardSpec(0, directory.Spec{
				Org:      directory.OrgCuckoo,
				Geometry: directory.Geometry{Ways: 4, Sets: 512},
			}); err != nil {
				t.Fatal(err)
			}

			// Tickets submitted mid-migration complete in submission
			// order (all accesses home onto the migrating shard 0).
			var shard0 []directory.Access
			for addr := uint64(1); len(shard0) < 60; addr++ {
				if dir.ShardOf(addr) == 0 {
					shard0 = append(shard0, directory.Access{Kind: directory.AccessRead, Addr: addr, Cache: 7})
					if _, tracked := truth[addr]; tracked {
						truth[addr] |= 1 << 7
					} else {
						truth[addr] = 1 << 7
					}
				}
			}
			var mu sync.Mutex
			var order []int
			for i := 0; i < 20; i++ {
				i := i
				if _, err := eng.Submit(ctx, Request{Accesses: shard0[i*3 : i*3+3], Done: func([]directory.Op, error) {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				}}); err != nil {
					t.Fatal(err)
				}
			}

			tc.drive(t, eng, dir)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			// Close drained the queues: every callback fired, in order.
			mu.Lock()
			if len(order) != 20 {
				t.Fatalf("callbacks fired = %d, want 20", len(order))
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("callback order %v, want submission order", order)
				}
			}
			mu.Unlock()

			// Post-Close: submissions and resizes fail with ErrClosed.
			if _, err := eng.SubmitBatch(ctx, shard0[:1]); !errors.Is(err, ErrClosed) {
				t.Errorf("SubmitBatch after Close = %v, want ErrClosed", err)
			}
			if err := eng.Flush(ctx); !errors.Is(err, ErrClosed) {
				t.Errorf("Flush after Close = %v, want ErrClosed", err)
			}
			if err := eng.ResizeShardSpec(0, directory.Spec{Org: directory.OrgIdeal}); !errors.Is(err, ErrClosed) {
				t.Errorf("ResizeShardSpec after Close = %v, want ErrClosed", err)
			}

			// A parked migration completes synchronously, census intact.
			dir.FinishResizes()
			if dir.MigratingShards() != 0 {
				t.Error("migration still in progress after FinishResizes")
			}
			if c := dir.Counters(); c.Forced != 0 {
				t.Fatalf("forced evictions = %d — oracle invalid", c.Forced)
			}
			checkEngineCensus(t, dir, truth)

			// No leaked drainer goroutines: the count settles back to (at
			// most) the pre-engine level.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before engine, %d after Close", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestEngineResizeErrors: the engine's resize API surfaces directory
// errors and rejects out-of-range shards without touching the queues.
func TestEngineResizeErrors(t *testing.T) {
	dir := resizableDir(t, 2, 64)
	eng, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ResizeShardSpec(9, directory.Spec{Org: directory.OrgIdeal}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := eng.ResizeShardSpec(0, directory.Spec{Org: "nonsense"}); err == nil {
		t.Error("invalid spec accepted")
	}
	// Double resize: the second must surface ErrResizeInProgress.
	if _, err := eng.Submit(context.Background(), Request{Accesses: []directory.Access{{Kind: directory.AccessWrite, Addr: 1, Cache: 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec := directory.Spec{Org: directory.OrgCuckoo, Geometry: directory.Geometry{Ways: 4, Sets: 128}}
	if err := eng.ResizeShardSpec(dir.ShardOf(1), spec); err != nil {
		t.Fatal(err)
	}
	err = eng.ResizeShardSpec(dir.ShardOf(1), spec)
	if err != nil && !errors.Is(err, directory.ErrResizeInProgress) {
		t.Errorf("double resize error = %v, want ErrResizeInProgress (or nil if already done)", err)
	}
}
