// Fault-injection containment tests: the chaos suite proving the
// engine survives what internal/faults can throw at it — panics
// quarantine a shard instead of killing the process, tickets err
// instead of hanging, the watchdog flips Health to degraded instead of
// wedging opaquely, and Close leaks no goroutines under any injected
// fault. CI runs this file under -race in the chaos-smoke job.

package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
)

// goroutineCensus snapshots the goroutine count; the returned func
// asserts the count returns to (at or below) the baseline, with a grace
// window for exiting goroutines to be reaped.
func goroutineCensus(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// addrOnShard finds an address homing onto shard h.
func addrOnShard(dir *directory.ShardedDirectory, h int, start uint64) uint64 {
	for a := start; ; a++ {
		if dir.ShardOf(a) == h {
			return a
		}
	}
}

// TestApplyPanicContainment: an injected panic at the apply boundary
// quarantines its shard — the run's ticket errs (Wait returns it, Err
// reports it), later submissions touching the shard fail fast with
// ErrShardQuarantined, and every OTHER shard keeps serving. The process
// surviving to the end of this test is itself the headline assertion.
func TestApplyPanicContainment(t *testing.T) {
	defer goroutineCensus(t)()
	dir := testDir(t, 4)
	inj := faults.New()
	inj.Arm(faults.ApplyPanic, faults.Trigger{Key: 2, Count: 1})
	eng, err := New(dir, Options{Drainers: 4, Faults: inj, StallThreshold: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	poisonAddr := addrOnShard(dir, 2, 0)
	tk, err := eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessWrite, Addr: poisonAddr, Cache: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if werr := tk.Wait(ctx); !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("Wait after injected panic = %v, want ErrShardQuarantined", werr)
	}
	if terr := tk.Err(); !errors.Is(terr, ErrShardQuarantined) {
		t.Fatalf("Err after injected panic = %v, want ErrShardQuarantined", terr)
	}

	// Submissions touching the quarantined shard now fail fast, on the
	// submitter's stack.
	if _, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: poisonAddr, Cache: 0}}}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("Submit to quarantined shard = %v, want ErrShardQuarantined", err)
	}
	// A batch spanning the quarantined shard fails whole.
	mixed := []directory.Access{
		{Kind: directory.AccessRead, Addr: addrOnShard(dir, 1, 0), Cache: 0},
		{Kind: directory.AccessRead, Addr: poisonAddr, Cache: 0},
	}
	if _, err := eng.SubmitBatch(ctx, mixed); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("SubmitBatch spanning quarantined shard = %v, want ErrShardQuarantined", err)
	}

	// Non-faulted shards keep serving, with nil ticket errors.
	for h := 0; h < 4; h++ {
		if h == 2 {
			continue
		}
		tk, err := eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, h, 0), Cache: 1}})
		if err != nil {
			t.Fatalf("shard %d submit after quarantine: %v", h, err)
		}
		if werr := tk.Wait(ctx); werr != nil {
			t.Fatalf("shard %d wait after quarantine: %v", h, werr)
		}
	}

	h := eng.Health()
	if !h.Degraded {
		t.Error("Health().Degraded = false with a quarantined shard")
	}
	if len(h.QuarantinedShards) != 1 || h.QuarantinedShards[0] != 2 {
		t.Errorf("QuarantinedShards = %v, want [2]", h.QuarantinedShards)
	}
	if h.ContainedPanics != 1 {
		t.Errorf("ContainedPanics = %d, want 1", h.ContainedPanics)
	}
	es := eng.Stats()
	if es.ContainedPanics != 1 || es.ErredAccesses == 0 {
		t.Errorf("Stats contained/erred = %d/%d, want 1/>0", es.ContainedPanics, es.ErredAccesses)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedRunFailsOnlyFaultedShard: on a grouped layout (Drainers <
// ShardCount) one drainer run spans several shards. A contained panic on
// one of them fails only the requests that touched it: a request of the
// same run homing onto a healthy shard completes cleanly with the Ops a
// sequential reference produces, and its accesses are not counted erred.
func TestGroupedRunFailsOnlyFaultedShard(t *testing.T) {
	defer goroutineCensus(t)()
	dir, ref := testDir(t, 4), testDir(t, 4)
	inj := faults.New()
	stall := inj.Arm(faults.DrainerStall, faults.Trigger{Key: 0, Count: 1})
	inj.Arm(faults.ApplyPanic, faults.Trigger{Key: 2, Count: 1})
	eng, err := New(dir, Options{Drainers: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// Park drainer 0 (shards 0 and 2) inside a shard-0 run.
	park := []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 0, 0), Cache: 0}}
	if _, err := eng.SubmitBatch(ctx, park); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drainer 0 to park on the injected stall", func() bool { return stall.Fired() == 1 })

	// A homes onto healthy shard 0, B onto shard 2, whose apply panics;
	// both queue behind the stall and drain as one run.
	a := []directory.Access{
		{Kind: directory.AccessRead, Addr: addrOnShard(dir, 0, 0), Cache: 1},
		{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 0, 64), Cache: 2},
	}
	b := []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 2, 0), Cache: 3}}
	ta, err := eng.SubmitBatch(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := eng.SubmitBatch(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	stall.Release()

	if werr := ta.Wait(ctx); werr != nil {
		t.Fatalf("healthy-shard request of the faulted run = %v, want nil", werr)
	}
	want := applySequential(ref, append(park, a...))[len(park):]
	if got := ta.Ops(); !reflect.DeepEqual(got, want) {
		t.Fatalf("healthy-shard Ops = %+v, want %+v", got, want)
	}
	if werr := tb.Wait(ctx); !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("faulted-shard request = %v, want ErrShardQuarantined", werr)
	}
	if st := eng.Stats(); st.ErredAccesses != uint64(len(b)) {
		t.Fatalf("ErredAccesses = %d, want the faulted request's %d", st.ErredAccesses, len(b))
	}
}

// TestErredTicketsCarryZeroOps: the drainer reuses its Op scratch from
// run to run, and an erred ticket must still read zero Ops for its
// failed span — never an earlier run's results. A first stalled run of
// two requests leaves a fresh insert's Op (Attempts 1) in the scratch;
// a second stalled run then panics on that shard. Covered on the
// grouped layout (Drainers 2 over 4 shards: the run's first request
// homes onto healthy shard 0) and the per-shard layout (Drainers 4 over
// 4 shards: the whole run fails).
func TestErredTicketsCarryZeroOps(t *testing.T) {
	const faulty = 2
	for _, tc := range []struct {
		name     string
		drainers int
		first    int // home shard of each run's first request
	}{
		{"grouped", 2, 0},
		{"per-shard", 4, faulty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer goroutineCensus(t)()
			dir := testDir(t, 4)
			inj := faults.New()
			eng, err := New(dir, Options{Drainers: tc.drainers, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()

			// stalledRun parks the faulty shard's drainer on a one-access
			// run, queues two requests behind it and releases them as one
			// run, returning their tickets once both complete.
			stalledRun := func(start uint64) (first, second *Ticket) {
				t.Helper()
				stall := inj.Arm(faults.DrainerStall, faults.Trigger{Key: faulty, Count: 1})
				park := []directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, faulty, start), Cache: 0}}
				if _, err := eng.SubmitBatch(ctx, park); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "the drainer to park on the injected stall", func() bool { return stall.Fired() == 1 })
				first, err = eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, tc.first, start+64), Cache: 1}})
				if err != nil {
					t.Fatal(err)
				}
				second, err = eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, faulty, start+128), Cache: 2}})
				if err != nil {
					t.Fatal(err)
				}
				stall.Release()
				// Wait's error is the ticket's Err, which the caller checks.
				_ = first.Wait(ctx)
				_ = second.Wait(ctx)
				return first, second
			}

			// Warm the scratch: the fresh insert's Op is non-zero.
			if _, warm := stalledRun(0); warm.Err() != nil || warm.Op().Attempts != 1 {
				t.Fatalf("warm-up insert: err %v, Op %+v, want a clean 1-attempt insert", warm.Err(), warm.Op())
			}
			// The park request's apply is the first faulty-shard hit; the
			// panic fires on the next one, the two-request run's.
			inj.Arm(faults.ApplyPanic, faults.Trigger{Key: faulty, After: 1, Count: 1})
			first, second := stalledRun(1 << 20)
			if !errors.Is(second.Err(), ErrShardQuarantined) {
				t.Fatalf("faulted-shard request: err %v, want ErrShardQuarantined", second.Err())
			}
			if tc.first != faulty && first.Err() != nil {
				t.Fatalf("healthy-shard request of the faulted run: err %v, want nil", first.Err())
			}
			for _, tk := range []*Ticket{first, second} {
				if tk.Err() == nil {
					continue
				}
				for i, op := range tk.Ops() {
					if !reflect.DeepEqual(op, directory.Op{}) {
						t.Errorf("erred ticket Ops[%d] = %+v, want the zero Op", i, op)
					}
				}
			}
		})
	}
}

// TestStallWatchdogAndRecovery: a stalled drainer with queued work
// flips its Health row to Stalled (and the engine to Degraded) within
// the stall threshold; the other drainers keep completing tickets
// throughout; releasing the stall recovers health and drains the
// backlog with nil ticket errors.
func TestStallWatchdogAndRecovery(t *testing.T) {
	defer goroutineCensus(t)()
	dir := testDir(t, 4)
	inj := faults.New()
	stall := inj.Arm(faults.DrainerStall, faults.Trigger{Key: 0, Count: 1})
	eng, err := New(dir, Options{
		Drainers: 4, Faults: inj,
		StallThreshold: 20 * time.Millisecond,
		Policy:         RejectWhenFull, QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Park drainer 0 inside a run, then queue more behind it so its
	// depth stays non-zero (the watchdog's stall condition).
	var stuck []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 0, uint64(i*64)), Cache: 0}})
		if err != nil {
			t.Fatal(err)
		}
		stuck = append(stuck, tk)
	}
	waitFor(t, "watchdog to flag drainer 0 stalled", func() bool {
		h := eng.Health()
		return h.Degraded && h.Drainers[0].Stalled
	})

	// The healthy drainers serve normally while drainer 0 is parked.
	for h := 1; h < 4; h++ {
		tk, err := eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, h, 0), Cache: 2}})
		if err != nil {
			t.Fatalf("healthy shard %d submit during stall: %v", h, err)
		}
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		werr := tk.Wait(cctx)
		cancel()
		if werr != nil {
			t.Fatalf("healthy shard %d wait during stall: %v", h, werr)
		}
	}

	// Recovery: release the stall; the backlog drains cleanly and the
	// watchdog clears Degraded.
	stall.Release()
	for _, tk := range stuck {
		if werr := tk.Wait(ctx); werr != nil {
			t.Fatalf("stalled-shard ticket after release: %v", werr)
		}
	}
	waitFor(t, "health to recover after release", func() bool {
		h := eng.Health()
		return !h.Degraded && !h.Drainers[0].Stalled
	})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineShed: a submission whose deadline has already expired is
// refused with ErrDeadlineExceeded before touching a queue, and counted
// in Stats.Shed.
func TestDeadlineShed(t *testing.T) {
	dir := testDir(t, 2)
	eng, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: 0, Cache: 0}}}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Submit with expired deadline = %v, want ErrDeadlineExceeded", err)
	}
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(1, 8)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("SubmitDetached with expired deadline = %v, want ErrDeadlineExceeded", err)
	}
	if shed := eng.Stats().Shed; shed != 2 {
		t.Errorf("Stats.Shed = %d, want 2", shed)
	}
	// A live deadline submits normally.
	lctx, lcancel := context.WithTimeout(context.Background(), time.Minute)
	defer lcancel()
	tk, err := eng.Submit(lctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: 0, Cache: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if werr := tk.Wait(context.Background()); werr != nil {
		t.Fatal(werr)
	}
}

// TestSubmitRetryBacksOffOverQueueFull: injected queue saturation
// rejects the first attempts; SubmitRetry's capped backoff rides
// through exactly as many rejections as are injected, and gives up with
// ErrQueueFull when the attempt budget is smaller than the fault.
func TestSubmitRetryBacksOffOverQueueFull(t *testing.T) {
	dir := testDir(t, 2)
	inj := faults.New()
	inj.Arm(faults.QueueSaturation, faults.Trigger{Key: faults.AnyKey, Count: 3})
	eng, err := New(dir, Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	accs := []directory.Access{{Kind: directory.AccessWrite, Addr: 7, Cache: 0}}

	tk, err := eng.SubmitRetry(ctx, Request{Accesses: accs}, RetryOptions{Attempts: 5, BaseDelay: 10 * time.Microsecond, Seed: 1})
	if err != nil {
		t.Fatalf("SubmitRetry over 3 injected rejections = %v, want success", err)
	}
	if werr := tk.Wait(ctx); werr != nil {
		t.Fatal(werr)
	}
	if fired := inj.Fired(faults.QueueSaturation); fired != 3 {
		t.Errorf("saturation fired %d times, want 3", fired)
	}
	if rej := eng.Stats().Rejected; rej != 3 {
		t.Errorf("Stats.Rejected = %d, want 3", rej)
	}

	// Budget smaller than the fault: the last rejection surfaces.
	inj.Arm(faults.QueueSaturation, faults.Trigger{Key: faults.AnyKey})
	if _, err := eng.SubmitRetry(ctx, Request{Accesses: accs}, RetryOptions{Attempts: 3, BaseDelay: 10 * time.Microsecond, Seed: 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("SubmitRetry with exhausted budget = %v, want ErrQueueFull", err)
	}
	inj.Disarm(faults.QueueSaturation)
	// Retrying is pointless over non-ErrQueueFull errors: expired
	// deadlines return immediately.
	dctx, dcancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := eng.SubmitRetry(dctx, Request{Accesses: accs}, RetryOptions{}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("SubmitRetry with expired deadline = %v, want ErrDeadlineExceeded", err)
	}
}

// TestGrowFailureSurfaced: an injected automatic-grow failure is no
// longer just a counter — Health().LastGrowError carries the cause.
func TestGrowFailureSurfaced(t *testing.T) {
	defer goroutineCensus(t)()
	d, err := directory.BuildNamed("sharded-2^grow=0.5(cuckoo-4x32)", 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := d.(*directory.ShardedDirectory)
	inj := faults.New()
	inj.Arm(faults.GrowBuildFail, faults.Trigger{Key: faults.AnyKey})
	eng, err := New(dir, Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	// Push both shards past the 0.5 load threshold with distinct writes.
	var accs []directory.Access
	for a := uint64(0); a < 200; a++ {
		accs = append(accs, directory.Access{Kind: directory.AccessWrite, Addr: a, Cache: int(a % 8)})
	}
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, accs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "grow failure to be recorded", func() bool {
		return eng.Stats().GrowFailures > 0
	})
	h := eng.Health()
	if h.LastGrowError == nil || !errors.Is(h.LastGrowError, faults.ErrInjected) {
		t.Fatalf("LastGrowError = %v, want the injected failure", h.LastGrowError)
	}
	if rs := eng.Stats().ResizesStarted; rs != 0 {
		t.Errorf("ResizesStarted = %d with growth failing, want 0", rs)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationPanicQuarantine: a panic inside a background migration
// step quarantines the migrating shard — its migration parks for good,
// its submissions fail fast, the other shard keeps serving, and Close
// still returns cleanly.
func TestMigrationPanicQuarantine(t *testing.T) {
	defer goroutineCensus(t)()
	dir := resizableDir(t, 2, 64)
	inj := faults.New()
	inj.Arm(faults.MigrationPanic, faults.Trigger{Key: 0, Count: 1})
	eng, err := New(dir, Options{Drainers: 2, Faults: inj, MigrationRun: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	// Populate shard 0 so the migration has work.
	var accs []directory.Access
	for i := 0; i < 64; i++ {
		accs = append(accs, directory.Access{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 0, uint64(i*2)), Cache: 0})
	}
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, accs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.ResizeShardSpec(0, directory.Spec{
		Org:      directory.OrgCuckoo,
		Geometry: directory.Geometry{Ways: 4, Sets: 256},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "migration panic to quarantine shard 0", func() bool {
		h := eng.Health()
		return len(h.QuarantinedShards) == 1 && h.QuarantinedShards[0] == 0
	})
	if _, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, 0, 0), Cache: 0}}}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("Submit to quarantined shard = %v, want ErrShardQuarantined", err)
	}
	tk, err := eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 1, 0), Cache: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if werr := tk.Wait(ctx); werr != nil {
		t.Fatalf("healthy shard during parked migration: %v", werr)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseLeaksNothingUnderFaults: Close returns and leaks no
// goroutines (drainers, watchdog) under every injected fault shape —
// a permanently stalled drainer, a blocked sender behind it (both with
// and without its context being cancelled), and a mid-migration panic.
func TestCloseLeaksNothingUnderFaults(t *testing.T) {
	t.Run("stalled drainer", func(t *testing.T) {
		defer goroutineCensus(t)()
		dir := testDir(t, 2)
		inj := faults.New()
		inj.Arm(faults.DrainerStall, faults.Trigger{Key: faults.AnyKey})
		eng, err := New(dir, Options{Drainers: 2, Faults: inj, StallThreshold: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.SubmitDetachedClass(context.Background(), qos.Foreground, randomAccesses(3, 64)); err != nil {
			t.Fatal(err)
		}
		// Close must break the (never-released) stall via its stop
		// channel and return.
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("blocked sender cancelled", func(t *testing.T) {
		defer goroutineCensus(t)()
		dir := testDir(t, 1)
		inj := faults.New()
		inj.Arm(faults.DrainerStall, faults.Trigger{Key: faults.AnyKey})
		eng, err := New(dir, Options{QueueDepth: 1, Faults: inj, StallThreshold: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// Park the drainer first (a submit racing ahead of the stall
		// would be coalesced into the stalled run, leaving the buffer
		// empty), then fill the one-deep queue behind it, then block a
		// sender on the full queue and cancel it out.
		if err := eng.SubmitDetachedClass(context.Background(), qos.Foreground, randomAccesses(4, 4)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "drainer to park on the stall", func() bool {
			return inj.Fired(faults.DrainerStall) >= 1
		})
		if err := eng.SubmitDetachedClass(context.Background(), qos.Foreground, randomAccesses(5, 4)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(6, 4)) }()
		time.Sleep(10 * time.Millisecond)
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked sender after cancel = %v, want context.Canceled", err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("blocked sender survives close", func(t *testing.T) {
		defer goroutineCensus(t)()
		dir := testDir(t, 1)
		inj := faults.New()
		inj.Arm(faults.DrainerStall, faults.Trigger{Key: faults.AnyKey})
		eng, err := New(dir, Options{QueueDepth: 1, Faults: inj, StallThreshold: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.SubmitDetachedClass(context.Background(), qos.Foreground, randomAccesses(7, 4)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "drainer to park on the stall", func() bool {
			return inj.Fired(faults.DrainerStall) >= 1
		})
		if err := eng.SubmitDetachedClass(context.Background(), qos.Foreground, randomAccesses(8, 4)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		var senderErr error
		go func() {
			defer wg.Done()
			senderErr = eng.SubmitDetachedClass(context.Background(), qos.Foreground, randomAccesses(9, 4))
		}()
		time.Sleep(10 * time.Millisecond)
		// Close's stop channel breaks the stall, the drainer drains, the
		// sender's enqueue completes (it beat the closed flag), and
		// everything shuts down.
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if senderErr != nil && !errors.Is(senderErr, ErrClosed) {
			t.Fatalf("sender racing close = %v, want nil or ErrClosed", senderErr)
		}
	})

	t.Run("mid-migration panic", func(t *testing.T) {
		defer goroutineCensus(t)()
		dir := resizableDir(t, 2, 64)
		inj := faults.New()
		inj.Arm(faults.MigrationPanic, faults.Trigger{Key: faults.AnyKey, Count: 1})
		eng, err := New(dir, Options{Drainers: 2, Faults: inj, MigrationRun: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx := context.Background()
		var accs []directory.Access
		for i := 0; i < 64; i++ {
			accs = append(accs, directory.Access{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 0, uint64(i*2)), Cache: 0})
		}
		if err := eng.SubmitDetachedClass(ctx, qos.Foreground, accs); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if err := eng.ResizeShardSpec(0, directory.Spec{
			Org:      directory.OrgCuckoo,
			Geometry: directory.Geometry{Ways: 4, Sets: 256},
		}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "quarantine after migration panic", func() bool {
			return len(eng.Health().QuarantinedShards) == 1
		})
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHealthOnHealthyEngine: a fault-free engine reports a clean bill —
// no degraded flag, no stalls, no quarantine, no grow error — and its
// drainer heartbeats advance under traffic.
func TestHealthOnHealthyEngine(t *testing.T) {
	defer goroutineCensus(t)()
	dir := testDir(t, 4)
	eng, err := New(dir, Options{StallThreshold: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(11, 512)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	h := eng.Health()
	if h.Degraded || len(h.QuarantinedShards) != 0 || h.LastGrowError != nil || h.ContainedPanics != 0 {
		t.Errorf("healthy engine reports %+v", h)
	}
	beats := uint64(0)
	for _, d := range h.Drainers {
		if d.Stalled {
			t.Errorf("drainer %d stalled on a healthy engine", d.Queue)
		}
		beats += d.Beats
	}
	if beats == 0 {
		t.Error("no drainer heartbeats after traffic")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainerDelayInjection: an injected per-run delay slows a shard
// without erring anything — tickets still complete cleanly.
func TestDrainerDelayInjection(t *testing.T) {
	dir := testDir(t, 2)
	inj := faults.New()
	inj.Arm(faults.DrainerDelay, faults.Trigger{Key: faults.AnyKey, Count: 2, Delay: 2 * time.Millisecond})
	eng, err := New(dir, Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	tk, err := eng.SubmitBatch(ctx, randomAccesses(12, 32))
	if err != nil {
		t.Fatal(err)
	}
	if werr := tk.Wait(ctx); werr != nil {
		t.Fatalf("delayed run erred: %v", werr)
	}
	if fired := inj.Fired(faults.DrainerDelay); fired == 0 {
		t.Error("delay never fired")
	}
}
