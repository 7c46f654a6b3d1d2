package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/rng"
)

const testCores = 16

func testDir(t testing.TB, shards int) *directory.ShardedDirectory {
	t.Helper()
	d, err := directory.BuildSharded(directory.Spec{
		Org:       directory.OrgCuckoo,
		NumCaches: testCores,
		Geometry:  directory.Geometry{Ways: 4, Sets: 256},
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomAccesses generates a deterministic mixed stream over a bounded
// address range so shards see sharing and eviction churn.
func randomAccesses(seed uint64, n int) []directory.Access {
	r := rng.New(seed)
	accs := make([]directory.Access, n)
	for i := range accs {
		kind := directory.AccessRead
		switch r.Uint64() % 4 {
		case 0:
			kind = directory.AccessWrite
		case 1:
			kind = directory.AccessEvict
		}
		accs[i] = directory.Access{Kind: kind, Addr: r.Uint64() % 2048, Cache: int(r.Uint64() % testCores)}
	}
	return accs
}

// applySequential drives the same stream through a reference directory
// one access at a time, returning the per-access Ops.
func applySequential(ref *directory.ShardedDirectory, accs []directory.Access) []directory.Op {
	ops := make([]directory.Op, len(accs))
	for i := range accs {
		ops[i] = ref.Apply(accs[i : i+1])[0]
	}
	return ops
}

// sameState compares the tracked contents of two directories.
func sameState(t *testing.T, got, want *directory.ShardedDirectory) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("tracked blocks: %d, want %d", got.Len(), want.Len())
	}
	want.ForEach(func(addr, sharers uint64) bool {
		g, ok := got.Lookup(addr)
		if !ok || g != sharers {
			t.Fatalf("addr %#x: sharers %#x (ok=%v), want %#x", addr, g, ok, sharers)
		}
		return true
	})
}

// TestSubmitMatchesSequential: a single producer's submissions — mixed
// singles and batches — produce, per access, exactly the Op a
// sequential application of the same stream produces, and identical
// final directory state. Per-shard FIFO plus block-never-spans-shards
// makes this an equality, not an approximation.
func TestSubmitMatchesSequential(t *testing.T) {
	for _, cfg := range []Options{
		{},                           // one drainer per shard
		{Drainers: 3},                // grouped shards (scatter path)
		{Drainers: 1, QueueDepth: 4}, // single queue, tiny depth
		{Policy: RejectWhenFull},     // reservation path (never full here)
	} {
		dir := testDir(t, 8)
		ref := testDir(t, 8)
		eng, err := New(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs := randomAccesses(7, 6000)
		want := applySequential(ref, accs)

		ctx := context.Background()
		var tickets []*Ticket
		var spans []int // accesses covered by each ticket
		r := rng.New(99)
		for base := 0; base < len(accs); {
			n := 1 + int(r.Uint64()%97)
			if base+n > len(accs) {
				n = len(accs) - base
			}
			var tk *Ticket
			var err error
			if n == 1 {
				tk, err = eng.Submit(ctx, Request{Accesses: []directory.Access{accs[base]}})
			} else {
				tk, err = eng.SubmitBatch(ctx, accs[base:base+n])
			}
			if err != nil {
				t.Fatalf("cfg %+v: submit at %d: %v", cfg, base, err)
			}
			tickets = append(tickets, tk)
			spans = append(spans, n)
			base += n
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		base := 0
		for i, tk := range tickets {
			select {
			case <-tk.Done():
			default:
				t.Fatalf("cfg %+v: ticket %d not done after Close", cfg, i)
			}
			got := tk.Ops()
			if !reflect.DeepEqual(got, want[base:base+spans[i]]) {
				t.Fatalf("cfg %+v: ticket %d ops differ from sequential reference", cfg, i)
			}
			base += spans[i]
		}
		sameState(t, dir, ref)
		st := eng.Stats()
		if st.SubmittedAccesses != uint64(len(accs)) || st.CompletedAccesses != uint64(len(accs)) {
			t.Fatalf("cfg %+v: stats %+v, want %d accesses submitted and completed", cfg, st, len(accs))
		}
		if st.SubmittedRequests != st.CompletedRequests {
			t.Fatalf("cfg %+v: %d requests submitted, %d completed", cfg, st.SubmittedRequests, st.CompletedRequests)
		}
	}
}

// TestPerShardFIFO: submissions homing onto the SAME shard complete in
// submission order — the ordering guarantee the engine's contract (and
// the PR's acceptance criterion) promises. Completion callbacks run on
// the shard's single drainer, so the observed order is the apply order.
func TestPerShardFIFO(t *testing.T) {
	dir := testDir(t, 8)
	eng, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shard := 3
	var addrs []uint64
	for a := uint64(0); len(addrs) < 200; a++ {
		if dir.ShardOf(a) == shard {
			addrs = append(addrs, a)
		}
	}
	var mu sync.Mutex
	var order []int
	ctx := context.Background()
	for i, addr := range addrs {
		i := i
		_, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: addr, Cache: i % testCores}},
			Done: func([]directory.Op, error) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(addrs) {
		t.Fatalf("%d callbacks for %d submissions", len(order), len(addrs))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("same-shard completion order[%d] = %d — not submission order", i, got)
		}
	}
}

// TestSubmitDoneCallbackOps: the callback receives the batch's Ops in
// submission order, equal to the sequential reference.
func TestSubmitDoneCallbackOps(t *testing.T) {
	dir := testDir(t, 4)
	ref := testDir(t, 4)
	eng, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	accs := randomAccesses(13, 500)
	want := applySequential(ref, accs)
	done := make(chan []directory.Op, 1)
	if _, err := eng.Submit(context.Background(), Request{Accesses: accs, Done: func(ops []directory.Op, _ error) { done <- ops }}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, want) {
			t.Fatal("callback ops differ from sequential reference")
		}
	default:
		t.Fatal("Flush returned before the batch's callback fired")
	}
	if _, err := eng.Submit(context.Background(), Request{Accesses: accs[:1], Done: func([]directory.Op, error) {}, Detached: true}); err == nil {
		t.Fatal("callback on a detached request accepted")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushCoversDetached: Flush waits for everything already
// submitted, including detached submissions.
func TestFlushCoversDetached(t *testing.T) {
	dir := testDir(t, 4)
	eng, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	accs := randomAccesses(29, n)
	ctx := context.Background()
	for base := 0; base < n; base += 250 {
		end := base + 250
		if end > n {
			end = n
		}
		if err := eng.SubmitDetachedClass(ctx, qos.Foreground, accs[base:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := dir.Counters().Ops(); got != n {
		t.Fatalf("after Flush: %d ops applied, want %d", got, n)
	}
	if st := eng.Stats(); st.CompletedAccesses != n || st.Flushes != 1 {
		t.Fatalf("stats %+v", st)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending %d after Flush", eng.Pending())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseSemantics: Close drains, is idempotent, and later
// submissions fail with ErrClosed.
func TestCloseSemantics(t *testing.T) {
	dir := testDir(t, 2)
	eng, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(31, 300)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dir.Counters().Ops(); got != 300 {
		t.Fatalf("Close left %d of 300 ops unapplied", 300-got)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(1, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitDetached after Close: %v, want ErrClosed", err)
	}
	if err := eng.Flush(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
}

// TestCoalescedRunsMatchSequential pins the batch-amortized drain: a
// stalled drainer accumulates a backlog of mixed submissions (recorded
// batches, singles, detached), which it must then pop as coalesced runs
// — single-shard runs in one ApplyShardOps call, grouped-shard runs
// partitioned once per run — without perturbing per-access Ops, FIFO
// order or final state relative to the sequential reference.
func TestCoalescedRunsMatchSequential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		opts   Options
	}{
		{"single-shard", 1, Options{QueueDepth: 512}},
		{"grouped-shards", 8, Options{Drainers: 1, QueueDepth: 512}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := testDir(t, tc.shards)
			ref := testDir(t, tc.shards)
			// Seed a block on shard 0 so blockShard stalls the drainer
			// serving it.
			seed := uint64(0x40)
			for dir.ShardOf(seed) != 0 {
				seed += 0x40
			}
			dir.Read(seed, 0)
			ref.Read(seed, 0)
			eng, err := New(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			accs := randomAccesses(21, 3000)
			want := applySequential(ref, accs)

			release := blockShard(t, dir)
			ctx := context.Background()
			var tickets []*Ticket
			var spans []int
			r := rng.New(5)
			for base := 0; base < len(accs); {
				n := 1 + int(r.Uint64()%63)
				if base+n > len(accs) {
					n = len(accs) - base
				}
				switch r.Uint64() % 3 {
				case 0:
					tk, err := eng.SubmitBatch(ctx, accs[base:base+n])
					if err != nil {
						t.Fatal(err)
					}
					tickets, spans = append(tickets, tk), append(spans, base)
				case 1:
					tk, err := eng.Submit(ctx, Request{Accesses: []directory.Access{accs[base]}})
					if err != nil {
						t.Fatal(err)
					}
					tickets, spans = append(tickets, tk), append(spans, base)
					n = 1
				default:
					if err := eng.SubmitDetachedClass(ctx, qos.Foreground, accs[base:base+n]); err != nil {
						t.Fatal(err)
					}
				}
				base += n
			}
			// Everything above queued against the stalled drainer, so the
			// release drains it in maximally coalesced runs.
			release()
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			for i, tk := range tickets {
				ops := tk.Ops()
				for k, op := range ops {
					if !reflect.DeepEqual(op, want[spans[i]+k]) {
						t.Fatalf("ticket %d op %d diverged from sequential reference", i, k)
					}
				}
			}
			st := eng.Stats()
			if st.SubmittedAccesses != uint64(len(accs)) || st.CompletedAccesses != uint64(len(accs)) {
				t.Fatalf("accesses submitted/completed = %d/%d, want %d", st.SubmittedAccesses, st.CompletedAccesses, len(accs))
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			sameState(t, dir, ref)
		})
	}
}

// blockShard parks a goroutine inside dir.ForEach's per-shard lock so a
// drainer targeting that shard stalls; returns the release func. The
// directory must already track at least one block on the shard.
func blockShard(t *testing.T, dir *directory.ShardedDirectory) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		first := true
		dir.ForEach(func(addr, sharers uint64) bool {
			if first {
				first = false
				close(entered)
				<-hold
			}
			return false
		})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach never reached an entry — does the directory track a block?")
	}
	return func() { close(hold) }
}

// TestRejectWhenFull: with a stalled drainer and a bounded queue, the
// reject policy fails submissions with ErrQueueFull without enqueueing
// anything; after the stall clears, everything accepted applies and new
// submissions succeed again.
func TestRejectWhenFull(t *testing.T) {
	dir := testDir(t, 1)
	// Track one block so blockShard has an entry to park on.
	dir.Read(0x40, 0)
	preOps := dir.Counters().Ops()
	eng, err := New(dir, Options{QueueDepth: 4, Policy: RejectWhenFull})
	if err != nil {
		t.Fatal(err)
	}
	release := blockShard(t, dir)
	ctx := context.Background()
	accepted, rejected := 0, 0
	for i := 0; i < 32; i++ {
		err := eng.SubmitDetachedClass(ctx, qos.Foreground, []directory.Access{{Kind: directory.AccessRead, Addr: uint64(i), Cache: 1}})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Fatal("no submission rejected despite a stalled drainer and a 4-deep queue")
	}
	release()
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := dir.Counters().Ops() - preOps; got != uint64(accepted) {
		t.Fatalf("%d ops applied, want the %d accepted", got, accepted)
	}
	if st := eng.Stats(); st.Rejected != uint64(rejected) {
		t.Fatalf("stats.Rejected = %d, want %d", st.Rejected, rejected)
	}
	// Capacity is available again: a fresh submission is accepted.
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, []directory.Access{{Kind: directory.AccessRead, Addr: 99, Cache: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockWhenFullHonorsContext: a submitter blocked on a full queue
// unblocks with the context's error.
func TestBlockWhenFullHonorsContext(t *testing.T) {
	dir := testDir(t, 1)
	dir.Read(0x40, 0)
	eng, err := New(dir, Options{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := blockShard(t, dir)
	ctx := context.Background()
	// Saturate: the stalled drainer may have popped a whole run of
	// requests into its coalescing buffer before blocking in the apply,
	// so up to maxCoalesceReqs+1 sends can be absorbed beyond the 1-deep
	// ring before a submitter truly blocks.
	for i := 0; i < maxCoalesceReqs+4; i++ {
		cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		err = eng.SubmitDetachedClass(cctx, qos.Foreground, []directory.Access{{Kind: directory.AccessRead, Addr: uint64(i), Cache: 1}})
		cancel()
		if err != nil {
			break
		}
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	err = eng.SubmitDetachedClass(cctx, qos.Foreground, []directory.Access{{Kind: directory.AccessRead, Addr: 7, Cache: 1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit: %v, want DeadlineExceeded", err)
	}
	release()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProducers hammers one engine from many goroutines (the
// race detector is the real assertion) and checks conservation: every
// accepted access is applied exactly once.
func TestConcurrentProducers(t *testing.T) {
	dir := testDir(t, 8)
	eng, err := New(dir, Options{QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 8
	const perProducer = 3000
	var wg sync.WaitGroup
	ctx := context.Background()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			accs := randomAccesses(uint64(1000+p), perProducer)
			r := rng.New(uint64(p))
			for base := 0; base < len(accs); {
				n := 1 + int(r.Uint64()%63)
				if base+n > len(accs) {
					n = len(accs) - base
				}
				switch r.Uint64() % 3 {
				case 0:
					tk, err := eng.SubmitBatch(ctx, accs[base:base+n])
					if err != nil {
						t.Error(err)
						return
					}
					if err := tk.Wait(ctx); err != nil {
						t.Error(err)
						return
					}
					_ = tk.Ops()
				case 1:
					if err := eng.SubmitDetachedClass(ctx, qos.Foreground, accs[base:base+n]); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := eng.Submit(ctx, Request{Accesses: accs[base : base+n], Done: func([]directory.Op, error) {}}); err != nil {
						t.Error(err)
						return
					}
				}
				base += n
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	const total = producers * perProducer
	if got := dir.Counters().Ops(); got != total {
		t.Fatalf("%d ops applied, want %d", got, total)
	}
	st := eng.Stats()
	if st.SubmittedAccesses != total || st.CompletedAccesses != total {
		t.Fatalf("stats %+v, want %d accesses", st, total)
	}
}

// TestValidation: malformed submissions and constructions fail with
// errors on the caller's stack — never a drainer panic.
func TestValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil directory accepted")
	}
	dir := testDir(t, 4)
	if _, err := New(dir, Options{Policy: 99}); err == nil {
		t.Error("unknown policy accepted")
	}
	eng, err := New(dir, Options{Drainers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Options().Drainers; got != 4 {
		t.Errorf("drainers clamped to %d, want the 4 shards", got)
	}
	ctx := context.Background()
	if _, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: 9}}}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Cache: testCores}}}); err == nil {
		t.Error("out-of-range cache accepted")
	}
	if _, err := eng.SubmitBatch(ctx, nil); err == nil {
		t.Error("empty batch accepted")
	}
	tk, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: 1, Cache: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	_ = tk.Op()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitConservation: every shape of the one Submit path — ticket,
// Done callback, Detached, SubmitRetry — in either class and on either
// drainer layout applies exactly what a sequential Apply applies (per
// access Ops and final state), and after Flush the Stats conservation
// laws hold: every submitted access completed or erred, and the
// per-class rows sum to the totals.
func TestSubmitConservation(t *testing.T) {
	const n, batch = 2000, 100
	for _, mode := range []string{"ticket", "done", "detached", "retry"} {
		for _, c := range []qos.Class{qos.Foreground, qos.Background} {
			for _, layout := range []struct {
				name string
				opts Options
			}{{"per-shard", Options{}}, {"grouped", Options{Drainers: 3}}} {
				t.Run(fmt.Sprintf("%s/%s/%s", mode, c, layout.name), func(t *testing.T) {
					dir, ref := testDir(t, 8), testDir(t, 8)
					eng, err := New(dir, layout.opts)
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					accs := randomAccesses(41, n)
					want := applySequential(ref, accs)
					ctx := context.Background()
					got := make([]directory.Op, n)
					tickets := map[int]*Ticket{}
					for base := 0; base < n; base += batch {
						r := Request{Accesses: accs[base : base+batch], Class: c}
						var tk *Ticket
						switch mode {
						case "ticket":
							tk, err = eng.Submit(ctx, r)
						case "done":
							r.Done = func(ops []directory.Op, err error) {
								if err != nil {
									t.Error(err)
								}
								copy(got[base:], ops)
							}
							tk, err = eng.Submit(ctx, r)
						case "detached":
							r.Detached = true
							tk, err = eng.Submit(ctx, r)
						case "retry":
							tk, err = eng.SubmitRetry(ctx, r, RetryOptions{})
						}
						if err != nil {
							t.Fatal(err)
						}
						if (tk != nil) != (mode == "ticket" || mode == "retry") {
							t.Fatalf("mode %s returned ticket %v", mode, tk)
						}
						if tk != nil {
							tickets[base] = tk
						}
					}
					if err := eng.Flush(ctx); err != nil {
						t.Fatal(err)
					}
					for base, tk := range tickets {
						copy(got[base:], tk.Ops())
					}
					if mode != "detached" && !reflect.DeepEqual(got, want) {
						t.Fatal("Ops differ from the sequential reference")
					}
					sameState(t, dir, ref)

					st := eng.Stats()
					if st.SubmittedAccesses != n || st.SubmittedAccesses != st.CompletedAccesses+st.ErredAccesses {
						t.Fatalf("submitted %d != completed %d + erred %d (want %d submitted)",
							st.SubmittedAccesses, st.CompletedAccesses, st.ErredAccesses, n)
					}
					var sum qos.ClassStats
					for _, cs := range st.Classes {
						sum.SubmittedAccesses += cs.SubmittedAccesses
						sum.CompletedAccesses += cs.CompletedAccesses
						sum.Rejected += cs.Rejected
						sum.Shed += cs.Shed
					}
					if sum.SubmittedAccesses != st.SubmittedAccesses || sum.CompletedAccesses != st.CompletedAccesses ||
						sum.Rejected != st.Rejected || sum.Shed != st.Shed {
						t.Fatalf("class rows %+v do not sum to totals %+v", sum, st)
					}
					if cs := st.Classes[c]; cs.SubmittedAccesses != n || cs.CompletedAccesses != n {
						t.Fatalf("class %s row = %d/%d submitted/completed, want %d/%d", c, cs.SubmittedAccesses, cs.CompletedAccesses, n, n)
					}
				})
			}
		}
	}
}

// TestRequestValidation: a malformed Request fails on the submitter's
// stack and enqueues nothing.
func TestRequestValidation(t *testing.T) {
	eng, err := New(testDir(t, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	one := []directory.Access{{Kind: directory.AccessRead, Addr: 1}}
	for name, r := range map[string]Request{
		"done and detached": {Accesses: one, Done: func([]directory.Op, error) {}, Detached: true},
		"empty batch":       {},
		"empty detached":    {Accesses: []directory.Access{}, Detached: true},
		"unknown class":     {Accesses: one, Class: qos.NumClasses},
	} {
		if tk, err := eng.Submit(ctx, r); err == nil || tk != nil {
			t.Errorf("%s: Submit = (%v, %v), want an error and no ticket", name, tk, err)
		}
		if _, err := eng.SubmitRetry(ctx, r, RetryOptions{}); err == nil {
			t.Errorf("%s: SubmitRetry accepted it", name)
		}
	}
	if st := eng.Stats(); st.SubmittedRequests != 0 || st.Rejected != 0 {
		t.Fatalf("invalid requests reached the queues: %+v", st)
	}
}

// TestTicketOpsBeforeDone: reading results before completion is a
// programming error and panics.
func TestTicketOpsBeforeDone(t *testing.T) {
	tk := newTicket(1, make([]directory.Op, 1), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Ops before completion did not panic")
		}
	}()
	tk.Ops()
}
