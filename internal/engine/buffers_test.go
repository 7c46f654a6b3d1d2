// Buffer-ownership tests: what a submission allocates, that a drained
// run is released, and that every pooled request buffer has one owner
// at a time and goes back once, whichever way its request is retired.
// CI runs TestBufferOwnership under -race with -count=10.

package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/rng"
)

// TestSubmitAllocs pins what a submission allocates once the request
// buffers are pooled and the routing scratch lives on the stack: a
// detached submit plus Flush costs only the Flush barrier's ticket and
// channel (2), and a ticketed submit plus Wait only what its caller
// owns, the Ticket, its done channel and its Ops (3), whether the batch
// stays on one drainer or is routed to three.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	// Reads only: after the first pass every access hits, so the
	// directory allocates nothing either.
	accs := make([]directory.Access, 64)
	for i := range accs {
		accs[i] = directory.Access{Kind: directory.AccessRead, Addr: uint64(i) * 64, Cache: i % testCores}
	}
	ctx := context.Background()
	for _, drainers := range []int{1, 3} {
		eng, err := New(testDir(t, 8), Options{Drainers: drainers})
		if err != nil {
			t.Fatal(err)
		}
		touched := map[int]bool{}
		for _, a := range accs {
			touched[eng.queueOf(eng.dir.ShardOf(a.Addr))] = true
		}
		if len(touched) != drainers {
			t.Fatalf("drainers=%d: the batch reaches %d drainers, want all", drainers, len(touched))
		}
		for _, tc := range []struct {
			name string
			want float64
			run  func() error
		}{
			{"detached+Flush", 2, func() error {
				if _, err := eng.Submit(ctx, Request{Accesses: accs, Detached: true}); err != nil {
					return err
				}
				return eng.Flush(ctx)
			}},
			{"ticketed+Wait", 3, func() error {
				tk, err := eng.SubmitBatch(ctx, accs)
				if err != nil {
					return err
				}
				return tk.Wait(ctx)
			}},
		} {
			// Warm the pool, the drainers' run and gather scratch and
			// the directory before counting.
			for range 8 {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
			}
			var runErr error
			got := testing.AllocsPerRun(100, func() {
				if err := tc.run(); err != nil && runErr == nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if got != tc.want {
				t.Errorf("drainers=%d %s: %v allocations, want %v", drainers, tc.name, got, tc.want)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoutedFreshBuffers: a routed submission sizes each sub-batch
// before filling it, so with the pool empty a sub-batch costs its
// reqBuf plus one allocation per slice it fills (the accesses, and the
// positions when the submission records Ops), however many accesses it
// carries. Appending into a fresh buffer one access at a time would
// regrow it through every size class instead.
func TestRoutedFreshBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	const drainers = 3
	accs := make([]directory.Access, 64)
	for i := range accs {
		accs[i] = directory.Access{Kind: directory.AccessRead, Addr: uint64(i) * 64, Cache: i % testCores}
	}
	ctx := context.Background()
	eng, err := New(testDir(t, 8), Options{Drainers: drainers})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, tc := range []struct {
		name string
		want uint64 // what the caller owns, plus drainers x (reqBuf + slices)
		run  func() error
	}{
		{"detached+Flush", 2 + drainers*2, func() error {
			if _, err := eng.Submit(ctx, Request{Accesses: accs, Detached: true}); err != nil {
				return err
			}
			return eng.Flush(ctx)
		}},
		{"ticketed+Wait", 3 + drainers*3, func() error {
			tk, err := eng.SubmitBatch(ctx, accs)
			if err != nil {
				return err
			}
			return tk.Wait(ctx)
		}},
	} {
		for range 8 {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}
		const rounds = 20
		var total uint64
		for range rounds {
			// Empty the pool: a buffer with no capacity came from New,
			// so every Get before it found nothing pooled.
			for b := getReqBuf(); cap(b.accs) != 0 || cap(b.pos) != 0; b = getReqBuf() {
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		if got := total / rounds; got != tc.want {
			t.Errorf("%s into fresh buffers: %d allocations, want %d", tc.name, got, tc.want)
		}
	}
}

// TestDrainedRunReleased: once a run has applied, the drainer keeps
// nothing of it reachable. An idle drainer must not pin its last run —
// the caller's batch, its ticket and Ops — until a later run happens to
// overwrite it.
func TestDrainedRunReleased(t *testing.T) {
	eng, err := New(testDir(t, 8), Options{Drainers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var collected atomic.Bool
	// A one-drainer ticketed batch rides the queue as the caller's own
	// slice, so the run is all that can keep it reachable.
	tk := func() *Ticket {
		accs := randomAccesses(5, 8000)
		runtime.SetFinalizer(&accs[0], func(*directory.Access) { collected.Store(true) })
		tk, err := eng.SubmitBatch(context.Background(), accs)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}()
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the applied batch is still reachable after Wait: the idle drainer pins its last run")
	}
}

// TestBufferOwnership drives every way a request is retired — applied,
// failed by a contained panic, refused (RejectWhenFull, injected
// saturation, an expired deadline, ErrClosed), cancelled mid-enqueue,
// and drained by Close — from several producers at once, each
// overwriting its detached batch the moment Submit returns, as the
// Detached contract allows. Under -race it shows that each pooled
// buffer has one owner at a time. The state check shows that no drainer
// applied a recycled buffer's accesses: every shard the panic did not
// quarantine matches a sequential reference of each producer's accepted
// batches, and no address a producer only wrote after Submit returned
// is tracked.
func TestBufferOwnership(t *testing.T) {
	const (
		producers = 4
		submits   = 300
		span      = 1 << 8 // width of each producer's address ranges
		faulty    = 5      // the shard the injected panic quarantines
	)
	for _, cfg := range []struct {
		policy   Policy
		drainers int
	}{
		{BlockWhenFull, 1}, {BlockWhenFull, 3}, {RejectWhenFull, 1}, {RejectWhenFull, 3},
	} {
		t.Run(fmt.Sprintf("%s/drainers=%d", cfg.policy, cfg.drainers), func(t *testing.T) {
			defer goroutineCensus(t)()
			dir := testDir(t, 8)
			inj := faults.New()
			panicked := inj.Arm(faults.ApplyPanic, faults.Trigger{Key: faulty, Count: 1})
			inj.Arm(faults.QueueSaturation, faults.Trigger{Key: faults.AnyKey, Prob: 0.05, Seed: 9})
			eng, err := New(dir, Options{Drainers: cfg.drainers, QueueDepth: 4, Policy: cfg.policy, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			var (
				accepted        [producers][][]directory.Access
				tickets         [producers][]*Ticket
				rejected, shed  atomic.Uint64
				producing, done sync.WaitGroup
			)
			producing.Add(producers)
			done.Add(producers)
			for p := 0; p < producers; p++ {
				go func(p int) {
					defer done.Done()
					r := rng.New(uint64(100 + p))
					// Producer p owns three disjoint ranges: main (its
					// checked batches), poison (what it overwrites its
					// detached slice with) and pairs (read-evict pairs).
					main := uint64(p) * 3 * span
					poison, pairs := main+span, main+2*span
					class := qos.Class(p % qos.NumClasses)
					fill := func(dst []directory.Access, base uint64) []directory.Access {
						for n := 1 + r.Uint64()%16; n > 0; n-- {
							kind := directory.AccessKind(r.Uint64() % 3)
							dst = append(dst, directory.Access{Kind: kind, Addr: base + r.Uint64()%span, Cache: int(r.Uint64() % testCores)})
						}
						return dst
					}
					// note classifies a submission's outcome and records
					// an accepted batch (nil: one left out of the
					// reference).
					note := func(err error, batch []directory.Access) bool {
						switch {
						case err == nil:
							if batch != nil {
								accepted[p] = append(accepted[p], batch)
							}
							return true
						case errors.Is(err, ErrQueueFull):
							rejected.Add(1)
							// Let the drainers catch up.
							runtime.Gosched()
						case errors.Is(err, ErrDeadlineExceeded):
							shed.Add(1)
						case errors.Is(err, ErrShardQuarantined), errors.Is(err, context.Canceled):
						default:
							t.Errorf("producer %d: unexpected submit error %v", p, err)
						}
						return false
					}
					detached := make([]directory.Access, 0, 16)
					submitDetached := func() error {
						detached = fill(detached[:0], main)
						_, err := eng.Submit(ctx, Request{Accesses: detached, Class: class, Detached: true})
						keep := append([]directory.Access(nil), detached...)
						for i := range detached {
							detached[i].Addr = poison + r.Uint64()%span
						}
						if !errors.Is(err, ErrClosed) {
							note(err, keep)
						}
						return err
					}
					for range submits {
						switch r.Uint64() % 4 {
						case 0:
							submitDetached()
						case 1:
							batch := fill(nil, main)
							if tk, err := eng.Submit(ctx, Request{Accesses: batch, Class: class}); note(err, batch) {
								tickets[p] = append(tickets[p], tk)
								// Err is checked after Close; waiting
								// here paces the producer.
								_ = tk.Wait(ctx)
							}
						case 2:
							// A cancelled context may let any prefix of the
							// routed sub-batches in. Each read-evict pair
							// homes on one shard, so it applies whole or not
							// at all and leaves no entry either way.
							var batch []directory.Access
							for n := 1 + r.Uint64()%8; n > 0; n-- {
								a := directory.Access{Kind: directory.AccessRead, Addr: pairs + r.Uint64()%span, Cache: int(r.Uint64() % testCores)}
								batch = append(batch, a)
								a.Kind = directory.AccessEvict
								batch = append(batch, a)
							}
							cctx, cancel := context.WithCancel(ctx)
							cancel()
							_, err := eng.Submit(cctx, Request{Accesses: batch, Class: class, Detached: r.Uint64()%2 == 0})
							note(err, nil)
						case 3:
							dctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
							_, err := eng.Submit(dctx, Request{Accesses: fill(nil, main), Class: class})
							cancel()
							if err == nil {
								t.Errorf("producer %d: a submission past its deadline was accepted", p)
							}
							note(err, nil)
						}
					}
					// Keep submitting while Close runs: what gets in before
					// the closed flag is drained, the rest is refused.
					producing.Done()
					for !errors.Is(submitDetached(), ErrClosed) {
					}
				}(p)
			}
			producing.Wait()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			done.Wait()

			for p := range tickets {
				for _, tk := range tickets[p] {
					if err := tk.Err(); err != nil && !errors.Is(err, ErrShardQuarantined) {
						t.Errorf("producer %d: ticket erred with %v", p, err)
					}
				}
			}
			if panicked.Fired() != 1 {
				t.Fatalf("the injected apply panic fired %d times, want 1", panicked.Fired())
			}
			quarantined := map[int]bool{}
			for _, h := range eng.Health().QuarantinedShards {
				quarantined[h] = true
			}
			if len(quarantined) != 1 || !quarantined[faulty] {
				t.Fatalf("quarantined shards %v, want only %d", eng.Health().QuarantinedShards, faulty)
			}

			// Conservation: every access a ring took in left it, and the
			// refusals the producers saw are the ones the engine counted.
			st := eng.Stats()
			if st.SubmittedAccesses != st.CompletedAccesses || st.SubmittedRequests != st.CompletedRequests {
				t.Errorf("submitted %d accesses in %d requests, completed %d in %d",
					st.SubmittedAccesses, st.SubmittedRequests, st.CompletedAccesses, st.CompletedRequests)
			}
			for c, cs := range st.Classes {
				if cs.SubmittedAccesses != cs.CompletedAccesses {
					t.Errorf("class %d: submitted %d accesses, completed %d", c, cs.SubmittedAccesses, cs.CompletedAccesses)
				}
			}
			if st.Rejected != rejected.Load() || st.Shed != shed.Load() {
				t.Errorf("stats count %d rejected and %d shed, producers saw %d and %d",
					st.Rejected, st.Shed, rejected.Load(), shed.Load())
			}
			var acceptedAccs uint64
			ref := testDir(t, 8)
			for p := range accepted {
				for _, batch := range accepted[p] {
					acceptedAccs += uint64(len(batch))
					ref.Apply(batch)
				}
			}
			// The reference applies producer after producer, which models
			// the directory only while no insert forces an entry out.
			if f, g := dir.Counters().Forced, ref.Counters().Forced; f+g != 0 {
				t.Fatalf("%d and %d forced evictions: the producers' ranges overfill the directory", f, g)
			}
			// Cancelled submissions may add an enqueued prefix on top.
			if st.SubmittedAccesses < acceptedAccs {
				t.Errorf("engine took %d accesses, producers had %d accepted", st.SubmittedAccesses, acceptedAccs)
			}

			ref.ForEach(func(addr, sharers uint64) bool {
				if quarantined[dir.ShardOf(addr)] {
					return true
				}
				if got, ok := dir.Lookup(addr); !ok || got != sharers {
					t.Errorf("addr %#x: sharers %#x (tracked %v), want %#x", addr, got, ok, sharers)
				}
				return true
			})
			dir.ForEach(func(addr, sharers uint64) bool {
				if quarantined[dir.ShardOf(addr)] {
					return true
				}
				if _, ok := ref.Lookup(addr); !ok {
					t.Errorf("addr %#x tracked (sharers %#x) but no accepted batch touched it", addr, sharers)
				}
				return true
			})
		})
	}
}
