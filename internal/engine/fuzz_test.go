// FuzzEngine drives one engine over a sharded directory of ideal slices
// with a decoded opcode stream, then closes it and checks four oracles:
//
//  1. every ticket, and every accepted Done callback, ends exactly once;
//     a refused submission's callback never fires;
//  2. on every shard that is not quarantined, each ticket's and each
//     callback's Ops and the ForEach census equal a sequential ideal
//     model that replays each class's accepted submissions in order
//     (a clean completion equals the model on every shard, and an erred
//     one reads the model's Op or the zero Op on a quarantined shard);
//  3. per class, the engine counts every refusal as the fuzz saw it
//     (shed or queue-full), and submits and completes exactly the
//     accesses and requests of the accepted submissions, erred ones
//     included;
//  4. no goroutine outlives Close.
//
// Ideal slices are exact and unbounded, so a block's state depends only
// on its own history. Each class works its own address range, so the
// cross-class order the drain policy trades away moves no block, and
// one sequential model serves both classes. The opcodes cover ticketed,
// Done-callback and detached submits of random shape, Flush, a submit
// whose deadline has already passed, an armed ApplyPanic, a live
// ResizeShardSpec and a wait on every outstanding ticket; Close comes
// last. The first byte picks the backpressure policy, the drain policy
// and the queue depth.

package engine

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/rng"
)

const (
	fuzzShards    = 4
	fuzzDrainers  = 2
	fuzzCaches    = 8
	fuzzClassSpan = 256 // addresses per class: class c works [c*span, (c+1)*span)
	fuzzMaxOps    = 256
	fuzzMaxBatch  = 24
)

// FuzzEngine opcodes (the low three bits of an op's first byte; bit 3
// is the class).
const (
	fzTicket = iota
	fzCallback
	fzDetached
	fzFlush
	fzExpired
	fzPanic
	fzResize
	fzWaitAll
)

// fuzzSub is one submission and what became of it.
type fuzzSub struct {
	class    qos.Class
	accs     []directory.Access
	callback bool
	detached bool
	// accepted is set when Submit returned nil; want then holds the
	// model's Op per access.
	accepted bool
	want     []directory.Op
	t        *Ticket
	// The Done callback's deliveries; read only after Close, whose
	// WaitGroup orders them after the drainer that ran the callback.
	calls atomic.Int32
	ops   []directory.Op
	err   error
}

// fuzzTally is one class's submissions as the fuzz saw them: the
// refusals the engine counts, and the accesses and requests (queue
// elements, one per drainer a batch touches) it accepted.
type fuzzTally struct {
	shed, queueFull, accs, reqs uint64
}

// modelApply applies one access to the sequential model.
func modelApply(m directory.Directory, a directory.Access) directory.Op {
	switch a.Kind {
	case directory.AccessRead:
		return m.Read(a.Addr, a.Cache)
	case directory.AccessWrite:
		return m.Write(a.Addr, a.Cache)
	default:
		m.Evict(a.Addr, a.Cache)
		return directory.Op{}
	}
}

// fuzzBatch decodes one submission's accesses for class c: 1 to
// fuzzMaxBatch accesses drawn from a stream seeded by the op's bytes,
// all homing onto shard b2%fuzzShards when b2's top bit is set.
func fuzzBatch(dir *directory.ShardedDirectory, c qos.Class, b1, b2, b3 byte) []directory.Access {
	r := rng.New(uint64(b1)<<16 | uint64(b2)<<8 | uint64(b3) | uint64(c)<<24)
	n := 1 + int(b1)%fuzzMaxBatch
	accs := make([]directory.Access, 0, n)
	for len(accs) < n {
		addr := uint64(c)*fuzzClassSpan + r.Uint64()%fuzzClassSpan
		if b2&0x80 != 0 && dir.ShardOf(addr) != int(b2)%fuzzShards {
			continue
		}
		accs = append(accs, directory.Access{
			Kind:  directory.AccessKind(r.Uint64() % 3),
			Addr:  addr,
			Cache: int(r.Uint64() % fuzzCaches),
		})
	}
	return accs
}

// fuzzOp encodes one op for the seed corpus.
func fuzzOp(code int, c qos.Class, b1, b2, b3 byte) []byte {
	return []byte{byte(code) | byte(c)<<3, b1, b2, b3}
}

func FuzzEngine(f *testing.F) {
	// Seed 1: every opcode, both classes, blocking backpressure,
	// weighted-deficit drain, queue depth 4.
	seed1 := []byte{0x02 | 3<<2}
	for i := 0; i < 48; i++ {
		c := qos.Class(i % 2)
		switch i {
		case 5:
			seed1 = append(seed1, fuzzOp(fzExpired, c, 5, 0, 7)...)
		case 17:
			seed1 = append(seed1, fuzzOp(fzResize, 0, 2, 0, 0)...)
		case 25:
			seed1 = append(seed1, fuzzOp(fzFlush, 0, 0, 0, 0)...)
		case 33:
			seed1 = append(seed1, fuzzOp(fzPanic, 0, 1, 0, 0)...)
		}
		seed1 = append(seed1, fuzzOp(i%3, c, byte(i*7), byte(i*13)&0x7f, byte(i))...)
	}
	seed1 = append(seed1, fuzzOp(fzWaitAll, 0, 0, 0, 0)...)
	f.Add(seed1)

	// Seed 2: two shards poisoned up front, then a flood of ticketed
	// and callback submits pinned to one shard each, so erred tickets,
	// fail-fast refusals and healthy-shard completions all appear.
	seed2 := []byte{0}
	seed2 = append(seed2, fuzzOp(fzPanic, 0, 0, 0, 0)...)
	seed2 = append(seed2, fuzzOp(fzPanic, 0, 3, 0, 0)...)
	for i := 0; i < 64; i++ {
		seed2 = append(seed2, fuzzOp(fzTicket+i%2, qos.Class(i%2), byte(i), 0x80|byte(i%fuzzShards), byte(i*5))...)
		if i%16 == 15 {
			seed2 = append(seed2, fuzzOp(fzWaitAll, 0, 0, 0, 0)...)
		}
	}
	f.Add(seed2)

	// Seed 3: resizes under a stream of multi-shard ticketed submits;
	// each resize migrates while the drainers keep applying.
	seed3 := []byte{0x02 | 1<<2}
	for i := 0; i < 80; i++ {
		if i%10 == 0 {
			seed3 = append(seed3, fuzzOp(fzResize, 0, byte(i/10), 0, 0)...)
		}
		seed3 = append(seed3, fuzzOp(fzTicket, qos.Class(i%3/2), fuzzMaxBatch-1, byte(i), byte(i*3))...)
	}
	f.Add(seed3)

	// Seed 4: rejecting backpressure at queue depth 1 under a burst of
	// detached background batches, with foreground tickets between.
	seed4 := []byte{0x01}
	for i := 0; i < 96; i++ {
		if i%4 == 3 {
			seed4 = append(seed4, fuzzOp(fzTicket, qos.Foreground, byte(i), byte(i), 1)...)
			continue
		}
		seed4 = append(seed4, fuzzOp(fzDetached, qos.Background, byte(i*11), byte(i*3), byte(i))...)
	}
	f.Add(seed4)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		defer goroutineCensus(t)()
		dir, err := directory.BuildSharded(directory.Spec{Org: directory.OrgIdeal, NumCaches: fuzzCaches}, fuzzShards)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Drainers:   fuzzDrainers,
			QueueDepth: 1 + int(data[0]>>2)%8,
			Faults:     faults.New(),
		}
		if data[0]&1 != 0 {
			opts.Policy = RejectWhenFull
		}
		if data[0]&2 != 0 {
			opts.Sched = qos.Sched{Policy: qos.WeightedDeficit}
		}
		eng, err := New(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		model := directory.NewIdeal(fuzzCaches, 0)
		ctx := context.Background()
		expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
		defer cancel()

		var subs []*fuzzSub
		var tally [qos.NumClasses]fuzzTally
		nops := min((len(data)-1)/4, fuzzMaxOps)
		for i := 0; i < nops; i++ {
			b0, b1, b2, b3 := data[1+4*i], data[2+4*i], data[3+4*i], data[4+4*i]
			c := qos.Class(b0 >> 3 & 1)
			switch code := int(b0 & 7); code {
			case fzTicket, fzCallback, fzDetached, fzExpired:
				s := &fuzzSub{class: c, accs: fuzzBatch(dir, c, b1, b2, b3)}
				r := Request{Accesses: s.accs, Class: c}
				switch code {
				case fzCallback:
					s.callback = true
					r.Done = func(ops []directory.Op, err error) {
						s.ops, s.err = ops, err
						s.calls.Add(1)
					}
				case fzDetached:
					s.detached = true
					r.Detached = true
				}
				sctx := ctx
				if code == fzExpired {
					sctx = expired
				}
				tk, err := eng.Submit(sctx, r)
				tl := &tally[c]
				switch {
				case err == nil:
					if code == fzExpired {
						t.Fatalf("op %d: a submit whose deadline passed was accepted", i)
					}
					if (tk == nil) != (s.callback || s.detached) {
						t.Fatalf("op %d: Submit returned ticket %v for callback=%v detached=%v", i, tk, s.callback, s.detached)
					}
					s.accepted, s.t = true, tk
					var drainers [fuzzDrainers]bool
					s.want = make([]directory.Op, len(s.accs))
					for k, a := range s.accs {
						s.want[k] = modelApply(model, a)
						drainers[dir.ShardOf(a.Addr)%fuzzDrainers] = true
					}
					tl.accs += uint64(len(s.accs))
					for _, touched := range drainers {
						if touched {
							tl.reqs++
						}
					}
				case errors.Is(err, ErrDeadlineExceeded):
					if code != fzExpired {
						t.Fatalf("op %d: submit without a deadline shed: %v", i, err)
					}
					tl.shed++
				case errors.Is(err, ErrQueueFull):
					if opts.Policy != RejectWhenFull {
						t.Fatalf("op %d: queue-full refusal under BlockWhenFull: %v", i, err)
					}
					tl.queueFull++
				case errors.Is(err, ErrShardQuarantined):
					// A fail-fast refusal, which the engine does not count.
				default:
					t.Fatalf("op %d: Submit: %v", i, err)
				}
				subs = append(subs, s)
			case fzFlush:
				if err := eng.Flush(ctx); err != nil {
					t.Fatalf("op %d: Flush: %v", i, err)
				}
			case fzPanic:
				opts.Faults.Arm(faults.ApplyPanic, faults.Trigger{Key: int(b1) % fuzzShards, Count: 1})
			case fzResize:
				err := eng.ResizeShardSpec(int(b1)%fuzzShards, directory.Spec{Org: directory.OrgIdeal})
				if err != nil && !errors.Is(err, directory.ErrResizeInProgress) {
					t.Fatalf("op %d: ResizeShardSpec: %v", i, err)
				}
			case fzWaitAll:
				for _, s := range subs {
					if s.t != nil {
						// Wait's error is the ticket's Err, checked after Close.
						_ = s.t.Wait(ctx)
					}
				}
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		quar := map[int]bool{}
		for _, h := range eng.Health().QuarantinedShards {
			quar[h] = true
		}
		if len(quar) > 0 && opts.Faults.Fired(faults.ApplyPanic) == 0 {
			t.Fatalf("shards %v quarantined, but no injected panic fired", quar)
		}
		// Oracles 1 and 2, per submission.
		var erredMin, erredMax uint64
		for i, s := range subs {
			if !s.accepted {
				if n := s.calls.Load(); n != 0 {
					t.Fatalf("submission %d: refused, but its callback fired %d times", i, n)
				}
				continue
			}
			touchesQuar := false
			for _, a := range s.accs {
				touchesQuar = touchesQuar || quar[dir.ShardOf(a.Addr)]
			}
			if touchesQuar {
				erredMax += uint64(len(s.accs))
			}
			var ops []directory.Op
			var err error
			switch {
			case s.detached:
				continue
			case s.callback:
				if n := s.calls.Load(); n != 1 {
					t.Fatalf("submission %d: callback fired %d times, want once", i, n)
				}
				ops, err = s.ops, s.err
			default:
				select {
				case <-s.t.Done():
				default:
					t.Fatalf("submission %d: ticket still pending after Close", i)
				}
				ops, err = s.t.Ops(), s.t.Err()
			}
			if err != nil {
				if !errors.Is(err, ErrShardQuarantined) || !touchesQuar {
					t.Fatalf("submission %d: erred with %v, touching a quarantined shard = %v", i, err, touchesQuar)
				}
				erredMin++
			}
			if len(ops) != len(s.accs) {
				t.Fatalf("submission %d: %d Ops for %d accesses", i, len(ops), len(s.accs))
			}
			for k, a := range s.accs {
				h := dir.ShardOf(a.Addr)
				if reflect.DeepEqual(ops[k], s.want[k]) {
					continue
				}
				if err != nil && quar[h] && reflect.DeepEqual(ops[k], directory.Op{}) {
					continue
				}
				t.Fatalf("submission %d (class %v, err %v) access %d (%v %#x cache %d, shard %d, quarantined %v): Op %+v, model %+v",
					i, s.class, err, k, a.Kind, a.Addr, a.Cache, h, quar[h], ops[k], s.want[k])
			}
		}
		// Oracle 2, the census of the shards that are not quarantined.
		census := func(d directory.Directory) map[uint64]uint64 {
			m := map[uint64]uint64{}
			d.ForEach(func(addr, sharers uint64) bool {
				if _, dup := m[addr]; dup {
					t.Fatalf("census: address %#x visited twice", addr)
				}
				if !quar[dir.ShardOf(addr)] {
					m[addr] = sharers
				}
				return true
			})
			return m
		}
		if got, want := census(dir), census(model); !reflect.DeepEqual(got, want) {
			t.Fatalf("census of healthy shards: %d entries, model %d", len(got), len(want))
		}
		// Oracle 3, per class. A drainer records one latency sample per
		// request it completes, erred ones included.
		st := eng.Stats()
		var reqs uint64
		for c, tl := range tally {
			cs := st.Classes[c]
			if cs.Shed != tl.shed || cs.Rejected != tl.queueFull {
				t.Fatalf("class %d: engine shed/rejected %d/%d, fuzz %d/%d", c, cs.Shed, cs.Rejected, tl.shed, tl.queueFull)
			}
			if cs.SubmittedAccesses != tl.accs || cs.CompletedAccesses != tl.accs {
				t.Fatalf("class %d: engine submitted/completed accesses %d/%d, fuzz accepted %d",
					c, cs.SubmittedAccesses, cs.CompletedAccesses, tl.accs)
			}
			if n := cs.Latency.Count(); n != tl.reqs {
				t.Fatalf("class %d: engine completed %d requests, fuzz accepted %d", c, n, tl.reqs)
			}
			reqs += tl.reqs
		}
		if st.SubmittedRequests != reqs || st.CompletedRequests != reqs {
			t.Fatalf("engine submitted/completed requests %d/%d, fuzz accepted %d", st.SubmittedRequests, st.CompletedRequests, reqs)
		}
		if st.ErredAccesses < erredMin || st.ErredAccesses > erredMax {
			t.Fatalf("ErredAccesses %d outside [%d, %d]: at least one per erred completion, at most the accesses of submissions touching a quarantined shard",
				st.ErredAccesses, erredMin, erredMax)
		}
	})
}
