// QoS scheduling tests: the per-class contracts of DESIGN.md §13 —
// class-less submissions stay Foreground, strict priority reorders
// foreground ahead of parked background work, per-class backpressure
// sheds a saturated background ring without touching foreground
// admission, the class-keyed saturation fault targets one class, the
// retry backoff never overshoots a context deadline, and Flush/Close
// cover both rings. CI's chaos-smoke job runs this file under -race.

package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
)

// TestClasslessSubmitsAreForeground: every legacy submission path
// accounts as Foreground — existing clients get the latency-critical
// class without code changes, and Background stays untouched.
func TestClasslessSubmitsAreForeground(t *testing.T) {
	eng, err := New(testDir(t, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	tk, err := eng.Submit(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: 1, Cache: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if werr := tk.Wait(ctx); werr != nil {
		t.Fatal(werr)
	}
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(1, 7)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	s := eng.Stats()
	fg, bg := s.Classes[qos.Foreground], s.Classes[qos.Background]
	if fg.SubmittedAccesses != 8 || fg.CompletedAccesses != 8 {
		t.Errorf("fg submitted/completed = %d/%d, want 8/8", fg.SubmittedAccesses, fg.CompletedAccesses)
	}
	if bg.SubmittedAccesses != 0 || bg.Latency.Count() != 0 {
		t.Errorf("bg touched by class-less submissions: %+v", bg)
	}
	if fg.Latency.Count() == 0 {
		t.Error("fg latency recorded no samples")
	}
}

// TestStrictPriorityDrainOrder: with a drainer parked mid-run, a
// background batch queued BEFORE a foreground batch completes AFTER it
// — strict priority always serves the foreground ring first.
func TestStrictPriorityDrainOrder(t *testing.T) {
	defer goroutineCensus(t)()
	dir := testDir(t, 2)
	inj := faults.New()
	stall := inj.Arm(faults.DrainerStall, faults.Trigger{Key: 0, Count: 1})
	eng, err := New(dir, Options{Drainers: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// Park the lone drainer inside a run so later submissions queue.
	park, err := eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 0, 0), Cache: 0}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drainer to park on the injected stall", func() bool { return stall.Fired() == 1 })

	var mu sync.Mutex
	var order []qos.Class
	note := func(c qos.Class) func([]directory.Op, error) {
		return func([]directory.Op, error) {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
		}
	}
	// Background first, foreground second — submission order, which
	// strict priority must invert at the drain.
	if _, err := eng.Submit(ctx, Request{Class: qos.Background, Done: note(qos.Background),
		Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, 1, 0), Cache: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(ctx, Request{Class: qos.Foreground, Done: note(qos.Foreground),
		Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, 1, 64), Cache: 2}}}); err != nil {
		t.Fatal(err)
	}

	stall.Release()
	if werr := park.Wait(ctx); werr != nil {
		t.Fatal(werr)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []qos.Class{qos.Foreground, qos.Background}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Errorf("completion order = %v, want %v", order, want)
	}
}

// TestWeightedDeficitCompletesBothClasses: the WDRR policy is a
// scheduler, not a filter — both classes' work completes exactly, under
// explicit weights and under the defaults.
func TestWeightedDeficitCompletesBothClasses(t *testing.T) {
	for _, sched := range []qos.Sched{
		{Policy: qos.WeightedDeficit},
		{Policy: qos.WeightedDeficit, Weights: [qos.NumClasses]int{3, 2}, Quantum: 16},
	} {
		eng, err := New(testDir(t, 4), Options{Sched: sched})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 8; i++ {
			c := qos.Foreground
			if i%2 == 1 {
				c = qos.Background
			}
			if err := eng.SubmitDetachedClass(ctx, c, randomAccesses(uint64(i), 32)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		for c := 0; c < qos.NumClasses; c++ {
			cs := s.Classes[c]
			if cs.SubmittedAccesses != 128 || cs.CompletedAccesses != 128 {
				t.Errorf("sched %v class %v: submitted/completed = %d/%d, want 128/128",
					sched, qos.Class(c), cs.SubmittedAccesses, cs.CompletedAccesses)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedValidation: malformed scheduling options are rejected at
// engine construction, not discovered inside a drainer.
func TestSchedValidation(t *testing.T) {
	dir := testDir(t, 2)
	for _, bad := range []qos.Sched{
		{Policy: qos.Policy(9)},
		{Quantum: -1},
		{Policy: qos.WeightedDeficit, Weights: [qos.NumClasses]int{1, -1}},
	} {
		if _, err := New(dir, Options{Sched: bad}); err == nil {
			t.Errorf("New accepted invalid Sched %+v", bad)
		}
	}
}

// TestClassSaturationShedsBackgroundFirst: the headline QoS invariant,
// deterministically — with a drainer parked and the background ring
// filled to its depth, the next background submission is rejected with
// a class-tagged QueueFullError while a foreground submission is still
// admitted. Background saturation never consumes foreground capacity.
func TestClassSaturationShedsBackgroundFirst(t *testing.T) {
	defer goroutineCensus(t)()
	dir := testDir(t, 2)
	inj := faults.New()
	stall := inj.Arm(faults.DrainerStall, faults.Trigger{Key: 0, Count: 1})
	const depth = 4
	eng, err := New(dir, Options{Drainers: 1, QueueDepth: depth, Policy: RejectWhenFull, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	park, err := eng.SubmitBatch(ctx, []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, 0, 0), Cache: 0}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drainer to park on the injected stall", func() bool { return stall.Fired() == 1 })

	// Fill the background ring exactly to its depth.
	for i := 0; i < depth; i++ {
		if err := eng.SubmitDetachedClass(ctx, qos.Background,
			[]directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, 1, uint64(i*64)), Cache: 1}}); err != nil {
			t.Fatalf("background fill %d: %v", i, err)
		}
	}
	// The next background submission sheds, and names its class.
	err = eng.SubmitDetachedClass(ctx, qos.Background,
		[]directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, 1, 512), Cache: 1}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("background over depth = %v, want ErrQueueFull", err)
	}
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Class != qos.Background {
		t.Fatalf("rejection error = %#v, want QueueFullError{Background}", err)
	}

	// Foreground admission is untouched by the saturated background ring.
	fg, err := eng.Submit(ctx, Request{Class: qos.Foreground,
		Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: addrOnShard(dir, 1, 1024), Cache: 2}}})
	if err != nil {
		t.Fatalf("foreground submit during background saturation = %v, want success", err)
	}

	stall.Release()
	if werr := park.Wait(ctx); werr != nil {
		t.Fatal(werr)
	}
	if werr := fg.Wait(ctx); werr != nil {
		t.Fatal(werr)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if got := s.Classes[qos.Background].Rejected; got != 1 {
		t.Errorf("background Rejected = %d, want 1", got)
	}
	if got := s.Classes[qos.Foreground].Rejected; got != 0 {
		t.Errorf("foreground Rejected = %d, want 0", got)
	}
	if got := s.Classes[qos.Background].CompletedAccesses; got != depth {
		t.Errorf("background completed = %d, want %d", got, depth)
	}
}

// TestQueueSaturationFaultClassKeyed: the saturation fault point keys
// hits by QoS class, so chaos tests can saturate exactly one class's
// admission while the other submits normally.
func TestQueueSaturationFaultClassKeyed(t *testing.T) {
	inj := faults.New()
	inj.Arm(faults.QueueSaturation, faults.Trigger{Key: int(qos.Background), Count: 2})
	eng, err := New(testDir(t, 2), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	accs := []directory.Access{{Kind: directory.AccessRead, Addr: 3, Cache: 0}}

	for i := 0; i < 2; i++ {
		err := eng.SubmitDetachedClass(ctx, qos.Background, accs)
		var qf *QueueFullError
		if !errors.As(err, &qf) || qf.Class != qos.Background {
			t.Fatalf("background submit %d = %v, want class-tagged ErrQueueFull", i, err)
		}
	}
	// Foreground never observes the background-keyed fault.
	tk, err := eng.Submit(ctx, Request{Accesses: accs, Class: qos.Foreground})
	if err != nil {
		t.Fatalf("foreground submit under background-keyed fault = %v", err)
	}
	if werr := tk.Wait(ctx); werr != nil {
		t.Fatal(werr)
	}
	// The fault budget spent, background submits normally again.
	if err := eng.SubmitDetachedClass(ctx, qos.Background, accs); err != nil {
		t.Fatalf("background submit after fault retired = %v", err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Classes[qos.Background].Rejected; got != 2 {
		t.Errorf("background Rejected = %d, want 2", got)
	}
}

// TestSubmitRetryDeadlineCap: backoff sleeps are capped at the context
// deadline — a retry loop against a saturated engine returns
// ErrDeadlineExceeded promptly at expiry (through the same pre-enqueue
// shed as any doomed submission, counted per class) instead of
// oversleeping a backoff step past it.
func TestSubmitRetryDeadlineCap(t *testing.T) {
	inj := faults.New()
	inj.Arm(faults.QueueSaturation, faults.Trigger{Key: faults.AnyKey, Count: 1 << 30})
	eng, err := New(testDir(t, 2), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const budget = 60 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err = eng.SubmitRetry(ctx, Request{Accesses: []directory.Access{{Kind: directory.AccessRead, Addr: 1, Cache: 0}}},
		RetryOptions{Attempts: 1 << 20, BaseDelay: 40 * time.Millisecond, MaxDelay: time.Second, Seed: 2})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("SubmitRetry past deadline = %v, want ErrDeadlineExceeded", err)
	}
	// Uncapped, the first backoff alone could sleep to ~40ms and later
	// ones to a full second; capped, the loop wakes at expiry. Allow
	// generous scheduler slop without admitting a whole backoff step.
	if elapsed > budget+500*time.Millisecond {
		t.Errorf("SubmitRetry returned after %v, want ~%v (deadline-capped backoff)", elapsed, budget)
	}
	if got := eng.Stats().Classes[qos.Foreground].Shed; got == 0 {
		t.Error("deadline expiry not counted in the class's Shed")
	}
}

// TestFlushAndCloseCoverBothClasses: barriers and shutdown drain every
// ring — detached work of both classes is fully applied by Flush, and
// work still queued at Close completes before Close returns.
func TestFlushAndCloseCoverBothClasses(t *testing.T) {
	defer goroutineCensus(t)()
	eng, err := New(testDir(t, 4), Options{Drainers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(3, 50)); err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitDetachedClass(ctx, qos.Background, randomAccesses(4, 70)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Classes[qos.Foreground].CompletedAccesses != 50 || s.Classes[qos.Background].CompletedAccesses != 70 {
		t.Errorf("after Flush: fg/bg completed = %d/%d, want 50/70",
			s.Classes[qos.Foreground].CompletedAccesses, s.Classes[qos.Background].CompletedAccesses)
	}

	if err := eng.SubmitDetachedClass(ctx, qos.Foreground, randomAccesses(5, 30)); err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitDetachedClass(ctx, qos.Background, randomAccesses(6, 40)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if s.Classes[qos.Foreground].CompletedAccesses != 80 || s.Classes[qos.Background].CompletedAccesses != 110 {
		t.Errorf("after Close: fg/bg completed = %d/%d, want 80/110",
			s.Classes[qos.Foreground].CompletedAccesses, s.Classes[qos.Background].CompletedAccesses)
	}
}

// TestStatsReportsClassLatency: Stats carries each class's sample
// count and ordered p50/p99/p999 trio, merged across drainers — the
// rows an operator reads during an overload.
func TestStatsReportsClassLatency(t *testing.T) {
	eng, err := New(testDir(t, 4), Options{Drainers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		c := qos.Foreground
		if i%2 == 1 {
			c = qos.Background
		}
		if err := eng.SubmitDetachedClass(ctx, c, randomAccesses(uint64(10+i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	for c := 0; c < qos.NumClasses; c++ {
		l := s.Classes[c].Latency
		if l.Count() == 0 {
			t.Errorf("class %v: no latency samples in Stats", qos.Class(c))
		}
		p50, p99, p999 := l.Percentiles()
		if p50 <= 0 || p50 > p99 || p99 > p999 {
			t.Errorf("class %v: percentiles not ordered: p50=%v p99=%v p999=%v",
				qos.Class(c), p50, p99, p999)
		}
	}
}

// TestDrainSchedPops pins the drain scheduler's pop rules white-box:
// newDrainSched, popNB and popBlocking run directly on hand-filled
// rings, with no drainer goroutine in between. Each pop names the
// request it must return ("f1" = foreground request 1, "b2" =
// background request 2) or "" when nothing may pop. The rules: strict
// priority serves foreground first; weighted-deficit serves classes in
// priority order among those holding credit, charges each pop its
// access count, carries overdraft across a refill, and refills only on
// a run's first pop (allowRefill) — never on the coalescing pops that
// extend a run (DESIGN.md §13); a retired ring never delivers.
func TestDrainSchedPops(t *testing.T) {
	type pop struct {
		refill bool // popNB's allowRefill (a run's first pop)
		block  bool // popBlocking instead of popNB
		want   string
	}
	// req is a queued request of n accesses whose first access carries
	// its id.
	type req struct {
		name string
		n    int
	}
	weighted := func(fg, bg, quantum int) qos.Sched {
		return qos.Sched{Policy: qos.WeightedDeficit, Weights: [qos.NumClasses]int{fg, bg}, Quantum: quantum}
	}
	cases := []struct {
		name    string
		sched   qos.Sched
		fg, bg  []req
		retired []qos.Class
		pops    []pop
		credits [qos.NumClasses]int64 // after the pops (weighted only)
	}{
		{
			name:  "strict-foreground-first",
			sched: qos.Sched{},
			fg:    []req{{"f1", 1}, {"f2", 600}},
			bg:    []req{{"b1", 1}, {"b2", 1}},
			// Strict priority keeps no credit: size never matters.
			pops: []pop{{refill: true, want: "f1"}, {want: "f2"}, {want: "b1"}, {want: "b2"}, {want: ""}, {refill: true, want: ""}},
		},
		{
			name:  "weighted-order-under-credit",
			sched: weighted(2, 1, 1),
			fg:    []req{{"f1", 1}, {"f2", 1}, {"f3", 1}},
			bg:    []req{{"b1", 1}, {"b2", 1}},
			pops: []pop{
				{refill: true, want: "f1"}, // foreground's 2 credits
				{want: "f2"},
				{want: "b1"},               // then background's 1
				{want: ""},                 // all spent: the run ends
				{refill: true, want: "f3"}, // the next run refills
				{want: "b2"},               // fg ring empty: bg has credit
				{want: ""},
			},
			credits: [qos.NumClasses]int64{1, 0},
		},
		{
			name:  "overdraft-carried-across-refill",
			sched: weighted(1, 1, 2),
			fg:    []req{{"f1", 5}, {"f2", 1}},
			bg:    []req{{"b1", 1}},
			pops: []pop{
				{refill: true, want: "f1"}, // fg credit 2-5 = -3
				{want: "b1"},               // fg overdrawn: bg serves
				{want: ""},
				{refill: true, want: ""},   // fg -3+2 = -1: still overdrawn
				{refill: true, want: "f2"}, // fg -1+2 = 1
			},
			credits: [qos.NumClasses]int64{0, 2},
		},
		{
			name:  "refill-only-on-allowRefill",
			sched: weighted(1, 1, 1),
			fg:    []req{{"f1", 1}, {"f2", 1}},
			pops: []pop{
				{refill: true, want: "f1"},
				{want: ""}, {want: ""}, // backlogged but spent: no refill mid-run
				{refill: true, want: "f2"},
			},
			credits: [qos.NumClasses]int64{0, 1},
		},
		{
			name:    "retired-ring-never-delivers",
			sched:   qos.Sched{},
			fg:      []req{{"f1", 1}},
			bg:      []req{{"b1", 1}, {"b2", 1}},
			retired: []qos.Class{qos.Foreground},
			pops:    []pop{{block: true, want: "b1"}, {refill: true, want: "b2"}, {refill: true, want: ""}},
		},
		{
			name:  "blocking-pop-charges-credit",
			sched: weighted(1, 1, 4),
			bg:    []req{{"b1", 4}, {"b2", 3}},
			pops:  []pop{{block: true, want: "b1"}, {want: ""}, {refill: true, want: "b2"}},
			// b1 spends bg's 4 credits, so the coalescing pop finds none;
			// the next run's first pop refills to 4 and b2 costs 3.
			credits: [qos.NumClasses]int64{4, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rings classRings
			for c := range rings {
				rings[c] = make(chan request, 8)
			}
			var names []string
			fill := func(c qos.Class, reqs []req) {
				for _, q := range reqs {
					accs := make([]directory.Access, q.n)
					accs[0].Addr = uint64(len(names))
					names = append(names, q.name)
					rings[c] <- request{accs: accs, class: c}
				}
			}
			fill(qos.Foreground, tc.fg)
			fill(qos.Background, tc.bg)
			s := newDrainSched(tc.sched)
			for _, c := range tc.retired {
				s.live[c] = false
			}
			for i, p := range tc.pops {
				var r request
				ok := true
				if p.block {
					r = s.popBlocking(rings)
				} else {
					r, ok = s.popNB(rings, p.refill)
				}
				got := ""
				if ok {
					got = names[r.accs[0].Addr]
					if (got[0] == 'f') != (r.class == qos.Foreground) {
						t.Fatalf("pop %d: %s came off the %v ring", i, got, r.class)
					}
				}
				if got != p.want {
					t.Fatalf("pop %d (%+v) = %q, want %q", i, p, got, p.want)
				}
			}
			if tc.sched.Policy == qos.WeightedDeficit && s.credits != tc.credits {
				t.Errorf("credits after the pops = %v, want %v", s.credits, tc.credits)
			}
		})
	}
}
