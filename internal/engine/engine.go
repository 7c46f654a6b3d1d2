// Package engine is the asynchronous submission front-end of the
// sharded directory: a DirectoryEngine owns a ShardedDirectory and
// drains bounded per-drainer request queues with dedicated goroutines, so
// clients SUBMIT directory work and collect results later instead of
// blocking in ApplyShard themselves.
//
// This is the paper's §4.2 structure made into the API: requests queue
// at a home slice, the slice drains them in batches, and insertion work
// overlaps with responses — the caller never holds a shard lock. It is
// also the server/combiner design Fatourou et al. argue for on many-core
// hardware (PAPERS.md): a dedicated drainer per queue beats lock-passing
// because the queue pop, the batch apply and the completion notification
// all run on one core with the shard's data hot.
//
// # Queues and ordering
//
// Every shard is statically assigned to one drainer (shard mod
// Drainers); each drainer owns one bounded MPSC ring (a buffered Go
// channel — multiple producers, a single consumer). A submission
// coalesces each whole sub-batch payload into a SINGLE queue element,
// and the drainer amortizes in the other direction too: it pops a RUN —
// every request already queued behind the first blocking pop — and
// applies a whole run's accesses per shard under one ApplyShardOps
// call (see drain), so a backlog costs one wake-up and one shard-lock
// acquisition instead of one per submission. Submission routes each
// access to its home shard's queue, so:
//
//   - Requests to the SAME shard complete in submission order (per-shard
//     FIFO): one producer's submissions are ordered by its program
//     order, concurrent producers' by their arrival order at the queue.
//   - Requests to different shards have no ordering relative to each
//     other — exactly the ShardedDirectory.Apply contract. A block never
//     spans shards, so per-block operation order is always submission
//     order.
//
// # Backpressure
//
// Queues are bounded (Options.QueueDepth requests per drainer). When a
// queue is full, BlockWhenFull (the default) blocks the submitter until
// the drainer catches up — honoring context cancellation — while
// RejectWhenFull fails the whole submission immediately with
// ErrQueueFull, enqueueing nothing (all-or-nothing, so a rejected batch
// can be retried verbatim).
//
// # Completion
//
// Every submission is one Request through Submit (SubmitRetry adds
// backoff over a full queue). By default Submit returns a Ticket: poll
// Done(), block in Wait(ctx), and read the per-access Ops once
// complete. A Request with a Done callback instead receives the Ops on
// an engine goroutine (keep it short), and a Detached request records
// no results at all — the fire-and-forget fast path replay uses.
// SubmitBatch and SubmitDetachedClass are one-line shorthands for the
// two common shapes. Flush inserts a barrier into every queue and waits
// for it, guaranteeing every previously-submitted request has been
// applied. Close flushes and stops the drainers; the ShardedDirectory
// itself stays usable.
//
// # Online resize
//
// The engine is also the executor of the directory's live resizes
// (DESIGN.md §11): between request runs — and whenever its queue goes
// idle while a migration is pending — a drainer migrates a bounded run
// of entries for each of ITS shards (MigrateShard), so one shard's
// rehash steals cycles only from its own drainer and the other shards
// keep serving at full speed. Resizes start through ResizeShardSpec
// (which nudges the right drainer awake), or
// automatically when the directory carries a ResizePolicy and a shard
// crosses its load threshold after a drained run. Flush barriers and
// Close interleave with migration steps like any other queue work:
// a barrier completes as soon as the requests before it have applied —
// it does NOT wait for migration to finish — and Close may park an
// in-progress migration, leaving the directory fully correct (the
// union view keeps serving; FinishResizes completes it synchronously).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
)

// Submission errors.
var (
	// ErrClosed reports a submission to a closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrQueueFull reports a rejected submission under RejectWhenFull.
	ErrQueueFull = errors.New("engine: queue full")
	// ErrShardQuarantined reports a submission touching a shard the
	// engine quarantined after containing a panic there. The shard's
	// state (including its lock) is suspect, so the engine refuses to
	// route more work to it; every other shard keeps serving. See
	// DESIGN.md §12 for the quarantine lifecycle.
	ErrShardQuarantined = errors.New("engine: shard quarantined")
	// ErrDeadlineExceeded reports a submission shed before enqueue
	// because its context deadline had already expired — queueing work
	// whose caller has stopped waiting only deepens an overload.
	ErrDeadlineExceeded = errors.New("engine: deadline exceeded before enqueue")
)

// QueueFullError is the concrete error a rejected submission carries
// under RejectWhenFull: it names the QoS class whose ring was full, so
// an overloaded client can tell "my background bulk load is being shed"
// (working as designed) from "my foreground traffic is being rejected"
// (a capacity incident). errors.Is(err, ErrQueueFull) matches it;
// errors.As extracts the class.
type QueueFullError struct {
	// Class is the rejected submission's priority class.
	Class qos.Class
}

// Error renders the rejection with its class.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("engine: %s queue full", e.Class)
}

// Is matches ErrQueueFull, keeping every existing errors.Is caller
// (SubmitRetry's backoff loop included) working unchanged.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// queueFullErrs pre-builds one rejection error per class: the reject
// path runs under saturation, which is exactly when it must not
// allocate per refusal.
var queueFullErrs = func() [qos.NumClasses]error {
	var errs [qos.NumClasses]error
	for c := range errs {
		errs[c] = &QueueFullError{Class: qos.Class(c)}
	}
	return errs
}()

// Policy selects the backpressure behaviour of a full queue.
type Policy uint8

// Backpressure policies.
const (
	// BlockWhenFull (the default) blocks the submitter until queue space
	// frees, honoring context cancellation.
	BlockWhenFull Policy = iota
	// RejectWhenFull fails the submission with ErrQueueFull without
	// enqueueing anything.
	RejectWhenFull
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case BlockWhenFull:
		return "block"
	case RejectWhenFull:
		return "reject"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Options parameterize an Engine. The zero value is usable.
type Options struct {
	// Drainers is the number of drainer goroutines (and queues); shards
	// are assigned drainer shard%Drainers. 0 defaults to one drainer per
	// shard, capped at 4x GOMAXPROCS; values above the shard count are
	// clamped to it (more drainers than shards would idle).
	Drainers int
	// QueueDepth bounds each drainer's queue, in requests (a batch
	// submission counts one request per touched drainer). Default 256.
	QueueDepth int
	// Policy selects blocking or rejecting backpressure on a full queue.
	// Backpressure is per class: each class has its own bounded ring per
	// drainer, so a saturated Background ring rejects (or blocks) only
	// Background submissions while Foreground traffic keeps flowing.
	Policy Policy
	// Sched selects how drainers arbitrate between their per-class
	// rings: strict priority (the zero value) or weighted-deficit
	// round-robin with per-class weights. See qos.Sched.
	Sched qos.Sched
	// MigrationRun bounds the pending addresses one background migration
	// step examines during a live resize (0 = the directory policy's
	// run length, or directory.DefaultMigrationRun).
	MigrationRun int
	// Faults optionally installs a fault injector (internal/faults).
	// nil — the default — disables injection entirely: the drain path
	// pays one nil check per boundary and nothing else.
	Faults *faults.Injector
	// StallThreshold is the watchdog's per-drainer no-progress bound: a
	// drainer with queued work and no heartbeat for longer than this is
	// reported Stalled by Health() and flips the engine Degraded. 0
	// defaults to DefaultStallThreshold; negative disables the watchdog
	// goroutine entirely.
	StallThreshold time.Duration
}

// DefaultQueueDepth is the per-drainer queue bound when Options leaves
// QueueDepth zero.
const DefaultQueueDepth = 256

func (o Options) withDefaults(shards int) Options {
	if o.Drainers <= 0 {
		o.Drainers = shards
		if lim := 4 * runtime.GOMAXPROCS(0); o.Drainers > lim {
			o.Drainers = lim
		}
	}
	if o.Drainers > shards {
		o.Drainers = shards
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.StallThreshold == 0 {
		o.StallThreshold = DefaultStallThreshold
	}
	o.Sched = o.Sched.WithDefaults()
	return o
}

// request is one queue element: a run of accesses for one drainer, plus
// where its results and completion go.
type request struct {
	accs []directory.Access
	// t is the submission's ticket; nil for a detached request, which
	// records no Ops. Access k's Op goes to t.ops[pos[k]] when pos is
	// set (a routed sub-batch of a larger submission), else to t.ops[k].
	t   *Ticket
	pos []int32
	// buf is the pooled buffer accs (and pos) live in when the engine
	// made the copy; nil when accs aliases the caller's batch. Whoever
	// retires the request returns it: send for a request that never
	// entered a ring, the drainer for one it applied.
	buf *reqBuf
	// enq is when the request entered (or began blocking to enter) its
	// ring; the drainer records now-enq into the class's latency
	// histogram at completion. Zero on barriers and stop sentinels.
	enq time.Time
	// class is the submission's priority class: it names the ring the
	// request sits in, and the latency histogram its completion lands
	// in. Barriers and stop sentinels carry the class of the ring they
	// were sent down.
	class qos.Class
	// barrier completes t without applying anything; stop additionally
	// ends the drainer (for its ring's class).
	barrier bool
	stop    bool
}

// reqBuf is one pooled request buffer: the accesses of a copy the engine
// makes (a one-drainer detached batch, or one drainer's sub-batch of a
// routed submission) and, when the submission records Ops, each
// access's position in the batch. Neither slice holds pointers, so a
// pooled buffer keeps no caller data reachable.
type reqBuf struct {
	accs []directory.Access
	pos  []int32
}

// reqBufs pools request buffers. A sync.Pool rather than a free list:
// it drops idle buffers at GC, so a burst cannot pin memory for the
// engine's lifetime, and it needs no sizing constant.
var reqBufs = sync.Pool{New: func() any { return new(reqBuf) }}

// getReqBuf takes an empty buffer from the pool.
func getReqBuf() *reqBuf { return reqBufs.Get().(*reqBuf) }

// reserve makes room in b for n accesses, and for n positions when pos
// is set, allocating each slice that is short of it once.
func (b *reqBuf) reserve(n int, pos bool) {
	if cap(b.accs) < n {
		b.accs = make([]directory.Access, 0, n)
	}
	if pos && cap(b.pos) < n {
		b.pos = make([]int32, 0, n)
	}
}

// putReqBuf returns b (nil is a no-op) to the pool. A buffer grown past
// one run's access bound is dropped: pooling it would keep an outsized
// batch's memory alive for every later small one.
func putReqBuf(b *reqBuf) {
	if b == nil || cap(b.accs) > maxCoalesceAccs {
		return
	}
	b.accs, b.pos = b.accs[:0], b.pos[:0]
	reqBufs.Put(b)
}

// stackDrainers is the largest drainer count whose routing scratch
// Submit keeps on its stack; a larger engine routes through the heap.
const stackDrainers = 16

// classRings is one drainer's per-class ring set: one bounded MPSC ring
// per priority class, arbitrated by the drain policy.
type classRings [qos.NumClasses]chan request

// The drainer's blocking pop is open-coded over exactly two classes;
// this conversion fails to compile if qos.NumClasses ever changes
// without this file keeping up.
var _ [2]chan request = classRings{}

// Ticket is a pollable completion handle for one submission.
//
// # Terminal states
//
// A ticket reaches exactly one of three terminal states (the table test
// in ticket_test.go pins them):
//
//   - completed: every access applied; Done closes, Wait and Err return
//     nil, Ops holds every result.
//   - erred: the engine failed part of the submission (a contained
//     drainer panic, a quarantined shard). Done still closes — waiters
//     never hang on a fault — but Wait and Err return the failure, and
//     the Ops entries of the failed span are zero Ops.
//   - abandoned: the submission failed MID-ENQUEUE (context
//     cancellation under BlockWhenFull). The caller got an error and no
//     ticket, so the ticket is internal-only from then on: the enqueued
//     prefix still applies, the callback is suppressed, and the
//     internal Done/Wait observe a normal completion.
type Ticket struct {
	done    chan struct{}
	ops     []directory.Op
	pending atomic.Int32
	fn      func([]directory.Op, error)
	// errp is the terminal error (first failure wins); nil on a clean
	// completion.
	errp atomic.Pointer[error]
	// abandoned suppresses the callback when a submission failed
	// mid-enqueue (context cancellation): the enqueued prefix still
	// applies, but the caller saw an error, so fn must not fire on a
	// partial result.
	abandoned atomic.Bool
}

func newTicket(pending int, ops []directory.Op, fn func([]directory.Op, error)) *Ticket {
	t := &Ticket{done: make(chan struct{}), ops: ops, fn: fn}
	t.pending.Store(int32(pending))
	return t
}

// Done returns a channel closed when every access of the submission has
// been applied (or failed — see Err).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the submission completes or ctx is cancelled. On
// completion it returns the submission's terminal error (nil, or the
// engine failure Err reports); on cancellation it returns ctx's error
// and abandons the wait only — the enqueued work still runs.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.done:
		return t.terr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err reports the submission's terminal error: nil after a clean
// completion, or the failure (ErrShardQuarantined-wrapping) recorded
// when the engine contained a fault while applying it. It must only be
// called after Done is closed; it panics otherwise (same contract as
// Ops).
func (t *Ticket) Err() error {
	select {
	case <-t.done:
		return t.terr()
	default:
		panic("engine: Ticket.Err before completion")
	}
}

// terr loads the terminal error without the completion gate.
func (t *Ticket) terr() error {
	if p := t.errp.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the ticket's terminal error; the first failure
// wins (later shards of the same submission may fail differently).
//
//cuckoo:cold
func (t *Ticket) fail(err error) {
	t.errp.CompareAndSwap(nil, &err)
}

// Ops returns the per-access results in submission order. It must only
// be called after Done is closed (Wait returned); the slice is owned by
// the caller from then on. After an erred completion (Err != nil) the
// entries of the failed span are zero Ops.
func (t *Ticket) Ops() []directory.Op {
	select {
	case <-t.done:
		return t.ops
	default:
		panic("engine: Ticket.Ops before completion")
	}
}

// Op returns the first result (Ops()[0]) — the whole result of a
// one-access request.
func (t *Ticket) Op() directory.Op { return t.Ops()[0] }

// complete retires one request of the ticket; the last one fires the
// callback and closes done.
//
//cuckoo:hotpath
func (t *Ticket) complete() {
	if t.pending.Add(-1) == 0 {
		if t.fn != nil && !t.abandoned.Load() {
			t.fn(t.ops, t.terr())
		}
		//cuckoo:ignore ticket completion IS the channel close; Done() waiters unblock on it
		close(t.done)
	}
}

// Stats is a snapshot of an engine's submission counters.
//
//cuckoo:stats merge=Merge
type Stats struct {
	// SubmittedAccesses / CompletedAccesses count individual accesses
	// accepted into queues and applied to the directory.
	SubmittedAccesses uint64
	CompletedAccesses uint64
	// SubmittedRequests / CompletedRequests count queue elements (a
	// batch contributes one per touched drainer; barriers not counted).
	SubmittedRequests uint64
	CompletedRequests uint64
	// Rejected counts submissions refused with ErrQueueFull.
	Rejected uint64
	// Flushes counts Flush barriers completed.
	Flushes uint64
	// MigrationRuns / MigratedEntries count background migration steps
	// the drainers executed during live resizes and the entries those
	// steps moved old table -> new table (touch migrations on the access
	// path are not the drainers' work and are counted by the directory's
	// own ResizeStats instead).
	MigrationRuns   uint64
	MigratedEntries uint64
	// ResizesStarted counts resizes begun through the engine
	// (ResizeShardSpec and automatic growth);
	// ResizesCompleted counts migrations the drainers drove to
	// completion. An empty-shard resize completes in place without
	// drainer work, so it is counted started but not completed here
	// (the directory's ResizeStats counts both sides).
	ResizesStarted   uint64
	ResizesCompleted uint64
	// GrowFailures counts automatic-growth attempts that failed (a
	// grown geometry exceeding spec bounds, or an injected build
	// failure). The trigger condition persists, so one overload can count
	// many failures; Health().LastGrowError keeps the latest cause.
	GrowFailures uint64
	// Shed counts submissions refused with ErrDeadlineExceeded before
	// enqueue (the caller's deadline had already expired).
	Shed uint64
	// ContainedPanics counts drainer panics the engine recovered; each
	// one quarantines the shard it hit.
	ContainedPanics uint64
	// ErredAccesses counts accesses whose requests completed with an
	// error instead of applying (contained panics, quarantined shards).
	ErredAccesses uint64
	// Classes splits the traffic by priority class: per-class
	// submitted/completed/rejected/shed counters plus the
	// enqueue-to-completion latency distribution each drainer records
	// (power-of-two ns buckets, merged across drainers). The aggregate
	// counters above count ALL classes; Classes says who the traffic
	// was and what tail it saw.
	Classes [qos.NumClasses]qos.ClassStats
}

// Merge accumulates another snapshot into s — the aggregation path for
// multi-engine deployments (one engine per directory partition). Every
// Stats field must be consumed here; the statsmerge analyzer enforces
// it.
func (s *Stats) Merge(o Stats) {
	s.SubmittedAccesses += o.SubmittedAccesses
	s.CompletedAccesses += o.CompletedAccesses
	s.SubmittedRequests += o.SubmittedRequests
	s.CompletedRequests += o.CompletedRequests
	s.Rejected += o.Rejected
	s.Flushes += o.Flushes
	s.MigrationRuns += o.MigrationRuns
	s.MigratedEntries += o.MigratedEntries
	s.ResizesStarted += o.ResizesStarted
	s.ResizesCompleted += o.ResizesCompleted
	s.GrowFailures += o.GrowFailures
	s.Shed += o.Shed
	s.ContainedPanics += o.ContainedPanics
	s.ErredAccesses += o.ErredAccesses
	for c := range s.Classes {
		s.Classes[c].Merge(o.Classes[c])
	}
}

// Engine is the asynchronous submission front-end. It is safe for
// concurrent use by any number of producers.
type Engine struct {
	dir *directory.ShardedDirectory
	opt Options
	// queues[qi] is drainer qi's per-class ring set; the drain policy
	// (Options.Sched) arbitrates between the rings.
	queues []classRings
	// depth tracks each ring's outstanding requests for the
	// RejectWhenFull reservation protocol (see reserve), indexed
	// qi*qos.NumClasses+class — backpressure is per class.
	depth []atomic.Int64
	// recs[qi] is drainer qi's padded per-class latency recorder
	// (single writer; snapshots race safely through its atomics).
	recs []qos.Recorder

	// mu serializes submissions against Close: submitters hold the read
	// side across the closed check and the enqueue.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	// auto is fixed at New: the directory carries a ResizePolicy, so
	// drainers check their shards' load after each run.
	auto bool

	// faults is the optional injector (Options.Faults); nil = disabled,
	// and every evaluation site guards on that nil.
	faults *faults.Injector
	// stopc closes at the START of Close — before mu is taken — so
	// injected stalls break, the watchdog exits, and producers blocked
	// behind a stalled drainer can drain out of send.
	stopc    chan struct{}
	stopOnce sync.Once

	// quar[h] marks shard h quarantined after a contained panic there;
	// poison[h] keeps the panic-derived error. beats[qi] is drainer
	// qi's heartbeat: one increment per run popped; the watchdog flags
	// a drainer stalled when its beat freezes while its queue holds
	// work. (Slice headers only — the atomic backing arrays live off-
	// struct, away from the mutexes.)
	quar   []atomic.Bool
	poison []atomic.Value
	beats  []atomic.Uint64
	// healthMu guards the watchdog's observations (obs).
	healthMu sync.Mutex
	obs      []drainerObs

	// The stats counters are polled lock-free while mu's (and
	// healthMu's) word bounces between owners; keep them a full cache
	// line away.
	_ [64]byte

	subAcc, cmpAcc, subReq, cmpReq, rejected, flushes atomic.Uint64
	migRuns, migrated, rzStarted, rzDone, growFail    atomic.Uint64
	shed, contained, erredAcc                         atomic.Uint64
	// Per-class splits of the submission counters above (latency lives
	// in the per-drainer recorders instead, to keep this block small).
	clsSubAcc, clsCmpAcc, clsRej, clsShed [qos.NumClasses]atomic.Uint64
	// quarCount is the fast any-quarantined check the submit path
	// reads; degraded mirrors "any shard quarantined or any drainer
	// stalled" (quarantine sets it eagerly, the watchdog recomputes
	// it); lastGrow keeps the most recent automatic-growth failure for
	// Health().
	quarCount atomic.Int64
	degraded  atomic.Bool
	lastGrow  atomic.Value
}

// New builds an engine over dir and starts its drainer goroutines. The
// caller must not drive dir's mutating entry points directly while the
// engine is open (point reads like Lookup/Counters remain fine — they
// take the same shard locks the drainers do).
func New(dir *directory.ShardedDirectory, o Options) (*Engine, error) {
	if dir == nil {
		return nil, errors.New("engine: nil directory")
	}
	if o.Drainers < 0 || o.QueueDepth < 0 || o.MigrationRun < 0 {
		return nil, fmt.Errorf("engine: negative option (drainers %d, queue depth %d, migration run %d)",
			o.Drainers, o.QueueDepth, o.MigrationRun)
	}
	if o.Policy > RejectWhenFull {
		return nil, fmt.Errorf("engine: unknown policy %d", o.Policy)
	}
	if err := o.Sched.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	o = o.withDefaults(dir.ShardCount())
	e := &Engine{
		dir:    dir,
		opt:    o,
		queues: make([]classRings, o.Drainers),
		depth:  make([]atomic.Int64, o.Drainers*qos.NumClasses),
		recs:   make([]qos.Recorder, o.Drainers),
		faults: o.Faults,
		stopc:  make(chan struct{}),
		quar:   make([]atomic.Bool, dir.ShardCount()),
		poison: make([]atomic.Value, dir.ShardCount()),
		beats:  make([]atomic.Uint64, o.Drainers),
		obs:    make([]drainerObs, o.Drainers),
	}
	for i := range e.queues {
		for c := range e.queues[i] {
			e.queues[i][c] = make(chan request, o.QueueDepth)
		}
	}
	e.auto = dir.ResizePolicy().MaxLoad > 0
	e.wg.Add(o.Drainers)
	for i := range e.queues {
		go e.drain(i)
	}
	if o.StallThreshold > 0 {
		e.wg.Add(1)
		go e.watchdog()
	}
	return e, nil
}

// Options returns the effective (defaulted) options.
func (e *Engine) Options() Options { return e.opt }

// Directory returns the engine's underlying sharded directory.
func (e *Engine) Directory() *directory.ShardedDirectory { return e.dir }

// Stats returns a snapshot of the submission counters, including the
// per-class split and each class's latency distribution merged across
// the drainers' recorders.
func (e *Engine) Stats() Stats {
	st := Stats{
		SubmittedAccesses: e.subAcc.Load(),
		CompletedAccesses: e.cmpAcc.Load(),
		SubmittedRequests: e.subReq.Load(),
		CompletedRequests: e.cmpReq.Load(),
		Rejected:          e.rejected.Load(),
		Flushes:           e.flushes.Load(),
		MigrationRuns:     e.migRuns.Load(),
		MigratedEntries:   e.migrated.Load(),
		ResizesStarted:    e.rzStarted.Load(),
		ResizesCompleted:  e.rzDone.Load(),
		GrowFailures:      e.growFail.Load(),
		Shed:              e.shed.Load(),
		ContainedPanics:   e.contained.Load(),
		ErredAccesses:     e.erredAcc.Load(),
	}
	for c := range st.Classes {
		st.Classes[c] = qos.ClassStats{
			SubmittedAccesses: e.clsSubAcc[c].Load(),
			CompletedAccesses: e.clsCmpAcc[c].Load(),
			Rejected:          e.clsRej[c].Load(),
			Shed:              e.clsShed[c].Load(),
			Latency:           e.classLatency(qos.Class(c)),
		}
	}
	return st
}

// classLatency merges class c's distribution across the per-drainer
// recorders.
func (e *Engine) classLatency(c qos.Class) qos.Latency {
	var l qos.Latency
	for qi := range e.recs {
		l.Merge(e.recs[qi].Snapshot(c))
	}
	return l
}

// Pending returns the number of enqueued-but-unfinished requests across
// all queues (approximate while producers and drainers race).
func (e *Engine) Pending() int {
	total := int64(0)
	for i := range e.depth {
		total += e.depth[i].Load()
	}
	return int(total)
}

// queueOf returns the drainer queue index of shard h.
func (e *Engine) queueOf(h int) int { return h % e.opt.Drainers }

// di returns ring (qi, c)'s index into the per-ring depth accounting.
func di(qi int, c qos.Class) int { return qi*qos.NumClasses + int(c) }

// drainerDepth returns drainer qi's outstanding request count, summed
// over its per-class rings.
func (e *Engine) drainerDepth(qi int) int64 {
	var total int64
	for c := 0; c < qos.NumClasses; c++ {
		total += e.depth[di(qi, qos.Class(c))].Load()
	}
	return total
}

// validate rejects malformed accesses with an error on the submitter's
// stack — the engine's drainers must never panic on behalf of a remote
// caller.
func (e *Engine) validate(accs []directory.Access) error {
	n := e.dir.NumCaches()
	for i, a := range accs {
		if a.Kind > directory.AccessEvict {
			return fmt.Errorf("engine: access %d: unknown kind %d", i, a.Kind)
		}
		if a.Cache < 0 || a.Cache >= n {
			return fmt.Errorf("engine: access %d: cache %d out of range (tracking %d)", i, a.Cache, n)
		}
	}
	return nil
}

// Request is one engine submission: a batch of accesses, the priority
// class it rides, and how its results come back. The zero values select
// the common case — a Foreground batch whose results arrive on the
// returned Ticket.
type Request struct {
	// Accesses is the batch, applied in order per home shard. The engine
	// routes each access to its home shard's drainer, so a batch may fan
	// out to several drainers; it completes when the last sub-batch has
	// applied. Unless Detached, the slice may be retained until completion
	// — do not mutate it before then.
	Accesses []directory.Access
	// Class is the priority class: the batch rides that class's rings,
	// drains under its priority, and its latency lands in its histogram.
	// The zero value is qos.Foreground.
	Class qos.Class
	// Done, when non-nil, replaces the ticket: it receives the batch's
	// Ops (in batch order) and the terminal error (nil, or the failure
	// Ticket.Err would report) on an engine goroutine once every access
	// has applied, and Submit returns a nil ticket. Keep it short — it
	// runs on the drainer that completed the batch.
	Done func(ops []directory.Op, err error)
	// Detached submits fire-and-forget: no ticket, no Op recording — the
	// cheapest path (Flush still covers it). The batch is copied during
	// routing, so the caller may reuse its slice as soon as Submit
	// returns. Detached excludes Done.
	Detached bool
}

// Submit validates and enqueues one request, returning its ticket (nil
// when the request is Detached or carries a Done callback). ctx applies
// to the enqueue only — a blocked submitter under BlockWhenFull, or a
// deadline already expired (ErrDeadlineExceeded) — and once enqueued the
// batch is applied regardless of ctx. An empty batch, an unknown class,
// Done together with Detached, or a malformed access fails with an error
// and enqueues nothing.
func (e *Engine) Submit(ctx context.Context, r Request) (*Ticket, error) {
	c, accs := r.Class, r.Accesses
	if !c.Valid() {
		return nil, fmt.Errorf("engine: unknown class %d", c)
	}
	if r.Done != nil && r.Detached {
		return nil, errors.New("engine: request is both Detached and has a Done callback")
	}
	if len(accs) == 0 {
		return nil, errors.New("engine: empty batch")
	}
	if err := e.validate(accs); err != nil {
		return nil, err
	}
	if e.quarCount.Load() > 0 {
		// Fail fast on the submitter's stack instead of queueing work
		// the drainer can only fail later.
		if err := e.checkQuarantined(accs); err != nil {
			return nil, err
		}
	}

	// Route the batch: per-drainer sub-batches, in batch order. Up to
	// stackDrainers drainers, the routing scratch lives in arrays on this
	// stack; only a larger engine pays a heap fallback.
	D := e.opt.Drainers
	recording := !r.Detached
	var reqArr [stackDrainers]request
	var queueArr [stackDrainers]int
	reqs, queues := reqArr[:0], queueArr[:0]
	if D > stackDrainers {
		reqs, queues = make([]request, 0, D), make([]int, 0, D)
	}
	if D == 1 {
		rq := request{accs: accs, class: c}
		if !recording {
			// A detached submission has no ticket, so the caller can
			// never know when buffer reuse is safe — take a copy instead
			// of aliasing the batch (the multi-drainer routing below
			// copies as a side effect of splitting).
			rq.buf = getReqBuf()
			rq.buf.accs = append(rq.buf.accs, accs...)
			rq.accs = rq.buf.accs
		}
		reqs, queues = append(reqs, rq), append(queues, 0)
	} else {
		var subArr [stackDrainers]*reqBuf
		subs := subArr[:]
		if D > stackDrainers {
			subs = make([]*reqBuf, D)
		}
		for i, a := range accs {
			q := e.queueOf(e.dir.ShardOf(a.Addr))
			b := subs[q]
			if b == nil {
				// A sub-batch holds at most the whole batch: sizing its
				// buffer for that up front costs a fresh buffer one
				// allocation per slice instead of a regrowth through
				// every size class, and a pooled buffer never regrows
				// for a batch no longer than the ones before it.
				b = getReqBuf()
				b.reserve(len(accs), recording)
				subs[q] = b
			}
			b.accs = append(b.accs, a)
			if recording {
				b.pos = append(b.pos, int32(i))
			}
		}
		for q, b := range subs[:D] {
			if b == nil {
				continue
			}
			rq := request{accs: b.accs, class: c, buf: b}
			// A whole batch landing on one queue keeps its results
			// contiguous — no positions needed. Detached batches record
			// nothing at all.
			if recording && len(b.accs) != len(accs) {
				rq.pos = b.pos
			}
			reqs, queues = append(reqs, rq), append(queues, q)
		}
	}

	var t *Ticket
	if recording {
		t = newTicket(len(reqs), make([]directory.Op, len(accs)), r.Done)
		for i := range reqs {
			reqs[i].t = t
		}
	}
	if err := e.send(ctx, c, queues, reqs); err != nil {
		return nil, err
	}
	if r.Done != nil {
		return nil, nil
	}
	return t, nil
}

// SubmitBatch submits accs as a Foreground request with a ticket — the
// Submit(ctx, Request{Accesses: accs}) shorthand.
func (e *Engine) SubmitBatch(ctx context.Context, accs []directory.Access) (*Ticket, error) {
	return e.Submit(ctx, Request{Accesses: accs})
}

// SubmitDetachedClass submits accs fire-and-forget at class c — the
// Submit(ctx, Request{Accesses: accs, Class: c, Detached: true})
// shorthand for bulk loads, whose background fills ride the background
// ring and shed first under saturation.
func (e *Engine) SubmitDetachedClass(ctx context.Context, c qos.Class, accs []directory.Access) error {
	_, err := e.Submit(ctx, Request{Accesses: accs, Class: c, Detached: true})
	return err
}

// send enqueues reqs (see enqueue) and gives back the pooled buffers of
// the requests that never entered a ring — all of them on a refusal,
// the unsent remainder on a mid-enqueue cancellation. The drainer gives
// back the rest once it retires them.
func (e *Engine) send(ctx context.Context, c qos.Class, queues []int, reqs []request) error {
	sent, err := e.enqueue(ctx, c, queues, reqs)
	for i := sent; i < len(reqs); i++ {
		putReqBuf(reqs[i].buf)
	}
	return err
}

// enqueue puts reqs[i] on class c's ring of drainer queues[i] under the
// submission lock, applying the backpressure policy, and reports how
// many requests entered a ring. Backpressure is per class: under
// RejectWhenFull it first reserves space on every target ring of c —
// the whole submission enqueues or none of it does, and a refusal
// carries the class (QueueFullError) — while under BlockWhenFull only
// class c's rings can block the submitter.
func (e *Engine) enqueue(ctx context.Context, c qos.Class, queues []int, reqs []request) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Deadline shedding: a submission whose deadline has already passed
	// is refused before it can occupy queue space — its caller has
	// stopped waiting, so queueing it only deepens an overload.
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		e.shed.Add(1)
		e.clsShed[c].Add(1)
		return 0, ErrDeadlineExceeded
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0, ErrClosed
	}
	if e.faults != nil {
		// Injected saturation, keyed by the submission's CLASS: the
		// submission observes a full ring regardless of actual depth —
		// the client-visible symptom of an overloaded drainer, without
		// having to construct one — and a chaos test can saturate only
		// the background ring.
		if ferr := e.faults.Fire(faults.QueueSaturation, int(c)); ferr != nil {
			e.rejected.Add(1)
			e.clsRej[c].Add(1)
			return 0, queueFullErrs[c]
		}
	}
	// Stamp enqueue time once per submission: the drainer's completion
	// record measures from here, so queue wait (including any blocking
	// below — that IS queueing delay) counts toward the class's tail.
	now := time.Now()
	for i := range reqs {
		reqs[i].enq = now
	}
	if e.opt.Policy == RejectWhenFull {
		if !e.reserve(c, queues) {
			e.rejected.Add(1)
			e.clsRej[c].Add(1)
			return 0, queueFullErrs[c]
		}
		// Reserved space means the buffered sends below cannot block.
		for i, q := range queues {
			e.queues[q][c] <- reqs[i]
			e.account(reqs[i])
		}
		return len(reqs), nil
	}
	for i, q := range queues {
		e.depth[di(q, c)].Add(1)
		select {
		case e.queues[q][c] <- reqs[i]:
			e.account(reqs[i])
		case <-ctx.Done():
			e.depth[di(q, c)].Add(-1)
			// Earlier sub-batches are already enqueued and will apply.
			// The caller only sees the ctx error (never the ticket), so
			// suppress any callback and retire the unsent remainder to
			// keep the internal ticket accounting balanced.
			if t := reqs[i].t; t != nil {
				t.abandoned.Store(true)
			}
			for j := i; j < len(reqs); j++ {
				if reqs[j].t != nil {
					reqs[j].t.complete()
				}
			}
			return i, ctx.Err()
		}
	}
	return len(reqs), nil
}

// reserve atomically claims one slot on class c's ring of every queue
// in queues (which may repeat indices — each occurrence claims a slot),
// rolling back and reporting false if any ring is full.
func (e *Engine) reserve(c qos.Class, queues []int) bool {
	for i, q := range queues {
		for {
			d := e.depth[di(q, c)].Load()
			if d >= int64(e.opt.QueueDepth) {
				for _, back := range queues[:i] {
					e.depth[di(back, c)].Add(-1)
				}
				return false
			}
			if e.depth[di(q, c)].CompareAndSwap(d, d+1) {
				break
			}
		}
	}
	return true
}

// account tallies an accepted request.
func (e *Engine) account(r request) {
	e.subReq.Add(1)
	e.subAcc.Add(uint64(len(r.accs)))
	e.clsSubAcc[r.class].Add(uint64(len(r.accs)))
}

// Flush blocks until every request submitted before the call has been
// applied (requests submitted concurrently with Flush may or may not be
// covered). It inserts a barrier into every queue — per-queue FIFO then
// guarantees the drain. ctx cancels the wait, not the barriers.
func (e *Engine) Flush(ctx context.Context) error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	t := e.barrier()
	e.mu.RUnlock()
	if err := t.Wait(ctx); err != nil {
		return err
	}
	e.flushes.Add(1)
	return nil
}

// barrier enqueues a barrier request on EVERY ring of every queue —
// per-ring FIFO then covers both classes — and returns its ticket.
// Barriers bypass the backpressure policy (they must succeed) and are
// not counted in the depth accounting. Callers hold e.mu.
func (e *Engine) barrier() *Ticket {
	t := newTicket(len(e.queues)*qos.NumClasses, nil, nil)
	for _, rings := range e.queues {
		for c, q := range rings {
			q <- request{t: t, barrier: true, class: qos.Class(c)}
		}
	}
	return t
}

// Close drains every queue, stops the drainers and marks the engine
// closed; submissions racing with Close either enqueue (and complete)
// or fail with ErrClosed. Close is idempotent; concurrent Closes block
// until the first finishes.
func (e *Engine) Close() error {
	// Release the stop channel BEFORE taking mu: injected stalls break
	// on it and the watchdog exits on it, and a producer blocked in
	// send behind a stalled drainer holds mu's read side — closing
	// stopc first is what lets that producer drain out so the write
	// lock below can ever be acquired.
	e.stopOnce.Do(func() { close(e.stopc) })
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	// No submitter can enqueue past the closed flag, so the stop
	// sentinel is the last element of each ring; a drainer exits only
	// after it has seen the stop of EVERY ring, so both classes drain
	// fully.
	for _, rings := range e.queues {
		for c, q := range rings {
			q <- request{stop: true, class: qos.Class(c)}
		}
	}
	e.wg.Wait()
	return nil
}

// Coalescing bounds: a drainer pops at most maxCoalesceReqs queued
// requests (or maxCoalesceAccs accumulated accesses) into one run
// before applying, so scratch memory stays bounded while the
// amortization win — one shard-lock acquisition and one scheduling
// round-trip for a whole backlog — is kept.
const (
	maxCoalesceReqs = 64
	maxCoalesceAccs = 8192
)

// drain is one drainer goroutine: it pops RUNS of requests off its
// bounded per-class rings — the first pop blocks, then every request
// already queued behind it is taken without blocking (up to the
// coalescing bounds), in the order the drain policy dictates — and
// applies each run's accesses for a shard through ONE ApplyShardOps
// call. This is the batch-amortized drain closing the queue-transfer
// gap vs. direct ApplyShard: while the drainer applies, producers
// deepen the queues, and the whole backlog then costs one wake-up, one
// lock acquisition per touched shard and one validation pass, instead
// of one of each per submission. FIFO is preserved PER RING — one
// class's requests to one shard complete in submission order; ordering
// ACROSS classes is exactly what the scheduler trades away (barriers
// and stop cut a run and are handled after the requests popped before
// them). Lifecycle bookkeeping (the deferred WaitGroup release) lives
// here; the pop/apply loop itself is drainLoop, the annotated hot path.
func (e *Engine) drain(qi int) {
	defer e.wg.Done()
	// gathers[b] collects a run's accesses homing onto shard
	// qi+b*Drainers (the shards this drainer serves).
	gathers := make([]shardGather, (e.dir.ShardCount()-qi+e.opt.Drainers-1)/e.opt.Drainers)
	e.drainLoop(qi, e.queues[qi], gathers)
}

// shardGather is one shard's share of a run: its accesses in pop order
// and, when the run records Ops, the ticket slot each access's Op goes
// to (nil for a detached request's access).
type shardGather struct {
	accs  []directory.Access
	slots []*directory.Op
}

// drainSched is one drainer's scheduling state: which rings are still
// live (their stop sentinel not yet seen) and, under WeightedDeficit,
// each class's remaining credit in accesses. It lives on the drainer's
// stack — the policy costs no atomics and no sharing.
type drainSched struct {
	weighted bool
	quantum  int64
	weights  [qos.NumClasses]int64
	credits  [qos.NumClasses]int64
	live     [qos.NumClasses]bool
}

func newDrainSched(s qos.Sched) drainSched {
	d := drainSched{
		weighted: s.Policy == qos.WeightedDeficit,
		quantum:  int64(s.Quantum),
	}
	for c := range d.weights {
		d.weights[c] = int64(s.Weights[c])
		d.live[c] = true
		d.credits[c] = d.weights[c] * d.quantum
	}
	return d
}

// anyLive reports whether any ring has not yet delivered its stop.
//
//cuckoo:hotpath
func (s *drainSched) anyLive() bool { return s.live[qos.Foreground] || s.live[qos.Background] }

// charge debits a popped request against its class's credit (weighted
// policy only; barriers and sentinels carry no accesses and cost
// nothing).
//
//cuckoo:hotpath
func (s *drainSched) charge(r request) {
	if s.weighted {
		s.credits[r.class] -= int64(len(r.accs))
	}
}

// refill grants every live class a fresh Weights[c]*Quantum accesses of
// credit, carrying accumulated overdraft — called when no class could
// pop under its current credit.
//
//cuckoo:hotpath
func (s *drainSched) refill() {
	for c := range s.credits {
		if !s.live[c] {
			continue
		}
		if s.credits[c] < 0 {
			s.credits[c] += s.weights[c] * s.quantum
		} else {
			s.credits[c] = s.weights[c] * s.quantum
		}
	}
}

// popNB is the policy-ordered non-blocking pop: it tries the live
// classes in priority order — under weighted-deficit only those holding
// credit — and returns the first request any of them yields.
// allowRefill distinguishes a run's FIRST pop (refill once when every
// eligible ring came up empty, so a backlogged class with spent credit
// is never wrongly declared idle) from the coalescing pops that extend
// a run (no refill: a class that exhausts its credit mid-run stops
// extending THIS run and earns fresh credit at the next run boundary —
// which is what bounds a run's lower-priority burst, and with it the
// priority-inversion window a just-arrived foreground request can be
// stuck behind, to roughly Weights[bg]*Quantum accesses instead of the
// full coalescing cap). Reports false when nothing can be popped.
//
//cuckoo:hotpath
func (s *drainSched) popNB(rings classRings, allowRefill bool) (request, bool) {
	refill := allowRefill && s.weighted
	for {
		for c, ring := range rings {
			if !s.live[c] || (s.weighted && s.credits[c] <= 0) {
				continue
			}
			//cuckoo:ignore the ring IS a channel by design; the policy-ordered non-blocking pop
			select {
			case r := <-ring:
				s.charge(r)
				return r, true
			default:
			}
		}
		// Nothing popped: either the eligible rings are empty or the
		// non-empty rings are out of credit — one refill resolves the
		// ambiguity (a second failure means genuinely empty).
		if !refill {
			return request{}, false
		}
		s.refill()
		refill = false
	}
}

// popBlocking parks the drainer until any live ring delivers; a retired
// ring is left nil, and a nil channel never delivers. The arrival order
// decides between simultaneously-ready rings (both were empty when
// popNB gave up); the policy re-asserts itself on the coalescing pops
// that follow.
//
//cuckoo:hotpath
func (s *drainSched) popBlocking(rings classRings) request {
	for c := range rings {
		if !s.live[c] {
			rings[c] = nil
		}
	}
	var r request
	//cuckoo:ignore the rings ARE channels by design; this is the drainer's blocking pop over its live rings
	select {
	case r = <-rings[qos.Foreground]:
	case r = <-rings[qos.Background]:
	}
	s.charge(r)
	return r
}

// drainLoop is the drainer's run loop. Its rings ARE channels — the
// pops carry ignore directives; everything else on the loop honors the
// hot-path contract. The drain policy (Options.Sched) decides which
// class's ring each pop serves: strict priority never takes background
// work while foreground work waits, weighted-deficit meters both
// classes by credit. Resize work interleaves here: while any shard
// migrates, idle rings yield migration steps instead of a blocking
// pop, and every applied run is followed by one bounded step — so a
// live rehash proceeds under sustained traffic AND drains at full
// drainer speed in the gaps, without a dedicated migration goroutine.
//
//cuckoo:hotpath
func (e *Engine) drainLoop(qi int, rings classRings, gathers []shardGather) {
	var run []request
	var ops []directory.Op // one shard's Ops, before they reach their slots
	sched := newDrainSched(e.opt.Sched)
	for {
		r, ok := sched.popNB(rings, true)
		if !ok {
			if e.dir.MigratingShards() > 0 && e.migrateStep(qi) {
				// Progressed a migration; re-check the rings before the
				// next step so requests never wait on one.
				continue
			}
			r = sched.popBlocking(rings)
		}
		// Heartbeat: one beat per wake-up, BEFORE the apply — a drainer
		// stuck (or stalled by injection) inside a run freezes its beat,
		// which is exactly what the watchdog looks for.
		e.beats[qi].Add(1)
		// Pop a run: r plus everything already queued, in policy order,
		// until a barrier or stop sentinel (processed after the run) or
		// a bound trips. A run may mix classes — each request remembers
		// its own.
		run = run[:0]
		var tail *request
		accs := 0
		for {
			if r.barrier || r.stop {
				tail = &r
				break
			}
			run = append(run, r)
			accs += len(r.accs)
			if len(run) == maxCoalesceReqs || accs >= maxCoalesceAccs {
				break
			}
			var more bool
			r, more = sched.popNB(rings, false)
			if !more {
				break
			}
		}
		if len(run) > 0 {
			e.applyRun(qi, run, gathers, &ops)
			// One bounded migration step per applied run keeps a rehash
			// progressing under sustained traffic; the load check may
			// START one when the directory has an automatic-growth
			// policy.
			if e.dir.MigratingShards() > 0 {
				e.migrateStep(qi)
			}
			if e.auto {
				e.maybeGrow(qi)
			}
		}
		if tail != nil {
			if tail.stop {
				// This ring is done; keep draining the other until its
				// stop arrives too.
				sched.live[tail.class] = false
				if !sched.anyLive() {
					return
				}
				continue
			}
			// A nudge (ResizeShardSpec's drainer wake-up) is a barrier with
			// no ticket: nothing to complete.
			if tail.t != nil {
				tail.t.complete()
			}
		}
	}
}

// migrateStep runs one bounded migration step for each of this
// drainer's migrating shards, reporting whether any shard made
// progress. Off the hot path: it runs at most once per applied run (or
// on an idle queue), not per access.
//
//cuckoo:cold
func (e *Engine) migrateStep(qi int) bool {
	stepped := false
	for h := qi; h < e.dir.ShardCount(); h += e.opt.Drainers {
		if !e.dir.ShardMigrating(h) || e.quar[h].Load() {
			// A quarantined shard's migration is parked for good: its
			// state is suspect, so the drainer neither applies to it nor
			// migrates it.
			continue
		}
		moved, done, err := e.migrateShardStep(h)
		if err != nil {
			continue
		}
		e.migRuns.Add(1)
		e.migrated.Add(uint64(moved))
		if done {
			e.rzDone.Add(1)
		}
		stepped = true
	}
	return stepped
}

// migrateShardStep runs one bounded migration step inside the panic-
// containment boundary: a panic mid-migration (injected or real)
// quarantines the shard — the union view it leaves behind is suspect —
// instead of killing the drainer.
//
//cuckoo:recoverboundary
func (e *Engine) migrateShardStep(h int) (moved int, done bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			moved, done = 0, false
			err = e.quarantine(h, p)
		}
	}()
	if e.faults != nil {
		e.faults.Hit(faults.MigrationPanic, h, e.stopc)
	}
	moved, done = e.dir.MigrateShard(h, e.opt.MigrationRun)
	return moved, done, nil
}

// maybeGrow applies the directory's automatic-growth policy to this
// drainer's shards after a drained run.
//
//cuckoo:cold
func (e *Engine) maybeGrow(qi int) {
	for h := qi; h < e.dir.ShardCount(); h += e.opt.Drainers {
		if e.faults != nil {
			if ferr := e.faults.Fire(faults.GrowBuildFail, h); ferr != nil {
				e.growFail.Add(1)
				e.noteGrowError(h, ferr)
				continue
			}
		}
		started, err := e.dir.GrowShard(h)
		if err != nil {
			e.growFail.Add(1)
			e.noteGrowError(h, err)
			continue
		}
		if started {
			e.rzStarted.Add(1)
		}
	}
}

// noteGrowError records the latest automatic-growth failure for
// Health(): GrowFailures says HOW OFTEN growth failed, this says WHY —
// a silently-counted failure is an overload that never relieves itself.
//
//cuckoo:cold
func (e *Engine) noteGrowError(h int, err error) {
	e.lastGrow.Store(fmt.Errorf("shard %d: %w", h, err))
}

// ResizeShardSpec begins a live resize of shard h to a slice built from
// the spec (directory.ShardedDirectory.ResizeShardSpec) under the
// submission lock, so it cannot race Close, and nudges the shard's
// drainer, which migrates between request runs even while its queue is
// idle; traffic keeps flowing throughout.
func (e *Engine) ResizeShardSpec(h int, slice directory.Spec) error {
	if h < 0 || h >= e.dir.ShardCount() {
		return fmt.Errorf("engine: ResizeShardSpec: shard %d out of range (have %d)", h, e.dir.ShardCount())
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if err := e.dir.ResizeShardSpec(h, slice); err != nil {
		return err
	}
	e.rzStarted.Add(1)
	if !e.dir.ShardMigrating(h) {
		// An empty shard completes its resize in place; no drainer work.
		return nil
	}
	// The nudge is a barrier with no ticket: per-queue FIFO applies it
	// after anything already queued, and it completes nothing — it only
	// breaks the drainer out of its blocking pop so the idle-queue
	// migration path engages. Barriers bypass backpressure (uncounted in
	// depth), so this send can exceed QueueDepth momentarily but never
	// deadlocks against a full queue of ordinary requests. Any ring
	// wakes the drainer; the foreground ring is the one strict priority
	// checks first.
	e.queues[e.queueOf(h)][qos.Foreground] <- request{barrier: true, class: qos.Foreground}
	return nil
}

// applyRun applies one popped run in one gather–apply–scatter pass.
// Each access joins, in pop order, the gather of its home shard (one of
// this drainer's), so a shard applies the WHOLE run's accesses through
// one ApplyShardOps call, not one per request, and per-shard FIFO
// holds. When any request of the run records Ops, each access also
// carries its ticket slot; a shard's Ops land in the reused scratch and
// are copied to their slots only once that shard has applied, so a
// failed shard's slots keep the zero Ops Submit allocated. A run
// without any recording request skips Op storage entirely.
func (e *Engine) applyRun(qi int, run []request, gathers []shardGather, scratch *[]directory.Op) {
	recording := false
	for i := range run {
		recording = recording || run[i].t != nil
	}
	for b := range gathers {
		gathers[b].accs = gathers[b].accs[:0]
		gathers[b].slots = gathers[b].slots[:0]
	}
	for i := range run {
		r := &run[i]
		for k, a := range r.accs {
			g := &gathers[e.dir.ShardOf(a.Addr)/e.opt.Drainers]
			g.accs = append(g.accs, a)
			if !recording {
				continue
			}
			var slot *directory.Op
			if r.t != nil {
				j := k
				if r.pos != nil {
					j = int(r.pos[k])
				}
				slot = &r.t.ops[j]
			}
			g.slots = append(g.slots, slot)
		}
	}
	// runErr, when non-nil, says the engine contained a fault (panic or
	// quarantined shard) while applying some shard of the run.
	var runErr error
	for b := range gathers {
		g := &gathers[b]
		if len(g.accs) == 0 {
			continue
		}
		var ops []directory.Op
		if recording {
			if cap(*scratch) < len(g.accs) {
				*scratch = make([]directory.Op, len(g.accs))
			}
			ops = (*scratch)[:len(g.accs)]
		}
		if err := e.applyShard(qi+b*e.opt.Drainers, g.accs, ops); err != nil {
			if runErr == nil {
				runErr = err
			}
		} else {
			for k, slot := range g.slots {
				if slot != nil {
					*slot = ops[k]
				}
			}
		}
		// The slots point into the run's tickets: drop them so an idle
		// drainer keeps no completed ticket reachable.
		clear(g.slots)
	}
	// Retire each request in pop order. One clock read covers the whole
	// run's latency samples: enqueue-to-completion at power-of-two
	// resolution does not need a per-request timestamp, and the drain
	// path stays clock-cheap.
	now := time.Now()
	for i := range run {
		r := run[i]
		e.recs[qi].Record(r.class, now.Sub(r.enq))
		err := runErr
		if err != nil {
			// Only requests touching a failed (now quarantined) shard
			// fail; the rest of the run applied.
			err = e.checkQuarantined(r.accs)
		}
		// Nothing reads the buffer past this point, so it goes back
		// before the completion that may wake a waiting submitter.
		putReqBuf(r.buf)
		e.finish(qi, r, err)
		// Release the request: the drainer reuses run's backing array,
		// and a stale entry would keep the caller's batch and ticket
		// reachable while the drainer idles.
		run[i] = request{}
	}
}

// applyShard applies one shard's slice of a run inside the engine's
// panic-containment boundary: a panic out of the directory (or an
// injected fault) is recovered here, the shard is quarantined, and the
// failure is returned so the caller fails the run's tickets — the
// drainer goroutine, and the process, survive. A shard already
// quarantined is never touched again (its state, including its lock,
// is suspect); its requests fail fast with ErrShardQuarantined.
//
//cuckoo:recoverboundary
func (e *Engine) applyShard(h int, accs []directory.Access, ops []directory.Op) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = e.quarantine(h, p)
		}
	}()
	if e.quar[h].Load() {
		return e.quarantinedErr(h)
	}
	if e.faults != nil {
		e.faults.Hit(faults.DrainerDelay, h, e.stopc)
		e.faults.Hit(faults.DrainerStall, h, e.stopc)
		e.faults.Hit(faults.ApplyPanic, h, e.stopc)
	}
	e.dir.ApplyShardOps(h, accs, ops)
	return nil
}

// quarantine poisons shard h after a contained panic and returns the
// error its requests fail with. First containment wins the poison
// record; every later call just reads it. Only shard h's owning drainer
// applies or migrates it, so only that goroutine quarantines it.
//
//cuckoo:cold
func (e *Engine) quarantine(h int, p any) error {
	if !e.quar[h].Load() {
		// Publish the poison and the submit path's quarCount gate BEFORE
		// the flag: whoever sees the shard quarantined (Health, a test)
		// must also see submissions to it fail fast.
		e.poison[h].Store(fmt.Errorf("contained panic: %v", p))
		e.quarCount.Add(1)
		e.contained.Add(1)
		e.degraded.Store(true)
		e.quar[h].Store(true)
	}
	return e.quarantinedErr(h)
}

// quarantinedErr builds the ErrShardQuarantined-wrapping error for
// shard h, carrying the original panic when it is already recorded.
//
//cuckoo:cold
func (e *Engine) quarantinedErr(h int) error {
	if v := e.poison[h].Load(); v != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrShardQuarantined, h, v)
	}
	return fmt.Errorf("%w: shard %d", ErrShardQuarantined, h)
}

// checkQuarantined fails a submission touching any quarantined shard;
// called only while quarCount is non-zero.
//
//cuckoo:cold
func (e *Engine) checkQuarantined(accs []directory.Access) error {
	for _, a := range accs {
		if h := e.dir.ShardOf(a.Addr); e.quar[h].Load() {
			return e.quarantinedErr(h)
		}
	}
	return nil
}

// finish retires one applied request popped from queue qi; a non-nil
// err fails its ticket (the access counters still advance — the
// request has left the queue either way).
func (e *Engine) finish(qi int, r request, err error) {
	e.cmpReq.Add(1)
	e.cmpAcc.Add(uint64(len(r.accs)))
	e.clsCmpAcc[r.class].Add(uint64(len(r.accs)))
	e.depth[di(qi, r.class)].Add(-1)
	if err != nil {
		e.erredAcc.Add(uint64(len(r.accs)))
	}
	if r.t != nil {
		if err != nil {
			r.t.fail(err)
		}
		r.t.complete()
	}
}
