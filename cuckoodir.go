// Package cuckoodir is a from-scratch reproduction of the system described
// in "Cuckoo Directory: A Scalable Directory for Many-Core Systems"
// (Ferdman, Lotfi-Kamran, Balet, Falsafi — HPCA 2011).
//
// The package exposes five layers:
//
//   - The declarative construction API: a Spec names any directory
//     organization the paper evaluates, Build constructs it, and
//     BuildNamed resolves string-addressable organizations
//     ("cuckoo-4x512") through a registry — the single construction path
//     the CLI, the experiment harness and the simulators share.
//   - The Cuckoo directory itself (Spec{Org: OrgCuckoo, ...}) and the
//     underlying d-ary cuckoo hash table (NewCuckooTable) — the paper's
//     contribution — plus every competing organization (Sparse, Skewed,
//     Elbow, Duplicate-Tag, Tagless, in-cache, ideal), all behind the
//     same Directory interface.
//   - The concurrent front-end: BuildSharded (or a Spec with Shard.Count
//     set, "sharded-8(cuckoo-4x512)" in the registry grammar) wraps any
//     Spec in a ShardedDirectory, an address-interleaved, mutex-per-shard
//     array of slices that is safe for concurrent use, offers a batched
//     Apply path, and has a pluggable shard-home function. NewEngine puts
//     an asynchronous submission front-end over it — bounded per-drainer
//     request queues drained by dedicated goroutines, with Tickets,
//     callbacks, Flush and backpressure — so clients queue directory work
//     instead of blocking in it. Shards resize online: an explicit
//     ResizeShardSpec (or a "^grow=LOAD" policy in the name grammar)
//     swaps in a larger slice behind a live old/new union view and the
//     engine's drainers migrate the entries incrementally — no entry
//     lost, no stop-the-world (see DESIGN.md §11 and the "resize"
//     experiment). The parallel replay pipeline
//     (ReplayTraceParallel, `cuckoodir trace replay -workers N`, or
//     `-engine` for the asynchronous path) measures both from recorded
//     traces.
//   - The evaluation platform: a functional 16-core tiled-CMP simulator
//     (NewSystem) with the paper's Shared-L2 and Private-L2
//     configurations and Table 2's workload suite (Workloads), plus an
//     event-driven MESI protocol simulator (internal/coherence, reachable
//     through the "latency" experiment).
//   - The experiment harness: RunExperiment regenerates any table or
//     figure of the paper's evaluation (Experiments lists them).
//
// See README.md for a quickstart, the organization table and a sharding
// example; DESIGN.md for the architecture tour and the invariants each
// layer guarantees; and EXPERIMENTS.md for the experiment-to-paper
// mapping.
package cuckoodir

import (
	"io"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/coherence"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/exp"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/replay"
	"cuckoodir/internal/sharer"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/trace"
	"cuckoodir/internal/workload"
)

// Directory is the common interface of every directory organization. See
// the package documentation of internal/directory for the operation
// protocol (Read/Write/Evict driven by private-cache events).
type Directory = directory.Directory

// Op is the outcome of a directory Read or Write.
type Op = directory.Op

// Forced describes a directory-initiated eviction.
type Forced = directory.Forced

// DirectoryStats is the per-directory statistics record (event mix,
// insertion-attempt histogram, forced invalidations, occupancy).
type DirectoryStats = directory.Stats

// Table is an aligned text table produced by experiments.
type Table = stats.Table

// ---- declarative construction API ----

// Spec declaratively describes one directory slice: organization, tracked
// cache count, geometry and per-organization parameters. It is the single
// construction path for every organization; see Build, BuildNamed and
// BuildSharded.
type Spec = directory.Spec

// Org names a directory organization.
type Org = directory.Org

// The directory organizations.
const (
	OrgCuckoo       = directory.OrgCuckoo
	OrgSparse       = directory.OrgSparse
	OrgSkewed       = directory.OrgSkewed
	OrgElbow        = directory.OrgElbow
	OrgDuplicateTag = directory.OrgDuplicateTag
	OrgTagless      = directory.OrgTagless
	OrgInCache      = directory.OrgInCache
	OrgIdeal        = directory.OrgIdeal
)

// Orgs returns every organization, in paper order.
func Orgs() []Org { return directory.Orgs() }

// Geometry is a "(ways) x (sets)" directory shape.
type Geometry = directory.Geometry

// CuckooParams are the Cuckoo-specific knobs of a Spec.
type CuckooParams = directory.CuckooParams

// TaglessParams are the Tagless-specific knobs of a Spec.
type TaglessParams = directory.TaglessParams

// Build constructs the directory slice a spec describes.
func Build(s Spec) (Directory, error) { return directory.Build(s) }

// MustBuild is Build, panicking on invalid specs.
func MustBuild(s Spec) Directory { return directory.MustBuild(s) }

// BuildNamed builds a string-addressable organization ("cuckoo-4x512",
// "sparse-8x2048", or any registered name — see SpecNames) for numCaches
// tracked caches.
func BuildNamed(name string, numCaches int) (Directory, error) {
	return directory.BuildNamed(name, numCaches)
}

// RegisterSpec adds a named spec to the registry, making it addressable
// by BuildNamed and the CLI. Specs registered with NumCaches 0 bind the
// caller's cache count at build time.
func RegisterSpec(name string, s Spec) error { return directory.Register(name, s) }

// SpecNames returns all registered organization names, sorted.
func SpecNames() []string { return directory.Names() }

// LookupSpec resolves a registered or parametric name to its Spec.
func LookupSpec(name string) (Spec, bool) { return directory.LookupSpec(name) }

// ---- concurrent sharded front-end ----

// ShardedDirectory is an address-interleaved, mutex-per-shard array of
// directory slices behind the Directory interface — safe for concurrent
// use, with a batched Apply path that takes each shard lock once per
// batch.
type ShardedDirectory = directory.ShardedDirectory

// ShardCounters is the lock-free snapshot of a ShardedDirectory's hot
// per-shard operation counters (ShardedDirectory.Counters /
// CountersByShard): pollable at any rate without stalling any shard.
type ShardCounters = directory.ShardCounters

// Access is one directory operation in an Apply batch.
type Access = directory.Access

// AccessKind discriminates Read/Write/Evict accesses.
type AccessKind = directory.AccessKind

// Access kinds for ShardedDirectory.Apply batches.
const (
	AccessRead  = directory.AccessRead
	AccessWrite = directory.AccessWrite
	AccessEvict = directory.AccessEvict
)

// ShardSpec is the sharding knob of a Spec: Spec.Shard.Count > 0 makes
// Build return a *ShardedDirectory ("sharded-8(cuckoo-4x512)" in the
// registry grammar).
type ShardSpec = directory.ShardSpec

// ShardHome selects the shard-homing function of a ShardedDirectory.
type ShardHome = directory.Home

// Shard home functions.
const (
	// HomeMix (the default) decorrelates shard choice from the low
	// address bits through a mixing hash.
	HomeMix = directory.HomeMix
	// HomeInterleave homes on the low address bits — classic static
	// interleaving, which aliases with set-index bits (see DESIGN.md).
	HomeInterleave = directory.HomeInterleave
)

// ParseShardHome parses a home-function name ("mix", "interleave").
func ParseShardHome(s string) (ShardHome, error) { return directory.ParseHome(s) }

// ---- online resize ----

// ResizePolicy is the automatic online-resize policy of a
// ShardedDirectory (Spec.Shard.Resize; "^grow=LOAD[xFACTOR]" in the
// registry grammar): a shard whose load factor reaches MaxLoad is grown
// Factor-fold by a live incremental rehash. The engine's drainers
// trigger and execute the migrations between request runs; explicit
// resizes go through ShardedDirectory.ResizeShardSpec (or
// Engine.ResizeShardSpec to run the migration under the engine). See
// DESIGN.md §11.
type ResizePolicy = directory.ResizePolicy

// ResizeStats is the aggregate online-resize snapshot of a
// ShardedDirectory (ShardedDirectory.ResizeStats).
type ResizeStats = directory.ResizeStats

// Online-resize defaults.
const (
	// DefaultMigrationRun is the number of pending entries one background
	// migration step examines (EngineOptions.MigrationRun = 0).
	DefaultMigrationRun = directory.DefaultMigrationRun
	// DefaultGrowthFactor is the capacity multiplier of an automatic
	// grow (ResizePolicy.Factor = 0).
	DefaultGrowthFactor = directory.DefaultGrowthFactor
)

// ErrResizeInProgress reports a resize of a shard that is already
// migrating.
var ErrResizeInProgress = directory.ErrResizeInProgress

// BuildSharded builds a concurrency-safe directory of shardCount
// address-interleaved slices, each one instance of the spec (the spec's
// Shard.Home selects the home function).
func BuildSharded(s Spec, shardCount int) (*ShardedDirectory, error) {
	return directory.BuildSharded(s, shardCount)
}

// ---- asynchronous submission engine ----

// Engine is the asynchronous submission front-end of a
// ShardedDirectory: per-shard drainer goroutines over bounded request
// queues — clients Submit directory work and collect results via
// Tickets (or callbacks) instead of blocking in ApplyShard themselves.
// Per-shard submissions complete in submission order; see
// internal/engine for queue semantics, ordering and backpressure.
type Engine = engine.Engine

// EngineOptions parameterize an Engine (drainer count, queue depth,
// backpressure policy); the zero value is usable.
type EngineOptions = engine.Options

// EngineRequest is one engine submission (Engine.Submit): the batch,
// its QoS class, and whether results come back on a Ticket, through a
// Done callback, or not at all (Detached).
type EngineRequest = engine.Request

// Ticket is a pollable completion handle for an engine submission,
// carrying the per-access Ops once done.
type Ticket = engine.Ticket

// EngineStats is a snapshot of an engine's submission counters.
type EngineStats = engine.Stats

// EnginePolicy selects the backpressure behaviour of a full engine
// queue.
type EnginePolicy = engine.Policy

// Engine backpressure policies.
const (
	// BlockWhenFull (the default) blocks the submitter until queue space
	// frees, honoring context cancellation.
	BlockWhenFull = engine.BlockWhenFull
	// RejectWhenFull fails the submission with ErrEngineQueueFull
	// without enqueueing anything.
	RejectWhenFull = engine.RejectWhenFull
)

// Engine submission errors.
var (
	// ErrEngineClosed reports a submission to a closed engine.
	ErrEngineClosed = engine.ErrClosed
	// ErrEngineQueueFull reports a rejected submission under
	// RejectWhenFull.
	ErrEngineQueueFull = engine.ErrQueueFull
)

// NewEngine builds an asynchronous submission engine over dir and
// starts its drainers; Close it when done (the directory itself stays
// usable).
func NewEngine(dir *ShardedDirectory, o EngineOptions) (*Engine, error) {
	return engine.New(dir, o)
}

// ---- QoS classes & scheduling ----

// QoSClass is a submission's priority class, set on
// EngineRequest.Class; the zero value is ClassForeground, which
// SubmitBatch also uses, and SubmitDetachedClass takes it explicitly.
// Per-class submission, shed and rejection counts and latency
// percentiles are reported through EngineStats.Classes, and per-class
// queue depths through EngineHealth's drainer rows. See DESIGN.md §13.
type QoSClass = qos.Class

// The engine's priority classes.
const (
	// ClassForeground is the latency-critical class and the default for
	// every class-less submission path.
	ClassForeground = qos.Foreground
	// ClassBackground is the bulk class: drained with lower priority,
	// shed first under saturation.
	ClassBackground = qos.Background
	// NumQoSClasses is the number of priority classes.
	NumQoSClasses = qos.NumClasses
)

// QoSPolicy selects how a drainer arbitrates between its per-class
// queues (EngineOptions.Sched.Policy).
type QoSPolicy = qos.Policy

// Drain-scheduling policies.
const (
	// StrictPriority (the default) always drains foreground work first;
	// background can starve under sustained foreground load.
	StrictPriority = qos.StrictPriority
	// WeightedDeficit is deficit-weighted round-robin: background keeps
	// a configurable trickle (default 8:1) even under foreground load.
	WeightedDeficit = qos.WeightedDeficit
)

// QoSSched parameterizes the engine's class-aware drain
// (EngineOptions.Sched); the zero value is strict priority.
type QoSSched = qos.Sched

// ParseQoSPolicy parses a drain-policy name ("strict", "wdrr").
func ParseQoSPolicy(s string) (QoSPolicy, error) { return qos.ParsePolicy(s) }

// EngineQueueFullError is the error type behind ErrEngineQueueFull
// rejections; it carries the QoS class that was shed (errors.As-able,
// errors.Is(err, ErrEngineQueueFull) stays true).
type EngineQueueFullError = engine.QueueFullError

// QoSClassStats is one class's row in EngineStats.Classes: submission,
// completion, rejection and shed counters plus the merged latency
// histogram.
type QoSClassStats = qos.ClassStats

// QoSLatency is a mergeable power-of-two-bucketed latency histogram
// (QoSClassStats.Latency) with P50/P99/P999 percentile readout.
type QoSLatency = qos.Latency

// ---- fault containment & injection ----

// EngineHealth is an Engine's liveness snapshot (Engine.Health):
// per-drainer progress and stall flags from the engine's watchdog,
// quarantined shards and the most recent automatic-grow failure. See
// DESIGN.md §12 for the fault model.
type EngineHealth = engine.Health

// DrainerHealth is one drainer's row in an EngineHealth snapshot.
type DrainerHealth = engine.DrainerHealth

// DefaultStallThreshold is the watchdog's default no-progress window
// before a drainer with queued work is flagged stalled
// (EngineOptions.StallThreshold = 0).
const DefaultStallThreshold = engine.DefaultStallThreshold

// RetryOptions parameterize Engine.SubmitRetry, which resubmits an
// EngineRequest with capped exponential backoff over
// ErrEngineQueueFull; the zero value is usable.
type RetryOptions = engine.RetryOptions

// Engine fault-containment errors.
var (
	// ErrEngineShardQuarantined reports a submission touching a shard
	// the engine quarantined after containing a panic there; the shard
	// stays out of service until the engine is rebuilt, other shards
	// keep serving.
	ErrEngineShardQuarantined = engine.ErrShardQuarantined
	// ErrEngineDeadlineExceeded reports a submission shed because its
	// context deadline had already expired before enqueue.
	ErrEngineDeadlineExceeded = engine.ErrDeadlineExceeded
	// ErrFaultInjected is the default error carried by injected faults.
	ErrFaultInjected = faults.ErrInjected
)

// FaultInjector is the deterministic fault-injection layer an Engine
// evaluates at its containment boundaries (EngineOptions.Faults):
// zero-cost when absent, one atomic load per boundary when armed with
// nothing. See internal/faults for the point and trigger semantics.
type FaultInjector = faults.Injector

// FaultPoint identifies one injection site in the engine.
type FaultPoint = faults.Point

// FaultTrigger decides deterministically which hits of a FaultPoint
// fire (keyed by shard, counter-windowed, optionally seeded
// probabilistic).
type FaultTrigger = faults.Trigger

// ArmedFault is the handle of one armed trigger; Release opens its
// stall gate and retires it.
type ArmedFault = faults.Armed

// The engine's fault points.
const (
	// FaultDrainerDelay sleeps a drainer at the apply boundary.
	FaultDrainerDelay = faults.DrainerDelay
	// FaultDrainerStall parks a drainer until Release (or engine Close).
	FaultDrainerStall = faults.DrainerStall
	// FaultApplyPanic panics at the apply boundary; the engine contains
	// it and quarantines the shard.
	FaultApplyPanic = faults.ApplyPanic
	// FaultGrowBuildFail fails an automatic-grow attempt.
	FaultGrowBuildFail = faults.GrowBuildFail
	// FaultQueueSaturation makes a submission observe a full queue.
	FaultQueueSaturation = faults.QueueSaturation
	// FaultMigrationPanic panics inside a background migration step.
	FaultMigrationPanic = faults.MigrationPanic
)

// FaultAnyKey matches every hit key in a FaultTrigger.
const FaultAnyKey = faults.AnyKey

// NewFaultInjector returns an injector armed with nothing; arm points
// on it and pass it through EngineOptions.Faults.
func NewFaultInjector() *FaultInjector { return faults.New() }

// ---- cuckoo hash table ----

// TableConfig configures a d-ary cuckoo hash table.
type TableConfig = core.Config

// CuckooEntry is a key/value pair stored in a cuckoo table.
type CuckooEntry[V any] = core.Entry[V]

// InsertResult reports the outcome of a cuckoo table insertion.
type InsertResult[V any] = core.Result[V]

// NewCuckooTable builds a standalone d-ary cuckoo hash table (the
// structure of paper §4.1, usable independently of coherence). It
// returns cfg.Validate's error for a bad geometry, e.g. Ways outside
// 2..8.
func NewCuckooTable[V any](cfg TableConfig) (*core.Table[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return core.NewTable[V](cfg), nil
}

// ---- sharer-set formats ----

// SharerFormat is a pluggable sharer-set representation (full vector,
// coarse, limited pointers, hierarchical); set it on Spec.Format.
type SharerFormat = sharer.Format

// Sharer-set formats for Spec.Format.
func FullVectorFormat() SharerFormat          { return sharer.FullFormat() }
func CoarseVectorFormat() SharerFormat        { return sharer.CoarseFormat() }
func LimitedPointerFormat(p int) SharerFormat { return sharer.LimitedFormat(p) }
func HierarchicalFormat() SharerFormat        { return sharer.HierFormat() }

// FormattedCuckooDirectory is a Cuckoo directory with format-pluggable
// entries; it additionally reports the spurious invalidations and
// dead-entry residency its compressed format costs. Build returns it when
// Spec.Format is set.
type FormattedCuckooDirectory = directory.FormattedCuckoo

// ---- evaluation platform ----

// SystemKind selects the tracked cache hierarchy.
type SystemKind = cmpsim.Kind

// System configurations of §5 (Table 1).
const (
	// SharedL2 tracks split I/D 64KB L1s under a shared NUCA L2.
	SharedL2 = cmpsim.SharedL2
	// PrivateL2 tracks 1MB private L2s.
	PrivateL2 = cmpsim.PrivateL2
)

// SystemConfig is the CMP configuration (Table 1).
type SystemConfig = cmpsim.Config

// System is the functional tiled-CMP simulator.
type System = cmpsim.System

// CuckooSize is a "(ways) x (sets)" Cuckoo geometry; its Spec method
// returns the slice spec NewSystem and NewProtocolSystem take.
type CuckooSize = cmpsim.CuckooSize

// DefaultSystemConfig returns the paper's 16-core configuration for the
// given kind. For an unknown kind it returns a config that NewSystem
// refuses with an error.
func DefaultSystemConfig(kind SystemKind) SystemConfig {
	return cmpsim.DefaultConfig(kind)
}

// NewSystem builds a functional simulation of the given workload on cfg,
// with one directory slice per tile built from the slice spec (for
// example CuckooSize.Spec, SystemConfig.SparseSpec or
// SystemConfig.IdealSpec). It returns an error for an invalid config,
// workload or spec.
func NewSystem(cfg SystemConfig, prof Workload, seed uint64, slice Spec) (*System, error) {
	return cmpsim.New(cfg, prof, seed, slice)
}

// ChosenCuckooSize returns the geometry §5.2 selects: 4x512 for Shared-L2,
// 3x8192 for Private-L2.
func ChosenCuckooSize(kind SystemKind) CuckooSize {
	return cmpsim.ChosenCuckooSize(kind)
}

// ---- event-driven protocol simulator ----

// ProtocolConfig parameterizes the event-driven MESI protocol system
// (cores, cache geometry, mesh, latencies).
type ProtocolConfig = coherence.Config

// ProtocolSystem is the event-driven MESI directory protocol simulation
// used for the timing-facing experiments (§4.2).
type ProtocolSystem = coherence.System

// DefaultProtocolConfig returns a 16-core Private-L2-style system on a
// 4x4 mesh with period-typical latencies.
func DefaultProtocolConfig() ProtocolConfig { return coherence.DefaultConfig() }

// NewProtocolSystem builds an event-driven protocol simulation of the
// given workload, with one home slice per core built from the slice
// spec. It returns an error for an invalid config, workload or spec.
func NewProtocolSystem(cfg ProtocolConfig, prof Workload, seed uint64, slice Spec) (*ProtocolSystem, error) {
	return coherence.New(cfg, prof, seed, slice)
}

// Workload is a synthetic stand-in for one Table 2 application.
type Workload = workload.Profile

// Workloads returns the nine-workload suite in Table 2 order.
func Workloads() []Workload { return workload.Profiles() }

// WorkloadByName returns the named workload ("db2" ... "ocean").
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// ---- traces ----

// TraceRecord is one traced access.
type TraceRecord = trace.Record

// TraceWriter streams trace records to an io.Writer; TraceReader reads
// them back.
type TraceWriter = trace.Writer
type TraceReader = trace.Reader

// NewTraceWriter creates a binary trace writer for a system with the
// given core count.
func NewTraceWriter(w io.Writer, cores int) (*TraceWriter, error) {
	return trace.NewWriter(w, cores)
}

// NewTraceReader validates a trace header and returns a record reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// CaptureTrace records n accesses of the workload (round-robin across
// cores) into w.
func CaptureTrace(w io.Writer, prof Workload, cores int, seed uint64, n int) (uint64, error) {
	return trace.Capture(w, prof, cores, seed, n)
}

// ReplayTrace drives a functional system from a recorded trace; the run is
// bit-identical to the generator-driven run the trace was captured from.
func ReplayTrace(r *TraceReader, sys *System) (uint64, error) {
	return trace.Replay(r, sys)
}

// ---- parallel replay pipeline ----

// ReplayOptions parameterize the parallel replay pipeline (worker count,
// batch size, submission path); the zero value is usable.
type ReplayOptions = replay.Options

// ReplayResult reports a parallel replay run: throughput, per-shard
// occupancy, dropped-record count and the merged directory statistics.
type ReplayResult = replay.Result

// ReplayVia selects the replay pipeline's submission path.
type ReplayVia = replay.Via

// Replay submission paths.
const (
	// ReplayViaApplyShard is the direct worker-pool pipeline — the named
	// baseline engine runs are compared against.
	ReplayViaApplyShard = replay.ViaApplyShard
	// ReplayViaEngine submits through an asynchronous Engine.
	ReplayViaEngine = replay.ViaEngine
)

// ReplayTraceParallel replays a recorded trace through a sharded
// directory with batched worker goroutines (ShardedDirectory.Apply) and
// reports throughput — the scaled-up counterpart of ReplayTrace. See
// internal/replay for ordering semantics.
func ReplayTraceParallel(dir *ShardedDirectory, r *TraceReader, o ReplayOptions) (ReplayResult, error) {
	return replay.ReplayTrace(dir, r, o)
}

// ReplayWorkloadParallel synthesizes n accesses of a workload (what
// CaptureTrace would record) and replays them through the parallel
// pipeline — the trace-free path for sweeps and benchmarks. It returns
// an error for an invalid workload or a core count the directory does
// not track.
func ReplayWorkloadParallel(dir *ShardedDirectory, prof Workload, cores int, seed uint64, n int, o ReplayOptions) (ReplayResult, error) {
	return replay.ReplayWorkload(dir, prof, cores, seed, n, o)
}

// ---- experiments ----

// Experiment is one reproducible paper artifact.
type Experiment = exp.Experiment

// ExperimentOptions parameterize an experiment run.
type ExperimentOptions = exp.Options

// Experiment scales.
const (
	// QuickScale runs shortened measurements (default).
	QuickScale = exp.Quick
	// FullScale runs the paper-scale measurements.
	FullScale = exp.Full
)

// Experiments returns all experiments in paper order.
func Experiments() []Experiment { return exp.All() }

// RunExperiment regenerates the identified table or figure. It returns
// an error for an unknown id, or for an ExperimentOptions.Orgs name the
// experiment's simulators refuse, before anything simulates.
func RunExperiment(id string, o ExperimentOptions) ([]*Table, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o)
}
