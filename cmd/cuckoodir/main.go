// Command cuckoodir regenerates the tables and figures of the paper
// "Cuckoo Directory: A Scalable Directory for Many-Core Systems"
// (HPCA 2011).
//
// Usage:
//
//	cuckoodir list                  # show available experiments
//	cuckoodir orgs                  # show registered directory organizations
//	cuckoodir run [flags] <id>...   # run selected experiments
//	cuckoodir all [flags]           # run the whole suite
//	cuckoodir bench [-json]         # run the benchmark suite / record BENCH_cuckoo.json
//
// Flags:
//
//	-scale quick|full   measurement scale (default quick)
//	-seed N             simulation seed (default 0)
//	-dir a,b,c          sweep exactly the named organizations (experiments
//	                    that sweep orgs: fig9, fig12, formats, latency)
//
// EXPERIMENTS.md maps each experiment id to the paper artifact it
// reproduces; README.md's "Trace replay & sweeps" section shows the
// parallel `trace replay` pipeline (-dir/-shards/-workers/-batch/-home).
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cuckoodir/internal/bench"
	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/exp"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/replay"
	"cuckoodir/internal/trace"
	"cuckoodir/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cuckoodir:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command given")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	scaleFlag := fs.String("scale", "quick", "measurement scale: quick or full")
	seedFlag := fs.Uint64("seed", 0, "simulation seed")
	dirFlag := fs.String("dir", "", "comma-separated organization names to sweep instead of the paper lineup (see `orgs`)")

	switch cmd {
	case "list":
		for _, e := range exp.All() {
			fmt.Printf("%-8s  %s\n", e.ID, e.Title)
		}
		fmt.Println("\nEXPERIMENTS.md maps each id to the paper table/figure it reproduces,")
		fmt.Println("the expected deltas, and quick-vs-full scale guidance.")
		return nil
	case "orgs":
		return orgsCmd()
	case "bench":
		return benchCmd(rest)
	case "trace":
		return traceCmd(rest)
	case "run", "all":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := parseOptions(*scaleFlag, *seedFlag)
		if err != nil {
			return err
		}
		if opts.Orgs, err = parseOrgList(*dirFlag); err != nil {
			return err
		}
		ids := fs.Args()
		if cmd == "all" {
			if len(ids) != 0 {
				return fmt.Errorf("`all` takes no experiment ids")
			}
			ids = exp.IDs()
		}
		if len(ids) == 0 {
			return fmt.Errorf("`run` needs at least one experiment id (see `list`)")
		}
		return runExperiments(ids, opts)
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func parseOptions(scale string, seed uint64) (exp.Options, error) {
	o := exp.Options{Seed: seed}
	switch scale {
	case "quick":
		o.Scale = exp.Quick
	case "full":
		o.Scale = exp.Full
	default:
		return o, fmt.Errorf("unknown scale %q (want quick or full)", scale)
	}
	return o, nil
}

// parseOrgList validates a comma-separated `-dir` organization list
// against the registry, so bad names fail with an error here instead of
// panicking inside an experiment.
func parseOrgList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var orgs []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, err := directory.LookupSpecErr(name)
		if err != nil {
			return nil, fmt.Errorf("-dir: %w (see `cuckoodir orgs`)", err)
		}
		if err := spec.WithCaches(16).Validate(); err != nil {
			return nil, fmt.Errorf("-dir %q: %w", name, err)
		}
		orgs = append(orgs, name)
	}
	if len(orgs) == 0 {
		return nil, fmt.Errorf("-dir: empty organization list")
	}
	return orgs, nil
}

func runExperiments(ids []string, o exp.Options) error {
	for _, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			return err
		}
		fmt.Printf("### %s — %s [scale=%s]\n", e.ID, e.Title, o.Scale)
		fmt.Printf("paper: %s\n\n", e.Expect)
		start := time.Now()
		tables, err := e.Run(o)
		if err != nil {
			return err
		}
		for _, tbl := range tables {
			if _, err := tbl.WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}

// orgsCmd lists the registered directory organizations: every name is
// accepted by `trace replay -dir` and by cuckoodir.BuildNamed. Parametric
// names ("cuckoo-WAYSxSETS", "sparse-WAYSxSETS", ...) work too.
func orgsCmd() error {
	fmt.Printf("%-20s %-14s %s\n", "NAME", "ORGANIZATION", "SHAPE")
	for _, name := range directory.Names() {
		spec, ok := directory.LookupSpec(name)
		if !ok {
			return fmt.Errorf("registered name %q did not resolve", name)
		}
		shape := spec.Geometry.String()
		switch spec.Org {
		case directory.OrgTagless:
			shape = fmt.Sprintf("%d sets x %d bits x %d hashes",
				spec.Geometry.Sets, spec.Tagless.BucketBits, spec.Tagless.Hashes)
		case directory.OrgInCache:
			shape = fmt.Sprintf("%d frames", spec.Capacity)
		case directory.OrgIdeal:
			shape = "unbounded"
			if spec.Capacity != 0 {
				shape = fmt.Sprintf("unbounded (nominal %d)", spec.Capacity)
			}
		}
		fmt.Printf("%-20s %-14s %s\n", name, spec.Org, shape)
	}
	fmt.Println("\nparametric names are also accepted: cuckoo-4x1024, sparse-8x2048, skewed-4x1024,")
	fmt.Println("elbow-4x1024, dup-tag-ASSOCxSETS, tagless-SETSxBITSxHASHES, in-cache-N, ideal-N,")
	fmt.Println("and sharded forms sharded-N[@mix|@interleave][^grow=LOAD[xFACTOR]](inner) — the")
	fmt.Println("optional ^grow policy resizes overloaded shards online under the engine")
	return nil
}

// benchCmd implements `cuckoodir bench`: it runs the fixed benchmark
// suite of internal/bench and, with -json, appends the labeled run to
// the BENCH_cuckoo.json trajectory (sorted keys, one entry per label —
// re-running a label replaces its entry, so the file diffs cleanly
// across PRs).
func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "append the run to the JSON trajectory file")
	out := fs.String("out", bench.DefaultPath, "trajectory file path (with -json)")
	label := fs.String("label", "dev", "run label in the trajectory (one entry per label)")
	runFilter := fs.String("run", "", "only run cases whose name matches this regexp (partial runs record only the selected rows)")
	against := fs.String("against", "", "compare the run against this trajectory label and fail on regressions (see -maxregress)")
	maxRegress := fs.Float64("maxregress", 2, "with -against: fail when any shared case is more than this factor slower than the baseline")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected cases to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the selected cases to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxRegress <= 1 {
		return fmt.Errorf("bench: -maxregress must be > 1 (got %g)", *maxRegress)
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("bench takes no positional arguments")
	}
	var match func(string) bool
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			return fmt.Errorf("bench: -run: %w", err)
		}
		match = re.MatchString
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	run := bench.RunSuite(*label, match, func(format string, a ...any) {
		fmt.Printf(format, a...)
	})
	if err := stopProfiles(); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if len(run.Results) == 0 {
		return fmt.Errorf("bench: -run %q selected no cases", *runFilter)
	}
	// The headline acceptance ratio: devirtualized vs interface-dispatch
	// path at the 70%-occupancy comparison point.
	for _, op := range []string{"find", "insert"} {
		fast, okF := run.Results["table/"+op+"/skew/occ=70"]
		iface, okI := run.Results["table/"+op+"/iface/occ=70"]
		if okF && okI && fast.NsPerOp > 0 {
			fmt.Printf("%s speedup vs interface dispatch (occ=70): %.2fx\n", op, iface.NsPerOp/fast.NsPerOp)
		}
	}
	// The engine A/B headline: asynchronous submission vs the direct
	// ApplyShard pipeline on the same single-producer stream.
	direct, okD := run.Results["replay/shards=8/workers=1"]
	eng, okE := run.Results["replay/engine/shards=8/producers=1"]
	if okD && okE && direct.AccPerSec > 0 {
		fmt.Printf("engine replay throughput vs direct ApplyShard (1 producer): %.0f%%\n",
			eng.AccPerSec/direct.AccPerSec*100)
	}
	if *jsonOut {
		tr, err := bench.Load(*out)
		if err != nil {
			return err
		}
		tr.Add(run)
		if err := tr.Save(*out); err != nil {
			return err
		}
		fmt.Printf("recorded run %q (%d cases) in %s\n", *label, len(run.Results), *out)
	}
	if *against != "" {
		tr, err := bench.Load(*out)
		if err != nil {
			return err
		}
		base, ok := tr.Lookup(*against)
		if !ok {
			return fmt.Errorf("bench: -against: no run labeled %q in %s", *against, *out)
		}
		if bad := bench.Regressions(base, run, *maxRegress); len(bad) != 0 {
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "regression:", line)
			}
			return fmt.Errorf("bench: %d case(s) regressed more than %gx vs %q", len(bad), *maxRegress, *against)
		}
		fmt.Printf("no case regressed more than %gx vs %q\n", *maxRegress, *against)
	}
	return nil
}

// startProfiles starts a pprof CPU profile into cpuPath when it is set,
// and returns the function that stops it and then, when memPath is
// set, writes the allocation profile there. `bench` and `trace replay`
// share it for their -cpuprofile and -memprofile flags.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	stopCPU := func() error { return nil }
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		stopCPU = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	return func() error {
		if err := stopCPU(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// writeAllocProfile writes the allocation profile (every sampled
// allocation since the process started, and what of it is still live)
// to path, as `go test -memprofile` does.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the live-heap figures
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCmd implements `cuckoodir trace record|replay`.
func traceCmd(args []string) (retErr error) {
	if len(args) == 0 {
		return fmt.Errorf("trace needs a subcommand: record or replay")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("trace "+sub, flag.ContinueOnError)
	file := fs.String("file", "", "trace file path")
	wl := fs.String("workload", "oracle", "workload to capture")
	n := fs.Int("n", 1_000_000, "accesses to capture")
	seed := fs.Uint64("seed", 0, "capture seed")
	kind := fs.String("config", "shared", "replay configuration: shared or private")
	dir := fs.String("dir", "", "directory organization to replay against (see `orgs`; default: the chosen cuckoo size)")
	workers := fs.Int("workers", 0, "parallel replay worker goroutines (0 = GOMAXPROCS when the parallel path is selected by -shards/-batch/-home/-engine/a sharded -dir, else sequential replay)")
	shards := fs.Int("shards", 0, "shard count for parallel replay (0 = from the -dir name, or the effective worker count rounded up to a power of two, minimum 2)")
	batch := fs.Int("batch", 0, fmt.Sprintf("records per batch in parallel replay (0 = %d; setting it selects the parallel path)", replay.DefaultBatchSize))
	homeFlag := fs.String("home", "", "shard home function for parallel replay: mix or interleave (default: from the -dir name, else mix)")
	engineFlag := fs.Bool("engine", false, "submit through the asynchronous DirectoryEngine instead of the direct ApplyShard pipeline (selects the parallel path)")
	queue := fs.Int("queue", 0, fmt.Sprintf("engine queue depth per drainer, in requests (with -engine; 0 = %d)", engine.DefaultQueueDepth))
	drainers := fs.Int("drainers", 0, "engine drainer goroutines (with -engine; 0 = one per shard)")
	background := fs.Float64("background", 0, "fraction (0..1) of batches submitted as the Background QoS class (with -engine)")
	sched := fs.String("sched", "", "engine drain policy between QoS classes: strict or wdrr (with -engine; default strict)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the replay to this file")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if (*queue != 0 || *drainers != 0 || *background != 0 || *sched != "") && !*engineFlag {
		return fmt.Errorf("trace: -queue/-drainers/-background/-sched need -engine")
	}
	if (*cpuProfile != "" || *memProfile != "") && sub != "replay" {
		return fmt.Errorf("trace: -cpuprofile/-memprofile profile a replay")
	}
	if *file == "" {
		return fmt.Errorf("trace: -file is required")
	}
	switch sub {
	case "record":
		prof, err := workload.ByName(*wl)
		if err != nil {
			return err
		}
		f, err := os.Create(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		count, err := trace.Capture(f, prof, 16, *seed, *n)
		if err != nil {
			return err
		}
		fmt.Printf("recorded %d accesses of %s to %s\n", count, *wl, *file)
		return f.Close()
	case "replay":
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer func() {
			if perr := stopProfiles(); perr != nil && retErr == nil {
				retErr = fmt.Errorf("trace: %w", perr)
			}
		}()
		cfgKind := cmpsim.SharedL2
		if *kind == "private" {
			cfgKind = cmpsim.PrivateL2
		} else if *kind != "shared" {
			return fmt.Errorf("trace: unknown -config %q", *kind)
		}
		cfg := cmpsim.DefaultConfig(cfgKind)
		dirName := *dir
		if dirName == "" {
			dirName = "cuckoo-" + cmpsim.ChosenCuckooSize(cfgKind).String()
		}
		spec, err := directory.LookupSpecErr(dirName)
		if err != nil {
			return fmt.Errorf("trace: -dir: %w (see `cuckoodir orgs`)", err)
		}
		if *workers > 0 || *shards > 0 || *batch > 0 || *homeFlag != "" || *engineFlag || spec.Shard.Count > 0 {
			return replayParallel(rd, spec, *workers, *shards, *batch, *homeFlag,
				*engineFlag, *queue, *drainers, *background, *sched)
		}
		prof, err := workload.ByName(*wl)
		if err != nil {
			return err
		}
		sys, err := cmpsim.New(cfg, prof, 0, spec)
		if err != nil {
			return fmt.Errorf("trace: -dir %q: %w", dirName, err)
		}
		count, err := trace.Replay(rd, sys)
		if err != nil {
			return err
		}
		ds := sys.DirStats()
		fmt.Printf("replayed %d accesses against %s: %.2f avg insertion attempts, %d forced invalidations, occupancy %.1f%%\n",
			count, dirName, ds.Attempts.Mean(), ds.ForcedEvictions, sys.MeanOccupancy()*100)
		return nil
	default:
		return fmt.Errorf("trace: unknown subcommand %q", sub)
	}
}

// replayParallel is the batched multi-worker replay path of `trace
// replay`: the trace drives a concurrency-safe ShardedDirectory through
// internal/replay instead of the sequential functional simulator. It is
// selected by any of -workers, -shards, -home, -engine, or a sharded
// -dir name. With -engine the records are submitted asynchronously
// through a DirectoryEngine (-queue/-drainers size it); -background
// submits that fraction of batches as the Background QoS class and
// -sched picks the drain policy arbitrating between the classes, with
// the per-class latency/reject report appended to the run line.
func replayParallel(rd *trace.Reader, spec directory.Spec, workers, shards, batch int, homeName string,
	useEngine bool, queueDepth, drainers int, background float64, sched string) error {
	// Resolve the effective worker count first: the pipeline defaults
	// -workers 0 to GOMAXPROCS, and the shard default must match what
	// will actually run (a `-home` comparison on a 1-shard directory
	// would be a no-op).
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.Shard.Count == 0 {
		if shards == 0 {
			// At least 2 shards by default: a 1-shard directory makes the
			// home function a no-op (pass -shards 1 to force it).
			if shards = ceilPow2(workers); shards < 2 {
				shards = 2
			}
		}
		spec.Shard.Count = shards
	} else if shards > 0 {
		spec.Shard.Count = shards
	}
	if homeName != "" {
		home, err := directory.ParseHome(homeName)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		spec.Shard.Home = home
	}
	// The directory tracks one cache per traced core.
	d, err := directory.Build(spec.WithCaches(rd.Cores()))
	if err != nil {
		return fmt.Errorf("trace: -dir %s: %w", spec, err)
	}
	sd := d.(*directory.ShardedDirectory)
	opts := replay.Options{Workers: workers, BatchSize: batch}
	if useEngine {
		opts.Via = replay.ViaEngine
		opts.Engine = engine.Options{QueueDepth: queueDepth, Drainers: drainers}
		opts.Background = background
		if sched != "" {
			policy, err := qos.ParsePolicy(sched)
			if err != nil {
				return fmt.Errorf("trace: -sched: %w", err)
			}
			opts.Engine.Sched = qos.Sched{Policy: policy}
		}
	}
	res, err := replay.ReplayTrace(sd, rd, opts)
	if err != nil {
		return err
	}
	fmt.Printf("parallel replay against %s: %s\n", spec, res)
	return nil
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  cuckoodir list                  show available experiments (see EXPERIMENTS.md)
  cuckoodir orgs                  show registered directory organizations
  cuckoodir run [flags] <id>...   run selected experiments
  cuckoodir all [flags]           run the whole suite
  cuckoodir bench [-json] [-out FILE] [-label L] [-run REGEXP]
                  [-against L [-maxregress X]]
                  [-cpuprofile FILE] [-memprofile FILE]
                                  run the fixed performance-benchmark suite
                                  (table find/insert/delete sweeps, sharded
                                  replay, apply batches, batch indexing);
                                  -json appends the labeled run to the
                                  BENCH_cuckoo.json trajectory; -against
                                  compares the run to an existing trajectory
                                  label and exits nonzero when any shared case
                                  is more than -maxregress times slower, in
                                  calibration-normalized ns/op where both
                                  rows have it; -cpuprofile and -memprofile
                                  write pprof CPU and allocation profiles of
                                  the run
  cuckoodir trace record -file F [-workload W] [-n N] [-seed S]
  cuckoodir trace replay -file F [-config shared|private] [-workload W] [-dir ORG]
  cuckoodir trace replay -file F -dir ORG [-workers N] [-shards N] [-batch N] [-home mix|interleave]
                         [-engine [-queue N] [-drainers N] [-background F] [-sched strict|wdrr]]
                         [-cpuprofile FILE] [-memprofile FILE]
                                  parallel batched replay through a sharded
                                  directory (selected by -workers/-shards/-batch/-home/-engine
                                  or a sharded -dir name like "sharded-8(cuckoo-4x1024)");
                                  -engine submits through the asynchronous
                                  DirectoryEngine instead of the direct
                                  ApplyShard worker pool; -background F submits
                                  that fraction of batches as the Background QoS
                                  class and -sched picks the class drain policy,
                                  with per-class p50/p99/p999 and rejects
                                  appended to the result line; a -dir with a
                                  "^grow=LOAD[xFACTOR]" policy (e.g.
                                  "sharded-8^grow=0.85(cuckoo-4x1024)") resizes
                                  overloaded shards online during the replay and
                                  reports the migrations in the result line;
                                  -cpuprofile and -memprofile write pprof CPU
                                  and allocation profiles of either replay

flags (run/all):
  -scale quick|full   measurement scale (default quick)
  -seed N             simulation seed (default 0)
  -dir a,b,c          sweep exactly the named organizations (experiments
                      that sweep orgs: fig9, fig12, formats, latency); parametric and
                      sharded registry names are accepted
`)
}
