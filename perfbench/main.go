// Command perfbench is the repository benchmark. It runs one named
// workload against the cuckoo directory stack, checks that the outputs
// are correct, and prints one JSON result line:
//
//	perfbench --workload replay-oltp-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, the layer ladder and the
// tracing overhead, and the spans are written under --spans. README.md
// in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sizes scale a run. fullSize is the benchmark; tinySize keeps the
// package's own tests fast.
type sizes struct {
	oltpRecords int // OLTP chunk, replayed cyclically (records)
	oltpSets    int // per-way sets of each OLTP directory shard
	dssRaw      int // raw qry2 accesses per churn cycle
	window      int // accesses per timing window on the replay workloads
	engWindow   int // foreground requests per timing window on the engine workload
	setupReps   int // set-ups per run; setup_s is their median
	rungReps    int // repetitions of each ladder rung; the rung is their median
}

var (
	fullSize = sizes{oltpRecords: 1 << 20, oltpSets: 1 << 14, dssRaw: 700_000,
		window: 1 << 17, engWindow: 1024, setupReps: 3, rungReps: 3}
	tinySize = sizes{oltpRecords: 1 << 13, oltpSets: 1 << 10, dssRaw: 1 << 13,
		window: 1 << 10, engWindow: 16, setupReps: 2, rungReps: 1}
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spans    string // directory the traced run writes its spans to
	sz       sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"replay-oltp-warm": runOLTP,
	"replay-dss-churn": runDSS,
	"engine-rr-mixed":  runEngineRR,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay-oltp-warm, replay-dss-churn or engine-rr-mixed")
	seed := fs.Uint64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	spans := fs.String("spans", "spans", "directory the traced run writes its span file to")
	size := fs.String("size", "full", "input scale: full, or tiny for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, spans: *spans}
	switch *size {
	case "full":
		cfg.sz = fullSize
	case "tiny":
		cfg.sz = tinySize
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -size %q\n", *size)
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of replay-oltp-warm, replay-dss-churn, engine-rr-mixed), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	// One scheduler thread: on the 2-vCPU virtual machine the benchmark
	// was tuned on, the process gets one vCPU's worth of CPU either way,
	// and a second thread only adds idle-vCPU wake-ups whose latency is
	// the host's, not the program's. The goroutines (replay producer and
	// worker, engine client and drainer) interleave on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := newBench(cfg, stdout, stderr)
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		if err := b.tr.write(cfg.spans, cfg.workload); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	res := result{Correct: b.checks.ok(), Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	if res.Attempted == 0 {
		b.checks.add("attempted at least one operation", errors.New("no operation attempted"))
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
