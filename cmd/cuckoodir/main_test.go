package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuckoodir/internal/bench"
	"cuckoodir/internal/exp"
)

func TestParseOptions(t *testing.T) {
	o, err := parseOptions("quick", 5)
	if err != nil || o.Scale != exp.Quick || o.Seed != 5 {
		t.Fatalf("quick: %+v, %v", o, err)
	}
	o, err = parseOptions("full", 0)
	if err != nil || o.Scale != exp.Full {
		t.Fatalf("full: %+v, %v", o, err)
	}
	if _, err := parseOptions("bogus", 0); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestRunCommandValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no command should error")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command should error")
	}
	if err := run([]string{"run"}); err == nil {
		t.Error("run without ids should error")
	}
	if err := run([]string{"run", "not-an-experiment"}); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"all", "fig7"}); err == nil {
		t.Error("all with ids should error")
	}
	if err := run([]string{"run", "-scale", "nope", "fig7"}); err == nil {
		t.Error("bad scale should error")
	}
	if err := run([]string{"run", "-dir", "dup-tag-16x1024", "latency"}); err == nil ||
		!strings.Contains(err.Error(), "duplicate-tag slices are unsupported") {
		t.Errorf("-dir a slice the protocol simulator refuses: err = %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
	if err := run([]string{"list"}); err != nil {
		t.Errorf("list: %v", err)
	}
}

func TestRunFastExperiment(t *testing.T) {
	if err := run([]string{"run", "table1", "table2"}); err != nil {
		t.Fatal(err)
	}
}

func TestParseOrgList(t *testing.T) {
	orgs, err := parseOrgList("cuckoo-4x1024, skew-4x1024")
	if err != nil {
		t.Fatal(err)
	}
	if len(orgs) != 2 || orgs[0] != "cuckoo-4x1024" || orgs[1] != "skew-4x1024" {
		t.Fatalf("orgs = %v", orgs)
	}
	orgs, err = parseOrgList("sharded-4(sparse-8x2048)")
	if err != nil || len(orgs) != 1 {
		t.Fatalf("sharded name: %v, %v", orgs, err)
	}
	if _, err := parseOrgList("nonsense-1x2"); err == nil {
		t.Error("unknown org accepted")
	}
	if _, err := parseOrgList(","); err == nil {
		t.Error("empty list accepted")
	}
	if orgs, err := parseOrgList(""); err != nil || orgs != nil {
		t.Errorf("no flag: %v, %v", orgs, err)
	}
	if err := run([]string{"run", "-dir", "nonsense-1x2", "fig12"}); err == nil {
		t.Error("run with unknown -dir org should error before running")
	}
}

func TestCeilPow2(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}} {
		if got := ceilPow2(c.in); got != c.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestTraceRoundTripCLI drives record + both replay paths through the
// command surface.
func TestTraceRoundTripCLI(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cli.trc")
	if err := run([]string{"trace", "record", "-file", file, "-workload", "apache", "-n", "20000"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "replay", "-file", file, "-dir", "sharded-4(cuckoo-4x512)", "-workers", "2", "-batch", "128"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "replay", "-file", file, "-dir", "cuckoo-4x512", "-workers", "2", "-home", "interleave"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "replay", "-file", file, "-dir", "cuckoo-4x512"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "replay", "-file", file, "-dir", "cuckoo-4x512", "-home", "north"}); err == nil {
		t.Error("bad -home accepted")
	}
	// The asynchronous engine path, with and without knobs.
	if err := run([]string{"trace", "replay", "-file", file, "-dir", "sharded-4(cuckoo-4x512)", "-engine"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "replay", "-file", file, "-dir", "cuckoo-4x512", "-engine",
		"-shards", "4", "-queue", "64", "-drainers", "2", "-batch", "128"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "replay", "-file", file, "-dir", "cuckoo-4x512", "-queue", "64"}); err == nil {
		t.Error("-queue without -engine accepted")
	}
}

// TestBenchCommand exercises `bench` end to end on a single fast case:
// flag validation, the -run filter, and the -json trajectory append
// (twice, to cover the in-place label replacement).
func TestBenchCommand(t *testing.T) {
	if err := run([]string{"bench", "-run", "["}); err == nil {
		t.Error("bad -run regexp accepted")
	}
	if err := run([]string{"bench", "-run", "no-such-case"}); err == nil {
		t.Error("empty case selection accepted")
	}
	if err := run([]string{"bench", "extra-arg"}); err == nil {
		t.Error("positional argument accepted")
	}
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	args := []string{"bench", "-json", "-out", out, "-label", "cli-test",
		"-run", `^table/find/skew/occ=50$`}
	for i := 0; i < 2; i++ {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		tr, err := bench.Load(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Runs) != 1 || tr.Runs[0].Label != "cli-test" || len(tr.Runs[0].Results) != 1 {
			t.Fatalf("pass %d: trajectory = %+v", i, tr)
		}
	}
}

// TestBenchProfiles: -cpuprofile and -memprofile each write a non-empty
// pprof profile of the selected cases, and an unwritable path is an
// error.
func TestBenchProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := run([]string{"bench", "-run", `^table/find/skew/occ=50$`, "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", filepath.Base(path))
		}
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if err := run([]string{"bench", "-run", `^table/find/skew/occ=50$`, flag, filepath.Join(dir, "missing", "p")}); err == nil {
			t.Errorf("%s into a missing directory accepted", flag)
		}
	}
}

// TestTraceReplayProfiles: `trace replay` writes non-empty CPU and
// allocation profiles, on the sequential and the parallel path, and an
// unwritable profile path is an error.
func TestTraceReplayProfiles(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prof.trc")
	if err := run([]string{"trace", "record", "-file", file, "-workload", "apache", "-n", "20000"}); err != nil {
		t.Fatal(err)
	}
	for i, extra := range [][]string{nil, {"-workers", "2"}} {
		cpu, mem := filepath.Join(dir, fmt.Sprintf("cpu%d.pprof", i)), filepath.Join(dir, fmt.Sprintf("mem%d.pprof", i))
		args := append([]string{"trace", "replay", "-file", file, "-dir", "cuckoo-4x512", "-cpuprofile", cpu, "-memprofile", mem}, extra...)
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{cpu, mem} {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() == 0 {
				t.Errorf("%v: profile %s is empty", extra, filepath.Base(path))
			}
		}
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if err := run([]string{"trace", "replay", "-file", file, "-dir", "cuckoo-4x512", flag, filepath.Join(dir, "missing", "p")}); err == nil {
			t.Errorf("%s into a missing directory accepted", flag)
		}
	}
	if err := run([]string{"trace", "record", "-file", file, "-n", "100", "-cpuprofile", filepath.Join(dir, "rec.pprof")}); err == nil {
		t.Error("trace record accepted -cpuprofile")
	}
}
