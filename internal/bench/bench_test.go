package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// BenchmarkTableFind / BenchmarkTableInsert / BenchmarkTableDelete are
// the acceptance benchmarks of the devirtualized hot path: compare the
// /skew/occ=70 sub-benchmark (fast path) against /iface/occ=70 (the
// pre-devirtualization Family-interface dispatch path) — the committed
// BENCH_cuckoo.json records the measured ratio.

func benchGroup(b *testing.B, prefix string) {
	for _, c := range Cases() {
		if strings.HasPrefix(c.Name, prefix) {
			b.Run(strings.TrimPrefix(c.Name, prefix), c.Bench)
		}
	}
}

func BenchmarkTableFind(b *testing.B)    { benchGroup(b, "table/find/") }
func BenchmarkTableInsert(b *testing.B)  { benchGroup(b, "table/insert/") }
func BenchmarkTableDelete(b *testing.B)  { benchGroup(b, "table/delete/") }
func BenchmarkApplyHits(b *testing.B)    { benchGroup(b, "apply/hits/") }
func BenchmarkApplyChurn(b *testing.B)   { benchGroup(b, "apply/churn/") }
func BenchmarkEngineSubmit(b *testing.B) { benchGroup(b, "engine/submit/") }
func BenchmarkReplayPipeline(b *testing.B) {
	if testing.Short() {
		b.Skip("replay sweep needs real parallelism")
	}
	benchGroup(b, "replay/")
}

// TestCasesFixed pins the suite's case names: the trajectory file is
// only comparable across PRs if the set stays append-only.
func TestCasesFixed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if c.Name == "" || c.Bench == nil {
			t.Fatalf("malformed case %+v", c)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
	}
	for _, want := range []string{
		"table/find/skew/occ=70",
		"table/find/iface/occ=70",
		"table/insert/skew/occ=70",
		"table/insert/iface/occ=70",
		"table/delete/strong/occ=50",
		"replay/shards=8/workers=4",
		"replay/engine/shards=8/producers=1",
		"replay/engine/shards=8/producers=4",
		"apply/hits/sets=512",
		"apply/hits/sets=16384",
		"apply/churn/sets=512",
		"apply/churn/sets=16384",
		"engine/submit/drainers=1",
		"engine/submit/drainers=8",
	} {
		if !seen[want] {
			t.Fatalf("case %q missing from the fixed set", want)
		}
	}
}

// TestTrajectoryRoundTrip exercises Load/Add/Save: appending, in-place
// label replacement, deterministic bytes.
func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema != 1 || len(tr.Runs) != 0 {
		t.Fatalf("empty trajectory = %+v", tr)
	}
	run1 := Run{Label: "pr1", MaxProcs: 8, Results: map[string]Result{
		"table/find/skew/occ=70": {NsPerOp: 50, OpsPerSec: 2e7},
	}}
	tr.Add(run1)
	run2 := Run{Label: "pr2", MaxProcs: 8, Results: map[string]Result{
		"table/find/skew/occ=70": {NsPerOp: 25, OpsPerSec: 4e7},
	}}
	tr.Add(run2)
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", back, tr)
	}
	// Replacing a label keeps its position and the byte output stable.
	run1b := run1
	run1b.MaxProcs = 16
	back.Add(run1b)
	if len(back.Runs) != 2 || back.Runs[0].MaxProcs != 16 || back.Runs[0].Label != "pr1" {
		t.Fatalf("label replacement failed: %+v", back.Runs)
	}
	if err := back.Save(path); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	if err := back.Save(path); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(a) != string(b) {
		t.Fatal("Save is not deterministic")
	}
	if got, ok := back.Lookup("pr2"); !ok || got.Results["table/find/skew/occ=70"].NsPerOp != 25 {
		t.Fatalf("Lookup(pr2) = %+v, %v", got, ok)
	}
}

// TestParallelNote pins the bench-metadata contract: every row names
// the parallelism it claims (workers=/producers=), and a row recorded
// on hardware that serializes that parallelism carries a note saying
// so instead of reading as a scaling result.
func TestParallelNote(t *testing.T) {
	for _, tc := range []struct {
		name string
		par  int
	}{
		{"table/find/skew/occ=70", 1},
		{"replay/shards=8/workers=1", 1},
		{"replay/shards=8/workers=4", 4},
		{"replay/engine/shards=8/producers=4", 4},
	} {
		if got := caseParallelism(tc.name); got != tc.par {
			t.Errorf("caseParallelism(%q) = %d, want %d", tc.name, got, tc.par)
		}
	}
	// Serial cases never carry a note; parallel cases do exactly when
	// GOMAXPROCS or the CPU count can't back the claimed parallelism.
	if n := parallelNote("replay/shards=8/workers=1", 1, 1); n != "" {
		t.Errorf("serial case noted: %q", n)
	}
	if n := parallelNote("replay/shards=8/workers=4", 1, 16); !strings.Contains(n, "GOMAXPROCS=1") {
		t.Errorf("GOMAXPROCS=1 note = %q", n)
	}
	if n := parallelNote("replay/engine/shards=8/producers=4", 8, 1); !strings.Contains(n, "num_cpu=1") {
		t.Errorf("num_cpu note = %q", n)
	}
	if n := parallelNote("replay/shards=8/workers=4", 8, 8); n != "" {
		t.Errorf("healthy parallel case noted: %q", n)
	}
	// A multi-producer engine row's allocation count depends on the
	// interleaving, so it is noted even on hardware that backs it.
	if n := parallelNote("replay/engine/shards=8/producers=4", 8, 8); !strings.Contains(n, "allocs/op") {
		t.Errorf("multi-producer allocation note = %q", n)
	}
}

// TestRegressions pins the bench regression guard: latency rows compare
// ns/op, throughput rows compare acc/s, cases present in only one run
// are skipped, and only slowdowns past the factor fail.
func TestRegressions(t *testing.T) {
	base := Run{Label: "pr5", Results: map[string]Result{
		"table/find/skew/occ=70":    {NsPerOp: 50},
		"replay/shards=8/workers=1": {NsPerOp: 1e8, AccPerSec: 2e6},
		"old/case":                  {NsPerOp: 10},
	}}
	cur := Run{Label: "dev", Results: map[string]Result{
		"table/find/skew/occ=70":    {NsPerOp: 90},                    // 1.8x slower: under 2x
		"replay/shards=8/workers=1": {NsPerOp: 3e8, AccPerSec: 0.6e6}, // 3.3x less throughput
		"new/case":                  {NsPerOp: 1e9},                   // no baseline: skipped
	}}
	bad := Regressions(base, cur, 2)
	if len(bad) != 1 || !strings.Contains(bad[0], "replay/shards=8/workers=1") {
		t.Fatalf("Regressions = %q, want only the replay throughput row", bad)
	}
	if bad := Regressions(base, cur, 4); len(bad) != 0 {
		t.Fatalf("Regressions(factor=4) = %q, want none", bad)
	}
	// Tighten the factor and the latency row fails too.
	bad = Regressions(base, cur, 1.5)
	if len(bad) != 2 {
		t.Fatalf("Regressions(factor=1.5) = %q, want 2 rows", bad)
	}
}

// TestBenchTableOccupancy sanity-checks the setup helper: the table
// lands on the requested occupancy and the key list is exact.
func TestBenchTableOccupancy(t *testing.T) {
	tb, keys := newBenchTable("skew", 70)
	if got := tb.Occupancy(); got < 0.69 || got > 0.71 {
		t.Fatalf("occupancy = %v", got)
	}
	if len(keys) != tb.Len() {
		t.Fatalf("keys %d != Len %d", len(keys), tb.Len())
	}
	for _, k := range keys[:100] {
		if !tb.Contains(k) {
			t.Fatalf("key %#x missing", k)
		}
	}
}
