package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the tiny size and returns its result
// line and the exact-counts line.
func runTiny(t *testing.T, workload string, trace int) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "5", "--seconds", "0.2",
		"--trace", strconv.Itoa(trace), "--size", "tiny", "--spans", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	var exactLine string
	for _, l := range lines {
		if strings.Contains(l, " exact ") {
			exactLine = l
		}
	}
	return res, exactLine
}

// TestWorkloads runs every workload of BENCHMARK.json untraced and
// traced, and checks that the correctness checks pass and that exactly
// the declared metrics are emitted with their declared units.
func TestWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			res, _ := runTiny(t, w.Name, trace)
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestExactCountsRepeat checks that the single-worker exact counts are a
// function of the workload and seed alone.
func TestExactCountsRepeat(t *testing.T) {
	for name := range workloads {
		_, first := runTiny(t, name, 0)
		_, second := runTiny(t, name, 0)
		if first == "" || first != second {
			t.Errorf("%s: exact counts %q then %q", name, first, second)
		}
	}
}
