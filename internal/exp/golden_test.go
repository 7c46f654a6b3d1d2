package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestStructureGolden pins the cuckoo structure experiments' rendered
// tables to their goldens (Quick scale, seed 0; see checkGolden). fig7
// drives single-entry tables of 2 to 8 ways; ablation drives the
// 2-entry-bucket and victim-stash variants, which no benchmark covers.
func TestStructureGolden(t *testing.T) {
	for _, id := range []string{"fig7", "ablation"} {
		t.Run(id, func(t *testing.T) {
			checkGolden(t, id, runExp(t, id))
		})
	}
}

// checkGolden compares an experiment's rendered tables, byte for byte,
// with testdata/<id>.golden, or rewrites that file under -update. The
// simulator tests (TestFig8Quick … TestLatencyQuick) pass it the tables
// they already computed, so pinning their figures adds no simulation.
// Regenerate with go test ./internal/exp -run '<test>' -update, and only
// for a change meant to move these numbers.
func checkGolden(t *testing.T, id string, ts []*tableType) {
	t.Helper()
	var b strings.Builder
	for _, tb := range ts {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", id+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
