package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixture runs one analyzer over its testdata/src fixture and fails on
// any mismatch between diagnostics and the fixture's want comments.
func fixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	problems, err := CheckFixture([]*Analyzer{a}, filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("CheckFixture(%s): %v", dir, err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}

func TestHotpathFixture(t *testing.T)    { fixture(t, HotpathAnalyzer, "hotpath") }
func TestAtomicpadFixture(t *testing.T)  { fixture(t, AtomicpadAnalyzer, "atomicpad") }
func TestStatsmergeFixture(t *testing.T) { fixture(t, StatsmergeAnalyzer, "statsmerge") }
func TestRecoverboundaryFixture(t *testing.T) {
	fixture(t, RecoverboundaryAnalyzer, "recoverboundary")
}

// TestDirectivesDiagnostics asserts the indexer's own diagnostics on
// malformed //cuckoo: comments. Their positions are the comment lines
// themselves, where want annotations cannot sit, so this test matches
// substrings directly.
func TestDirectivesDiagnostics(t *testing.T) {
	ld, err := LoadFixture(filepath.Join("testdata", "src", "directives"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(nil, ld.Packages, ld.Index)
	if err != nil {
		t.Fatal(err)
	}
	expect := []string{
		"unknown directive //cuckoo:bogus",
		"//cuckoo:ignore needs a reason",
		"//cuckoo:stats on noMergeName needs merge=NAME",
		"//cuckoo:hotpath on type hotOnType (it annotates functions)",
		"//cuckoo:recoverboundary on type boundaryOnType (it annotates functions)",
		"//cuckoo:stats on function statsOnFunc (it annotates struct types)",
	}
	for _, want := range expect {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q; got %d diagnostics:", want, len(diags))
			for _, d := range diags {
				t.Logf("  %s", d)
			}
		}
	}
	if len(diags) != len(expect) {
		t.Errorf("got %d diagnostics, want %d", len(diags), len(expect))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestIgnoreFiltering proves the suppression grammar end to end: the
// same construct with and without an ignore directive.
func TestIgnoreFiltering(t *testing.T) {
	ld, err := LoadFixture(filepath.Join("testdata", "src", "hotpath"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Analyzer{HotpathAnalyzer}, ld.Packages, ld.Index)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "hotIgnored") {
			t.Errorf("ignore directive did not suppress: %s", d)
		}
	}
	// The unsuppressed twin (hotRecv) must still be reported.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "hotRecv") {
			found = true
		}
	}
	if !found {
		t.Error("channel receive in hotRecv not reported")
	}
}

// TestRepoClean is the merge gate as a test: the full suite over the
// whole module must report nothing. A failure here IS the lint failure
// CI would show — fix the violation or document it with
// //cuckoo:ignore <reason>.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check in -short mode")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := LoadModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Analyzers(), ld.Packages, ld.Index)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(ld.Packages) == 0 {
		t.Fatal("loaded no packages")
	}
	// The annotations the suite guards must actually be present — an
	// empty index would make every hotpath run vacuous.
	hot := ld.Index.HotpathFuncs()
	if len(hot) < 10 {
		t.Errorf("indexed %d //cuckoo:hotpath functions, want >= 10 (annotations lost?)", len(hot))
	}
	for _, name := range []string{"Find", "findAt", "Prefetch", "insertAt", "Delete", "deleteSlot", "Index", "IndexAll", "Reindex", "ApplyShardOps", "fills", "applyCuckoo", "flush", "drainLoop"} {
		found := false
		for _, fn := range hot {
			if fn.Name() == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected //cuckoo:hotpath on %s, not indexed", name)
		}
	}
}
