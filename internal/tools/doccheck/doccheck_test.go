package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoDocsAreClean runs the full check against the real repository
// docs — the same gate CI's docs job applies.
func TestRepoDocsAreClean(t *testing.T) {
	if problems := check("../../.."); len(problems) != 0 {
		for _, p := range problems {
			t.Error(p)
		}
	}
}

// TestCheckCatchesRot: a doc naming a missing file, a bogus
// organization and a broken link produces one problem each, and a
// layer map that leaves out a package under internal/ (tooling under
// internal/tools/ aside) produces one more.
func TestCheckCatchesRot(t *testing.T) {
	root := t.TempDir()
	bad := "see [x](missing.md) and `internal/nonexistent/pkg.go` and `cuckoo-7x999`\n"
	for _, name := range docFiles {
		body := bad
		if name == "DESIGN.md" {
			body += "\n## 1. Layer map\n\n```\ncuckoodir.go\n  └── internal/mapped, internal/mapped/sub\n```\n"
		}
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"internal/mapped", "internal/mapped/sub", "internal/unmapped", "internal/tools/tool"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, dir, "x.go"), []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems := check(root)
	// 3 problems per doc file (link, path, org that fails validation)
	// plus the missing experiment ids in EXPERIMENTS.md.
	if len(problems) < 9 {
		t.Fatalf("problems = %d:\n%v", len(problems), problems)
	}
	var unmapped []string
	for _, p := range problems {
		if strings.Contains(p, "layer map") {
			unmapped = append(unmapped, p)
		}
	}
	if len(unmapped) != 1 || !strings.HasSuffix(unmapped[0], "package internal/unmapped") {
		t.Errorf("layer-map problems = %q, want one for internal/unmapped", unmapped)
	}
}

func TestIsOrgLike(t *testing.T) {
	for tok, want := range map[string]bool{
		"cuckoo-4x512":                true,
		"skew-4x1024":                 true,
		"sharded-8(cuckoo-4x1024)":    true,
		"sharded-8@interleave(ideal)": true,
		"cuckoo-WAYSxSETS":            false, // placeholder
		"sharded-8@interleave(...)":   false, // placeholder
		"cuckoo":                      false, // prose
		"internal/directory/doc.go":   false,
	} {
		if got := isOrgLike(tok); got != want {
			t.Errorf("isOrgLike(%q) = %v, want %v", tok, got, want)
		}
	}
}
