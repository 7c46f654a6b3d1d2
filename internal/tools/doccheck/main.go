// Command doccheck verifies that the repository's documentation stays
// true: DESIGN.md, EXPERIMENTS.md and README.md may only name files
// that exist, directory organizations the registry resolves, and
// experiment ids the harness defines. CI runs it in the docs job; a
// renamed file, a deleted experiment or a typo'd registry name fails
// the build instead of rotting in the docs.
//
// Checks, per document:
//
//   - every relative markdown link [text](path) points at an existing
//     file or directory;
//   - every path-like token in inline code or fenced blocks
//     (internal/..., cmd/..., examples/..., .github/..., or a root
//     *.go / *.md file) exists;
//   - every organization-name-like token (cuckoo-4x512,
//     sharded-8(cuckoo-4x1024), ...) resolves through the registry AND
//     validates; placeholder tokens containing uppercase (org-WxS,
//     sharded-N(INNER)) are ignored;
//   - every experiment id from exp.IDs() is mentioned in EXPERIMENTS.md;
//   - every package directory under internal/, except the tooling under
//     internal/tools/, is named in DESIGN.md's §1 layer map.
//
// Usage: go run ./internal/tools/doccheck [-root DIR]
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/exp"
)

var docFiles = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	problems := check(*root)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "doccheck:", p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %s ok\n", strings.Join(docFiles, ", "))
}

// check runs every documentation check rooted at root and returns the
// problems found (empty = all good).
func check(root string) []string {
	var problems []string
	for _, name := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		problems = append(problems, checkDoc(root, name, string(data))...)
	}
	problems = append(problems, checkExperimentIDs(root)...)
	problems = append(problems, checkLayerMap(root)...)
	return problems
}

var (
	linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	codeRE = regexp.MustCompile("`([^`]+)`")
	// orgRE matches parameterized registry names: an organization (or
	// alias) prefix followed by all-numeric dimensions. Bare org words
	// ("cuckoo") are prose, not names to resolve.
	orgRE = regexp.MustCompile(`^(cuckoo|sparse|skewed|skew|elbow|dup-tag|dup|tagless|in-cache|ideal)-[0-9]+(x[0-9]+)*$`)
	// shardedRE matches the sharded wrapper form, optionally carrying a
	// home-function tag and/or a ^grow resize policy.
	shardedRE = regexp.MustCompile(`^sharded-[0-9]+(@[a-z]+)?(\^grow=[0-9.]+(x[0-9.]+)?)?\(.+\)$`)
	// layerMapRE captures the first fenced block after DESIGN.md's
	// "## 1. Layer map" heading.
	layerMapRE = regexp.MustCompile("(?s)\n## 1\\. Layer map\n.*?```\n(.*?)```")
	// pkgRE matches a package path under internal/ in the layer map.
	pkgRE = regexp.MustCompile(`internal/[a-z0-9_/]*[a-z0-9_]`)
)

// checkDoc validates one markdown document's references.
func checkDoc(root, name, body string) []string {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s: %s", name, fmt.Sprintf(format, args...)))
	}

	inFence := false
	for ln, line := range strings.Split(body, "\n") {
		lineNo := ln + 1
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		var codeTexts []string
		if inFence {
			codeTexts = []string{line}
		} else {
			for _, m := range codeRE.FindAllStringSubmatch(line, -1) {
				codeTexts = append(codeTexts, m[1])
			}
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") {
					continue
				}
				target, _, _ = strings.Cut(target, "#")
				if _, err := os.Stat(filepath.Join(root, target)); err != nil {
					bad("line %d: link target %q does not exist", lineNo, target)
				}
			}
		}
		for _, text := range codeTexts {
			for _, field := range strings.Fields(text) {
				for _, tok := range strings.Split(field, ",") {
					tok = strings.Trim(tok, `"'.;:`+"`")
					switch {
					case tok == "":
					case isPathLike(tok):
						p := strings.TrimPrefix(tok, "./")
						if _, err := os.Stat(filepath.Join(root, p)); err != nil {
							bad("line %d: file %q does not exist", lineNo, p)
						}
					case isOrgLike(tok):
						spec, ok := directory.LookupSpec(tok)
						if !ok {
							bad("line %d: organization %q does not resolve in the registry", lineNo, tok)
						} else if err := spec.WithCaches(16).Validate(); err != nil {
							bad("line %d: organization %q does not validate: %v", lineNo, tok, err)
						}
					}
				}
			}
		}
	}
	return problems
}

// isPathLike reports whether a code token names a repository file the
// check should stat. Absolute paths (/tmp/...) and placeholder-ish
// tokens are not the repo's business.
func isPathLike(tok string) bool {
	if strings.HasPrefix(tok, "/") || strings.ContainsAny(tok, "*{}<>") {
		return false
	}
	p := strings.TrimPrefix(tok, "./")
	for _, prefix := range []string{"internal/", "cmd/", "examples/", ".github/"} {
		if strings.HasPrefix(p, prefix) {
			return true
		}
	}
	// Root-level files referenced by name ("cuckoodir.go", "DESIGN.md").
	return !strings.Contains(p, "/") &&
		(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".md"))
}

// isOrgLike reports whether a code token looks like a concrete registry
// name (placeholders with uppercase letters are documentation, not
// names).
func isOrgLike(tok string) bool {
	if strings.ToLower(tok) != tok || strings.Contains(tok, "...") {
		return false
	}
	return orgRE.MatchString(tok) || shardedRE.MatchString(tok)
}

// checkExperimentIDs verifies EXPERIMENTS.md mentions every experiment
// id the harness defines — `cuckoodir list` promises the mapping.
func checkExperimentIDs(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for _, id := range exp.IDs() {
		if !strings.Contains(string(data), "`"+id+"`") {
			problems = append(problems, fmt.Sprintf("EXPERIMENTS.md: experiment id %q is not documented", id))
		}
	}
	return problems
}

// checkLayerMap reports each package directory under internal/, the
// tooling under internal/tools/ aside, that DESIGN.md's §1 layer map
// does not name.
func checkLayerMap(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return []string{err.Error()}
	}
	mapped := map[string]bool{}
	if m := layerMapRE.FindSubmatch(data); m != nil {
		for _, p := range pkgRE.FindAll(m[1], -1) {
			mapped[string(p)] = true
		}
	}
	var problems []string
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel = filepath.ToSlash(rel); rel == "internal/tools" {
			return fs.SkipDir
		}
		if gofiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gofiles) > 0 && !mapped[rel] {
			problems = append(problems, fmt.Sprintf("DESIGN.md: the §1 layer map does not name package %s", rel))
		}
		return nil
	})
	if err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}
