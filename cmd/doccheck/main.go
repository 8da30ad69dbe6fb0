// Command doccheck is the documentation gate CI runs on every PR
// (.github/workflows/ci.yml, job "docs"). It enforces the two
// documentation invariants the repo promises:
//
//  1. every Go package — internal/*, cmd/*, examples/* — carries a
//     package-level doc comment, so `go doc` is never empty;
//  2. every relative link in the markdown docs (README.md, docs/*.md,
//     ROADMAP.md, the example READMEs, …) resolves to a file or
//     directory that actually exists;
//  3. no stale operational claims: every command-line flag a doc's
//     flag table documents is declared by some command under cmd/,
//     and the metric names are held to the code both ways — every
//     provd_* name a doc mentions is printed by provd's one /metrics
//     emitter (internal/provd/metrics.go), and every name the emitter
//     prints has a row in the metrics tables of docs/operations.md.
//     Docs drift worst exactly where operators copy from — flag tables
//     and metric names — so those claims are checked against the code,
//     not trusted.
//
// It prints one line per violation and exits non-zero if there are any.
//
//	go run ./cmd/doccheck [root]
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	violations = append(violations, checkPackageDocs(root)...)
	violations = append(violations, checkMarkdownLinks(root)...)
	violations = append(violations, checkStaleClaims(root)...)
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Printf("doccheck: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// skippedDir reports directories that hold no documented packages.
func skippedDir(name string) bool {
	return name == ".git" || name == "testdata" || strings.HasPrefix(name, ".")
}

// checkPackageDocs walks every directory containing Go files and
// requires a package doc comment on at least one non-test file.
func checkPackageDocs(root string) []string {
	var out []string
	fset := token.NewFileSet()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if skippedDir(d.Name()) {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				out = append(out, fmt.Sprintf("%s: package %s has no package doc comment", path, name))
			}
		}
		return nil
	})
	return out
}

var (
	// flagDecl matches a flag definition in source: flag.String("name",
	// flag.Bool("name", flag.Func("name", …
	flagDecl = regexp.MustCompile(`flag\.\w+\("([a-z][a-z0-9-]*)"`)
	// flagClaim matches a documented flag in the first column of a
	// markdown table row: | `-name` … — anchored to the first column so
	// prose mentions of a flag mid-cell are not treated as table
	// entries.
	flagClaim = regexp.MustCompile("(?m)^\\|\\s*`-([a-z][a-z0-9-]*)")
	// metricClaim matches a provd metric name mentioned anywhere in a
	// doc; a trailing `*` (a family glob like provd_auth_*) simply ends
	// the token, leaving the family prefix to substring-match.
	metricClaim = regexp.MustCompile(`provd_[a-z0-9_]+`)
	// metricEmit matches a metric line in the emitter: "provd_name %d\n".
	metricEmit = regexp.MustCompile(`"(provd_[a-z0-9_]+) %`)
	// tableRow matches one markdown table row.
	tableRow = regexp.MustCompile(`(?m)^\|.*$`)
)

// The single place provd prints metrics from, and the single place
// operators look them up.
const (
	metricsEmitter = "internal/provd/metrics.go"
	metricsDoc     = "docs/operations.md"
)

// checkStaleClaims verifies the docs' operational claims against the
// source tree: documented flags must be declared by a command,
// documented metric names must be printed by the emitter, and emitted
// metric names must be documented.
func checkStaleClaims(root string) []string {
	var out []string

	// What the code provides: declared flags (any cmd/ command) and the
	// emitter's text (metric names are fmt strings in it).
	declaredFlags := map[string]bool{}
	emitter, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(metricsEmitter)))
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", metricsEmitter, err)}
	}
	code := string(emitter)
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skippedDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for _, m := range flagDecl.FindAllStringSubmatch(string(data), -1) {
			declaredFlags[m[1]] = true
		}
		return nil
	})

	// What the docs claim.
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skippedDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		text := string(data)
		for _, m := range flagClaim.FindAllStringSubmatch(text, -1) {
			if !declaredFlags[m[1]] {
				out = append(out, fmt.Sprintf("%s: documents flag -%s, which no command declares", path, m[1]))
			}
		}
		seen := map[string]bool{}
		for _, name := range metricClaim.FindAllString(text, -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if !strings.Contains(code, name) {
				out = append(out, fmt.Sprintf("%s: documents metric %s, which %s never emits", path, name, metricsEmitter))
			}
		}
		return nil
	})

	// And the other way: what the emitter prints, the runbook's metrics
	// tables must document.
	doc, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(metricsDoc)))
	if err != nil {
		return append(out, fmt.Sprintf("%s: %v", metricsDoc, err))
	}
	tables := strings.Join(tableRow.FindAllString(string(doc), -1), "\n")
	for _, m := range metricEmit.FindAllStringSubmatch(code, -1) {
		if !strings.Contains(tables, "`"+m[1]+"`") {
			out = append(out, fmt.Sprintf("%s: emits metric %s, which no metrics table in %s documents", metricsEmitter, m[1], metricsDoc))
		}
	}
	return out
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks resolves every relative link of every markdown
// file against the filesystem. External schemes and pure fragments are
// skipped; a `#fragment` suffix on a relative target is stripped (the
// file must exist; anchors are not verified).
func checkMarkdownLinks(root string) []string {
	var out []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skippedDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				out = append(out, fmt.Sprintf("%s: broken link %q", path, m[1]))
			}
		}
		return nil
	})
	return out
}
