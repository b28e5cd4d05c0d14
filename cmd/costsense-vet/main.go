// Command costsense-vet runs the project's custom static-analysis
// suite (internal/analysis) over the module — the compile-time half of
// the simulator's determinism, allocation-free and concurrency
// contracts. Eight analyzers: detmap, detsource, hotpathalloc,
// hotpathtrans, arenaref, lockguard, ctxflow and errflow;
// the last four ride on module-local interprocedural effect summaries
// (may a callee block, allocate, take a lock, spawn?). It is
// self-contained on the standard library, so it runs offline with the
// bare toolchain:
//
//	go run ./cmd/costsense-vet ./...
//	go run ./cmd/costsense-vet ./internal/sim ./internal/pq
//	go run ./cmd/costsense-vet -audit ./...
//
// Diagnostics print as file:line:col: analyzer: message and a nonzero
// exit status marks the tree dirty; CI runs it as a blocking lint job
// (scripts/lint.sh locally).
//
// -audit switches to inventory mode: instead of diagnostics it prints
// a byte-deterministic JSON report of every //costsense: suppression
// directive in the analyzed packages — file, line, verb,
// justification — flagging stale suppressions (no analyzer consults
// them any more), missing justifications and unknown verbs, any of
// which exit 1. The nightly CI job archives the report; diffing two
// nightlies shows exactly which audited exceptions appeared or
// disappeared.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"costsense/internal/analysis"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "costsense-vet:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	audit := false
	if len(args) > 0 && args[0] == "-audit" {
		audit = true
		args = args[1:]
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	moduleDir, err := findModuleRoot()
	if err != nil {
		return err
	}
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		return err
	}
	rels, err := expandPatterns(loader, moduleDir, args)
	if err != nil {
		return err
	}
	pkgs, err := loader.LoadPackages(rels)
	if err != nil {
		return err
	}
	tracker := analysis.NewTracker()
	diags := analysis.Check(loader, pkgs, tracker)
	if audit {
		return runAudit(loader, pkgs, tracker)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, d := range diags {
		rel, err := filepath.Rel(moduleDir, d.Pos.Filename)
		if err == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	return nil
}

// runAudit prints the directive inventory and exits 1 when any
// directive is stale, unjustified or unknown.
func runAudit(loader *analysis.Loader, pkgs []*analysis.Package, tracker *analysis.Tracker) error {
	report := analysis.BuildAudit(loader, pkgs, tracker)
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if report.Problems() {
		fmt.Fprintf(os.Stderr, "costsense-vet -audit: %d stale, %d unjustified, %d unknown directive(s)\n",
			report.Stale, report.Unjustified, report.Unknown)
		os.Exit(1)
	}
	return nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// expandPatterns resolves ./... style patterns to module-relative
// package directories.
func expandPatterns(l *analysis.Loader, moduleDir string, patterns []string) ([]string, error) {
	all, err := l.PackageDirs()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		switch {
		case pat == "...":
			for _, rel := range all {
				add(rel)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			matched := false
			for _, rel := range all {
				if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					add(rel)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %q matched no packages", pat)
			}
		default:
			if _, err := os.Stat(filepath.Join(moduleDir, filepath.FromSlash(pat))); err != nil {
				return nil, fmt.Errorf("pattern %q: %w", pat, err)
			}
			add(pat)
		}
	}
	return out, nil
}
