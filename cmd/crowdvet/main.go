// Command crowdvet runs the project-invariant static analyzers over the
// module: determinism, lock hygiene, error classification and
// durability ordering (see internal/analysis for
// what each enforces and why). It is stdlib-only — go/parser, go/types
// and a from-source importer — so the module stays dependency-free.
//
// Usage:
//
//	crowdvet [-json] [-checks determinism,locks,...] ./...
//	crowdvet ./internal/dist ./internal/store
//
// Exit status: 0 when clean, 1 when there are findings, 2 on usage or
// load errors. Findings can be suppressed line-by-line with
//
//	//crowdvet:ignore <check> <reason>
//
// where the reason is mandatory and reviewed like code; an ignore
// without one is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"crowdassess/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crowdvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array for tooling")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	dir := fs.String("C", ".", "run as if launched from this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "crowdvet: no packages named (try ./...)")
		return 2
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "crowdvet: %v\n", err)
		return 2
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintf(stderr, "crowdvet: %v\n", err)
		return 2
	}

	rels, err := expandPatterns(loader, *dir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "crowdvet: %v\n", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, rel := range rels {
		pkg, err := loader.Load(loader.ImportPathFor(rel))
		if err != nil {
			fmt.Fprintf(stderr, "crowdvet: %v\n", err)
			return 2
		}
		diags = append(diags, analysis.Run(pkg, analyzers)...)
	}

	if *jsonOut {
		if err := analysis.WriteJSON(stdout, loader.ModDir, diags); err != nil {
			fmt.Fprintf(stderr, "crowdvet: %v\n", err)
			return 2
		}
	} else {
		analysis.WriteText(stdout, loader.ModDir, diags)
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "crowdvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -checks flag against the registry.
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have: %s)", name, strings.Join(analysis.AnalyzerNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// expandPatterns maps command-line package patterns to module-relative
// paths: "./..." walks the whole module, "dir/..." a subtree, plain
// paths name single package directories.
func expandPatterns(loader *analysis.Loader, base string, patterns []string) ([]string, error) {
	allPkgs, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		prefix, recursive := strings.CutSuffix(pat, "...")
		if recursive {
			root, err := patternRel(loader, base, strings.TrimSuffix(prefix, "/"))
			if err != nil {
				return nil, err
			}
			matched := false
			for _, rel := range allPkgs {
				if root == "" || rel == root || strings.HasPrefix(rel, root+"/") {
					add(rel)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %q matches no packages", pat)
			}
			continue
		}
		rel, err := patternRel(loader, base, pat)
		if err != nil {
			return nil, err
		}
		for _, known := range allPkgs {
			if known == rel {
				add(rel)
				rel = ""
				break
			}
		}
		if rel != "" {
			return nil, fmt.Errorf("no package at %q", pat)
		}
	}
	return out, nil
}

// patternRel resolves a pattern base (a filesystem-ish path like "." or
// "./internal/dist", or a module-relative path) to a module-relative
// package path.
func patternRel(loader *analysis.Loader, base, pat string) (string, error) {
	p := pat
	if p == "" || p == "." || p == "./" {
		// Relative to base; base itself may sit below the module root.
		abs, err := filepath.Abs(base)
		if err != nil {
			return "", err
		}
		rel, err := filepath.Rel(loader.ModDir, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return "", fmt.Errorf("%q is outside module %s", base, loader.ModPath)
		}
		if rel == "." {
			return "", nil
		}
		return filepath.ToSlash(rel), nil
	}
	p = strings.TrimPrefix(p, "./")
	p = strings.TrimSuffix(p, "/")
	if base != "." && base != "" {
		sub, err := patternRel(loader, base, ".")
		if err != nil {
			return "", err
		}
		if sub != "" {
			p = sub + "/" + p
		}
	}
	return filepath.ToSlash(p), nil
}
