package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// determinismExemptions are the packages on the bit-identity decision
// path that the determinism analyzer deliberately does not scan
// wholesale, each with the reason the exemption is sound. Removing a
// package from the analyzer's scope without recording why here fails
// the coverage test below.
var determinismExemptions = map[string]string{
	// randx IS the sanctioned randomness: it wraps math/rand behind
	// explicit seeding, which is exactly the import the analyzer bans
	// everywhere else.
	"internal/randx": "the seeded-randomness facade itself",
	// The storage engine's clocks time its appends, fsyncs and snapshot
	// saves for the metrics — they never decide which bytes are stored.
	// Record content is produced by the callers the analyzer does scan.
	"internal/store": "clocks time metrics, not stored content",
	// dist is partially scoped (the statistics, delta, compact and
	// checkpoint codec files, and the coordinator's pull/fold/merge and
	// sweep paths): the rest is heartbeat/retry machinery that is
	// legitimately time-based. Asserted as partial coverage below.
	"internal/dist": "partially scoped: codec/merge/sweep paths only",
	// gate is the serving layer: its clock paces token-bucket refills and
	// Retry-After hints — when a request is admitted, never what the
	// estimator computes. Statistics flow through pool/core, which the
	// analyzer does scan.
	"internal/gate": "clocks pace rate limits and backpressure, not statistics",
	// obs is the observability layer: its clocks time histogram samples
	// and its counters count, but nothing on the decision path reads a
	// measurement back. Clocks pace measurement, not decisions — and a
	// decision-path package that smuggles time.Now through an obs helper
	// into its own logic is still caught, because that call site lives in
	// the scanned package (see the determinism fixture's obs-smuggling
	// case).
	"internal/obs": "clocks pace measurement, not decisions",
}

// TestDeterminismCoversBitIdentityClosure pins the determinism
// analyzer's scope to the code the bit-identity tests actually defend:
// the set of module packages transitively imported by every test that
// compares results at math.Float64bits granularity must equal the
// analyzer's package scope plus the documented exemptions above. A new
// package on the decision path — or a decision-path import added to an
// existing one — fails this test until it is either scoped or exempted
// with a reason.
func TestDeterminismCoversBitIdentityClosure(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	fset := token.NewFileSet()

	relOf := func(dir string) string {
		rel, err := filepath.Rel(loader.ModDir, dir)
		if err != nil {
			t.Fatalf("rel: %v", err)
		}
		if rel == "." {
			return ""
		}
		return filepath.ToSlash(rel)
	}

	moduleImports := func(file string) []string {
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", file, err)
		}
		var rels []string
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == loader.ModPath {
				rels = append(rels, "")
			} else if rest, ok := strings.CutPrefix(path, loader.ModPath+"/"); ok {
				rels = append(rels, rest)
			}
		}
		return rels
	}

	// Seeds: every package owning a Float64bits-comparing test, plus the
	// module packages those test files import directly.
	var queue []string
	err = filepath.WalkDir(loader.ModDir, func(p string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			name := d.Name()
			if p != loader.ModDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			// This package talks about Float64bits without computing
			// anything bit-compared; scanning it would make the test
			// self-seeding.
			if relOf(p) == "internal/analysis" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if !strings.Contains(string(data), "Float64bits") {
			return nil
		}
		queue = append(queue, relOf(filepath.Dir(p)))
		queue = append(queue, moduleImports(p)...)
		return nil
	})
	if err != nil {
		t.Fatalf("walking module: %v", err)
	}
	if len(queue) == 0 {
		t.Fatal("no bit-identity (Float64bits) tests found; the coverage baseline is gone")
	}

	// Transitive closure over the non-test imports of each reached
	// package.
	reachable := map[string]bool{}
	for len(queue) > 0 {
		rel := queue[0]
		queue = queue[1:]
		if reachable[rel] {
			continue
		}
		reachable[rel] = true
		dir := filepath.Join(loader.ModDir, filepath.FromSlash(rel))
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			queue = append(queue, moduleImports(filepath.Join(dir, e.Name()))...)
		}
	}

	covered := map[string]bool{}
	for _, rel := range DeterminismPackages() {
		covered[rel] = true
	}
	for rel := range determinismExemptions {
		covered[rel] = true
	}

	for _, rel := range sortedSet(reachable) {
		if !covered[rel] {
			t.Errorf("package %q is on the bit-identity decision path but neither scoped by the determinism analyzer nor exempted with a reason", rel)
		}
	}
	for _, rel := range sortedSet(covered) {
		if !reachable[rel] {
			t.Errorf("package %q is scoped/exempted but no longer reachable from any bit-identity test; prune it", rel)
		}
	}

	// The dist exemption is "partial scope", not "no scope": the
	// analyzer must still carry file/function-scoped entries for it, and
	// every codec file — the delta codec included — must be scanned
	// whole.
	distScoped := false
	wholeFiles := map[string]bool{}
	for _, s := range DeterminismAnalyzer.Scopes {
		if containsString(s.Packages, "internal/dist") && (len(s.Files) > 0 || len(s.Funcs) > 0) {
			distScoped = true
			if len(s.Funcs) == 0 {
				for _, f := range s.Files {
					wholeFiles[f] = true
				}
			}
		}
	}
	if !distScoped {
		t.Error("internal/dist lost its partial determinism scope (codec/merge/sweep paths must stay covered)")
	}
	for _, f := range []string{"codec.go", "delta.go", "compact.go"} {
		if !wholeFiles[f] {
			t.Errorf("internal/dist/%s is a wire codec but not scanned whole by the determinism analyzer", f)
		}
		if _, err := os.Stat(filepath.Join(loader.ModDir, "internal", "dist", f)); err != nil {
			t.Errorf("scoped codec file internal/dist/%s: %v", f, err)
		}
	}
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
