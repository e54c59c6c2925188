package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each directory under testdata/src is one fixture
// package, loaded through the real Loader (so fixtures type-check, and
// the ones importing crowdassess/... pin the live APIs) and run through
// RunForTest. Expectations are written in the fixtures themselves as
//
//	// want "pattern" ["pattern" ...]
//
// where each pattern is a regexp that must match one "check: message"
// diagnostic on that line. Every diagnostic must be wanted and every
// want must be matched — extra or missing findings fail the test.

// wantQuoted pulls the quoted patterns out of the text following a
// "// want" marker.
var wantQuoted = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadFixture("fixture/"+name, filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

func wantsIn(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, fn := range pkg.FileNames {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatalf("reading fixture file: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			for _, m := range wantQuoted.FindAllStringSubmatch(line[idx:], -1) {
				rx, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", fn, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: fn, line: i + 1, rx: rx})
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers over the named fixture and reconciles
// diagnostics against the fixture's want markers.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	wants := wantsIn(t, pkg)
	for _, d := range RunForTest(pkg, analyzers) {
		text := d.Check + ": " + d.Message
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.rx)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", []*Analyzer{DeterminismAnalyzer})
}

func TestLocksFixture(t *testing.T) {
	checkFixture(t, "locks", []*Analyzer{LocksAnalyzer})
}

func TestErrClassFixture(t *testing.T) {
	checkFixture(t, "errclass", []*Analyzer{ErrClassAnalyzer})
}

func TestDurabilityFixture(t *testing.T) {
	checkFixture(t, "durability", []*Analyzer{DurabilityAnalyzer})
}

// TestSuppressFixture covers the suppression policy: a justified ignore
// silences its finding, a reasonless or unknown-check ignore is itself a
// finding and suppresses nothing.
func TestSuppressFixture(t *testing.T) {
	checkFixture(t, "suppress", []*Analyzer{ErrClassAnalyzer})
}

// TestGeneratedFixture: files carrying the conventional generated-file
// marker are invisible to every check; sibling files still run.
func TestGeneratedFixture(t *testing.T) {
	checkFixture(t, "generated", []*Analyzer{ErrClassAnalyzer})
}
