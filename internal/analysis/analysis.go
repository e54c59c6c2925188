// Package analysis is crowdvet's engine: a stdlib-only static-analysis
// framework (go/parser + go/types, no external dependencies) plus the
// project-invariant checks it runs. Every check encodes a bug class this
// repository has actually shipped or reviewed away — wall-clock reads
// on the bit-identity path, lock paths without unlock, acks that outrun
// the journal — so that CI rejects the class mechanically instead of
// hoping a test happens to exercise the violating path.
//
// The unit of work is a Package (parsed files + type information); each
// Analyzer walks one package and reports Diagnostics. Which packages,
// files and functions an analyzer examines is declared as Scopes and
// enforced by the driver, so the checks themselves stay simple
// whole-package walks. Findings can be suppressed line-by-line with
//
//	//crowdvet:ignore <check> <reason>
//
// where the reason is mandatory: an ignore without one is itself a
// finding (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// Diagnostic is one finding: a position, the check that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Scope names a set of (package, file, function) triples an analyzer
// applies to. Empty fields widen: no Files means every file in the
// packages, no Funcs means every function in the files.
type Scope struct {
	// Packages are module-relative import paths ("internal/core"; "" is
	// the module root package).
	Packages []string
	// Files are base names within those packages ("codec.go").
	Files []string
	// Funcs are function or method names (receiver omitted).
	Funcs []string
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	// Name is the check identifier used in output and in
	// //crowdvet:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Scopes restricts where findings apply. Nil means every package.
	Scopes []Scope
	// Run walks one package and reports findings through the pass. The
	// driver filters reports against Scopes afterwards, so Run may scan
	// the whole package unconditionally.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full registered suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		LocksAnalyzer,
		ErrClassAnalyzer,
		DurabilityAnalyzer,
	}
}

// AnalyzerNames returns the valid check names, including the built-in
// suppression check, for ignore-comment validation and -checks parsing.
func AnalyzerNames() []string {
	names := []string{SuppressCheck}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// enclosingFuncName returns the name of the function or method whose
// body spans pos in any of the package's files, or "".
func enclosingFuncName(pkg *Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pos >= fd.Pos() && pos <= fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}

// inScope reports whether a diagnostic at pos (in file base name file)
// falls inside any of the analyzer's scopes for the given package.
func inScope(a *Analyzer, pkg *Package, file string, pos token.Pos) bool {
	if len(a.Scopes) == 0 {
		return true
	}
	for _, s := range a.Scopes {
		if !containsString(s.Packages, pkg.Rel) {
			continue
		}
		if len(s.Files) > 0 && !containsString(s.Files, file) {
			continue
		}
		if len(s.Funcs) > 0 && !containsString(s.Funcs, enclosingFuncName(pkg, pos)) {
			continue
		}
		return true
	}
	return false
}

func containsString(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}
