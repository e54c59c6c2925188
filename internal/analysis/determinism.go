package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismAnalyzer rejects wall-clock and unseeded-randomness inputs,
// and order-dependent map iteration, inside the packages whose outputs
// the bit-identity tests compare at Float64bits granularity. Any hidden
// nondeterminism in these paths turns "replica divergence" and
// "recovery changed a decision" into heisenbugs; randomness must route
// through internal/randx (seeded) and map iteration must use the
// ordered-keys idiom (collect keys, sort, range the slice) when its
// body produces order-dependent results.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Since, math/rand and order-dependent map iteration " +
		"in the bit-identity-critical packages (route randomness through internal/randx, " +
		"iterate maps via sorted keys)",
	Scopes: []Scope{
		{Packages: DeterminismPackages()},
		// In internal/dist only the codec/merge paths feed the
		// compared bytes; the policy/heartbeat machinery is legitimately
		// time-based.
		{Packages: []string{"internal/dist"}, Files: []string{"codec.go", "delta.go", "compact.go"}},
		{Packages: []string{"internal/dist"}, Files: []string{"coordinator.go"}, Funcs: []string{
			"Merge", "pull", "pullSliceLocked", "mixedKinds", "foldLocked", "rebuildLocked",
		}},
	},
	Run: runDeterminism,
}

// DeterminismPackages is the module-relative package set the
// determinism analyzer covers wholesale ("" is the facade root).
// coverage_test.go asserts this set, plus the partially-scoped
// internal/dist and the documented exemptions, is exactly the set of
// packages the bit-identity tests (the Float64bits comparisons)
// transitively exercise — so a new package on the decision path cannot
// silently dodge analysis.
func DeterminismPackages() []string {
	return []string{
		"",
		"internal/aggregate",
		"internal/baseline",
		"internal/core",
		"internal/cpufeat",
		"internal/crowd",
		"internal/eval",
		"internal/mat",
		"internal/pool",
		"internal/sim",
		"internal/stat",
	}
}

// forbiddenTimeFuncs are the time package entry points that read the
// wall clock or schedule against it.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(), "import of %s: unseeded or global randomness breaks bit-identity; draw through internal/randx instead", imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(info, n); fn != nil {
					if p := fn.Pkg(); p != nil && p.Path() == "time" && forbiddenTimeFuncs[fn.Name()] {
						pass.Reportf(n.Pos(), "call to time.%s: wall-clock input in a bit-identity-critical path", fn.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
}

// calleeFunc resolves a call's callee to its types.Func when it is a
// plain or package-qualified function reference.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// checkMapRange flags map-range bodies whose effects depend on
// iteration order: appends into an outer slice (unless it is the
// ordered-keys idiom: collecting the bare keys and sorting them
// afterwards), stores through an outer slice index, float accumulation
// (reduction order changes the bits), and early exits (which key wins
// depends on the order).
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	t := info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	outer := func(id *ast.Ident) bool {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	}
	keyIdent, _ := rng.Key.(*ast.Ident)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate execution context; out of this walk's scope
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && n.Label == nil {
				pass.Reportf(n.Pos(), "break out of map iteration: which key is seen last depends on iteration order; iterate sorted keys instead")
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, file, rng, n, outer, keyIdent)
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, file *ast.File, rng *ast.RangeStmt, as *ast.AssignStmt, outer func(*ast.Ident) bool, keyIdent *ast.Ident) {
	info := pass.Pkg.Info
	// Float accumulation: x += v, x *= v with x declared outside the loop.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if id, ok := as.Lhs[0].(*ast.Ident); ok && outer(id) && isFloat(info.TypeOf(id)) {
			pass.Reportf(as.Pos(), "float accumulation over map iteration: reduction order changes the bits; iterate sorted keys")
			return
		}
	}
	for i, lhs := range as.Lhs {
		// Store through an outer slice index: out[i] = … where the slot
		// consumed depends on iteration order.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			base, ok := ix.X.(*ast.Ident)
			if !ok || !outer(base) {
				continue
			}
			if _, isSlice := info.TypeOf(base).Underlying().(*types.Slice); !isSlice {
				continue // map[k]=v keyed by the range key is order-independent
			}
			// Indexing by the range key itself lands each element in a
			// deterministic slot regardless of visit order.
			if ixID, ok := ast.Unparen(ix.Index).(*ast.Ident); ok && keyIdent != nil && info.ObjectOf(ixID) == info.ObjectOf(keyIdent) {
				continue
			}
			pass.Reportf(as.Pos(), "store through outer slice index inside map iteration: element placement depends on iteration order")
			continue
		}
		// x = append(x, …) growing an outer slice in visit order.
		if i >= len(as.Rhs) {
			continue
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			continue
		} else if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		target, ok := lhs.(*ast.Ident)
		if !ok || !outer(target) {
			continue
		}
		if isOrderedKeysCollect(pass, file, rng, call, target, keyIdent) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %s inside map iteration: element order depends on iteration order; collect keys and sort, or iterate sorted keys", target.Name)
	}
}

// isOrderedKeysCollect recognizes the first half of the ordered-keys
// idiom: appending exactly the range key to a slice that is sorted
// after the loop (a sort/slices call mentioning the target later in the
// same file).
func isOrderedKeysCollect(pass *Pass, file *ast.File, rng *ast.RangeStmt, call *ast.CallExpr, target *ast.Ident, keyIdent *ast.Ident) bool {
	info := pass.Pkg.Info
	if keyIdent == nil || len(call.Args) != 2 {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok || info.ObjectOf(arg) != info.ObjectOf(keyIdent) {
		return false
	}
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() <= rng.End() {
			return true
		}
		fn := calleeFunc(info, c)
		if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
			return true
		}
		for _, a := range c.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && info.ObjectOf(id) == info.ObjectOf(target) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
