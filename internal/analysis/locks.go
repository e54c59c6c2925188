package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LocksAnalyzer enforces the concurrency hygiene of the streaming core
// and the cluster, pool, storage and gateway packages: every Lock/RLock
// needs a same-function defer Unlock or an unlock on every return path
// below it, and the documented lock order — slice/node locks are never
// acquired while holding the monitor mutex (the monitor probes outside
// slice locks) — is checked mechanically.
var LocksAnalyzer = &Analyzer{
	Name: "locks",
	Doc: "Lock/RLock in internal/core, dist, gate, pool and store must pair with a " +
		"same-function defer Unlock or an unlock on every return path; never take a " +
		"slice or node lock while holding monitorMu",
	Scopes: []Scope{
		{Packages: []string{"internal/core", "internal/dist", "internal/gate", "internal/pool", "internal/store"}},
	},
	Run: runLocks,
}

// guardMutexFields are the coarse mutexes that must stay leaves: code
// holding them may not reach for per-slice or per-node locks (the
// documented order takes fine-grained locks first, or not at all).
var guardMutexFields = map[string]bool{"monitorMu": true}

// nestedLockTypes are the struct types whose mu field must not be
// acquired under a guard mutex.
var nestedLockTypes = map[string]bool{"slice": true, "node": true}

// lockSite is one Lock/RLock call inside a function body.
type lockSite struct {
	call   *ast.CallExpr
	recv   string // rendered receiver expression, e.g. "c.monitorMu"
	unlock string // matching unlock method name
}

func runLocks(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockFunc(pass, fd.Body)
		}
	}
}

func checkLockFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	var locks []lockSite
	var unlocks []lockSite // every non-deferred unlock call, for path checks
	var deferred []lockSite
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						if s, kind := mutexCall(info, c); s != "" && isUnlockName(kind) {
							deferred = append(deferred, lockSite{call: c, recv: s, unlock: kind})
						}
					}
					return true
				})
				return false
			}
			if s, kind := mutexCall(info, n.Call); s != "" && isUnlockName(kind) {
				deferred = append(deferred, lockSite{call: n.Call, recv: s, unlock: kind})
			}
			return false
		case *ast.CallExpr:
			s, kind := mutexCall(info, n)
			if s == "" {
				return true
			}
			switch kind {
			case "Lock":
				locks = append(locks, lockSite{call: n, recv: s, unlock: "Unlock"})
			case "RLock":
				locks = append(locks, lockSite{call: n, recv: s, unlock: "RUnlock"})
			case "Unlock", "RUnlock":
				unlocks = append(unlocks, lockSite{call: n, recv: s, unlock: kind})
			}
		}
		return true
	})

	// Return points: every return after the lock, plus the implicit one
	// at the closing brace when the body can fall off the end.
	var returns []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its returns are not this function's paths
		}
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, r.Pos())
		}
		return true
	})
	if n := len(body.List); n == 0 || !terminalStmt(body.List[n-1]) {
		returns = append(returns, body.Rbrace)
	}

	for _, lk := range locks {
		if hasDeferredUnlock(deferred, lk) {
			continue
		}
		missing := token.NoPos
		for _, ret := range returns {
			if ret <= lk.call.Pos() {
				continue
			}
			if !hasUnlockBetween(unlocks, lk, lk.call.Pos(), ret) {
				missing = ret
				break
			}
		}
		if missing != token.NoPos {
			pass.Reportf(lk.call.Pos(), "%s.%s has no defer %s and line %d can return without unlocking",
				lk.recv, lockName(lk), lk.unlock, pass.Pkg.Fset.Position(missing).Line)
		}
	}

	checkLockOrder(pass, body, locks, unlocks, deferred)
}

// checkLockOrder flags slice/node mu acquisition inside a region where
// a guard mutex (monitorMu) is held.
func checkLockOrder(pass *Pass, body *ast.BlockStmt, locks, unlocks, deferred []lockSite) {
	info := pass.Pkg.Info
	for _, g := range locks {
		field := g.recv[strings.LastIndex(g.recv, ".")+1:]
		if !guardMutexFields[field] {
			continue
		}
		// Held region: from the guard's Lock to its first positional
		// unlock, or to the end of the function when deferred.
		start, end := g.call.Pos(), body.End()
		for _, u := range unlocks {
			if u.recv == g.recv && u.call.Pos() > start {
				end = u.call.Pos()
				break
			}
		}
		for _, lk := range locks {
			if lk.call.Pos() <= start || lk.call.Pos() >= end {
				continue
			}
			sel, ok := lk.call.Fun.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			inner, ok := sel.X.(*ast.SelectorExpr)
			if !ok || inner.Sel.Name != "mu" {
				continue
			}
			if t := info.TypeOf(inner.X); t != nil && nestedLockTypes[namedTypeName(t)] {
				pass.Reportf(lk.call.Pos(), "%s lock acquired while holding %s: the documented order takes slice/node locks first (the monitor probes outside them)",
					namedTypeName(info.TypeOf(inner.X)), g.recv)
			}
		}
	}
}

// mutexCall reports the rendered receiver and method name when call is
// a sync.Mutex/RWMutex (or embedded) Lock/RLock/Unlock/RUnlock.
func mutexCall(info *types.Info, call *ast.CallExpr) (recv, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	sig := fn.Origin().String()
	if !strings.Contains(sig, "sync.Mutex)") && !strings.Contains(sig, "sync.RWMutex)") {
		return "", ""
	}
	return types.ExprString(sel.X), name
}

func isUnlockName(name string) bool { return name == "Unlock" || name == "RUnlock" }

func lockName(lk lockSite) string {
	if lk.unlock == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

// hasDeferredUnlock reports whether a deferred unlock on the same
// rendered receiver (and matching read/write flavor) exists.
func hasDeferredUnlock(deferred []lockSite, lk lockSite) bool {
	for _, d := range deferred {
		if d.recv == lk.recv && d.unlock == lk.unlock {
			return true
		}
	}
	return false
}

// hasUnlockBetween reports whether a plain unlock of the same receiver
// and flavor sits between from and to.
func hasUnlockBetween(unlocks []lockSite, lk lockSite, from, to token.Pos) bool {
	for _, u := range unlocks {
		if u.recv == lk.recv && u.unlock == lk.unlock && u.call.Pos() > from && u.call.Pos() < to {
			return true
		}
	}
	return false
}

// terminalStmt reports whether the statement never falls through to the
// next one: a return, or a call to panic.
func terminalStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.ForStmt:
		return s.Cond == nil // for{} without break is as terminal as we can tell cheaply
	}
	return false
}

// namedTypeName returns the bare name of t's named type, through one
// pointer.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
