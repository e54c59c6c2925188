package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WorkspaceAnalyzer enforces the pooled-arena discipline around
// mat.Workspace (the PR 3 bug class). A workspace taken from a
// sync.Pool must go back through a defer that Resets before Putting —
// a plain Put is not panic-safe, a Put without Reset hands the next
// user a dirty arena, and no defer at all leaks the arena on the first
// panicking path. And because Reset recycles every
// Get/GetVec/GetInts/GetWords allocation at once, arena-backed objects must not outlive the
// function that owns the pooled workspace: returning them, parking
// them in fields or globals, or shipping them to goroutines/channels
// republishes memory the pool is about to hand to someone else.
var WorkspaceAnalyzer = &Analyzer{
	Name: "workspace",
	Doc: "pooled mat.Workspace must be returned via defer { Reset; Put } and its " +
		"Get/GetVec/GetInts/GetWords/LU allocations must not escape the owning function",
	Run: runWorkspace,
}

const workspaceType = "crowdassess/internal/mat.Workspace"

// arenaMethods are the Workspace methods whose results are arena-owned.
var arenaMethods = map[string]bool{"Get": true, "GetVec": true, "GetInts": true, "GetWords": true, "LU": true}

func runWorkspace(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWorkspaceOwner(pass, fd.Body)
		}
	}
}

// isWorkspacePtr reports whether t is *mat.Workspace (by full type
// name, so fixtures importing the real package trip it too).
func isWorkspacePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Workspace" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path()+"."+obj.Name(), workspaceType)
}

// checkWorkspaceOwner analyzes one function body that may own pooled
// workspaces. Nested function literals are walked as part of the owner:
// the arena's lifetime is bounded by the owner's defer, wherever the
// use happens.
func checkWorkspaceOwner(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// Pass 1: find pool acquisitions — ws := pool.Get().(*mat.Workspace).
	acquired := map[types.Object]*ast.Ident{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			ta, ok := ast.Unparen(rhs).(*ast.TypeAssertExpr)
			if !ok || ta.Type == nil || !isWorkspacePtr(info.TypeOf(ta.Type)) {
				continue
			}
			call, ok := ast.Unparen(ta.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Get" {
				continue
			}
			if i < len(as.Lhs) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if obj := info.ObjectOf(id); obj != nil {
						acquired[obj] = id
					}
				}
			}
		}
		return true
	})
	if len(acquired) == 0 {
		return
	}

	// Pass 2: each acquisition needs a defer that Resets and Puts it,
	// and Put must only ever happen inside a defer.
	for obj, id := range acquired {
		hasDefer, hasReset, hasPut := false, false, false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				reset, put := deferReturnsWorkspace(info, n, obj)
				if reset || put {
					hasDefer = true
				}
				hasReset = hasReset || reset
				hasPut = hasPut || put
			}
			return true
		})
		switch {
		case !hasDefer:
			pass.Reportf(id.Pos(), "pooled workspace %s is not returned via defer: a panicking path leaks or republishes the arena", id.Name)
		case !hasReset:
			pass.Reportf(id.Pos(), "pooled workspace %s is returned without Reset: the next user inherits a dirty arena", id.Name)
		case !hasPut:
			pass.Reportf(id.Pos(), "pooled workspace %s is Reset in a defer but never returned to its pool", id.Name)
		}
		// Non-deferred Put of a pooled workspace: not panic-safe, and it
		// republishes the arena while the rest of the function may still
		// touch it.
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.DeferStmt); ok {
				return false // anything inside a defer is fine
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" && callMentionsObj(info, call, obj) {
				pass.Reportf(call.Pos(), "pooled workspace %s returned with a plain Put: wrap Reset+Put in a defer so a panic cannot skip or reorder them", id.Name)
			}
			return true
		})
	}

	// Pass 3: escape analysis for arena-backed objects of pooled
	// workspaces.
	tainted := map[types.Object]*ast.Ident{}
	changed := true
	for changed {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || tainted[obj] != nil {
					continue
				}
				if exprArenaTainted(info, rhs, acquired, tainted) {
					tainted[obj] = id
					changed = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if exprArenaTainted(info, res, acquired, tainted) {
					pass.Reportf(n.Pos(), "arena-backed value escapes via return: it is recycled by the deferred Reset before the caller can use it")
					return true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) || !exprArenaTainted(info, n.Rhs[i], acquired, tainted) {
					continue
				}
				switch l := lhs.(type) {
				case *ast.SelectorExpr:
					pass.Reportf(n.Pos(), "arena-backed value stored in a field: it outlives the owning function's workspace")
				case *ast.StarExpr:
					pass.Reportf(n.Pos(), "arena-backed value stored through a pointer: it outlives the owning function's workspace")
				case *ast.Ident:
					if obj := info.ObjectOf(l); obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						pass.Reportf(n.Pos(), "arena-backed value stored in package-level %s: it outlives the owning function's workspace", l.Name)
					}
				}
			}
		case *ast.SendStmt:
			if exprArenaTainted(info, n.Value, acquired, tainted) {
				pass.Reportf(n.Pos(), "arena-backed value sent on a channel: the receiver outlives the owning function's workspace")
			}
		case *ast.GoStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil && tainted[obj] != nil {
							pass.Reportf(id.Pos(), "arena-backed %s captured by a goroutine: it may run after the deferred Reset recycles the arena", id.Name)
							return false
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// deferReturnsWorkspace reports whether the defer's call (direct or a
// func literal body) Resets and/or Puts the given workspace object.
func deferReturnsWorkspace(info *types.Info, d *ast.DeferStmt, ws types.Object) (reset, put bool) {
	scan := func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Reset":
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.ObjectOf(id) == ws {
				reset = true
			}
		case "Put":
			if callMentionsObj(info, call, ws) {
				put = true
			}
		}
	}
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				scan(c)
			}
			return true
		})
		return reset, put
	}
	scan(d.Call)
	return reset, put
}

// callMentionsObj reports whether obj appears among the call's
// arguments.
func callMentionsObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && info.ObjectOf(id) == obj {
			return true
		}
	}
	return false
}

// exprArenaTainted reports whether e evaluates to arena-owned memory: a
// direct ws.Get/GetVec/GetInts/GetWords/LU call on a pooled workspace, a tainted
// identifier, or a slice/index view of either.
func exprArenaTainted(info *types.Info, e ast.Expr, acquired map[types.Object]*ast.Ident, tainted map[types.Object]*ast.Ident) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		return obj != nil && tainted[obj] != nil
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || !arenaMethods[sel.Sel.Name] {
			return false
		}
		recv, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.ObjectOf(recv)
		return obj != nil && acquired[obj] != nil
	case *ast.SliceExpr:
		return exprArenaTainted(info, e.X, acquired, tainted)
	case *ast.IndexExpr:
		// v[0] of a float slice is a scalar copy, not arena memory; only
		// reference-typed elements keep pointing into the arena.
		return !isValueCopy(info.TypeOf(e)) && exprArenaTainted(info, e.X, acquired, tainted)
	case *ast.UnaryExpr:
		return exprArenaTainted(info, e.X, acquired, tainted)
	case *ast.StarExpr:
		return !isValueCopy(info.TypeOf(e)) && exprArenaTainted(info, e.X, acquired, tainted)
	}
	return false
}

// isValueCopy reports whether reading a value of type t copies it out of
// the arena entirely (basic scalars and strings).
func isValueCopy(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok
}
