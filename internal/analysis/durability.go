package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DurabilityAnalyzer mechanically enforces journal-before-ack on the
// head's ingest path: wherever the head relays its replicas' ingest
// success reply to its caller — reply, err := …(msgIngestOK) … return
// reply, nil — the batch must be durable first, with every journal
// error checked. Durable means a store Log.Append, or a Log.Write
// followed by a Log.SyncTo: a Write alone leaves the batch in the page
// cache. An ack that outruns the journal is an acked write a crash can
// lose, which is the one promise the storage engine makes. A worker's own
// return msgIngestOK is a reply to the head, not that promise: workers
// keep no journal, and the head journals before it relays the ack.
var DurabilityAnalyzer = &Analyzer{
	Name: "durability",
	Doc: "in ingest paths, the head's relayed success ack must be dominated by a journal " +
		"append, or a journal write and sync, whose errors are checked (journal-before-ack)",
	Scopes: []Scope{
		{Packages: []string{"internal/dist"}},
	},
	Run: runDurability,
}

func runDurability(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The region under the invariant: the case clause handling
			// msgIngest when the function switches on message types,
			// otherwise the whole body of a function that mentions
			// msgIngest.
			regions := ingestRegions(fd.Body)
			for _, region := range regions {
				checkIngestRegion(pass, region)
			}
		}
	}
}

// ingestRegions returns the statement lists to check: msgIngest case
// clauses, or the function body when msgIngest is used outside a
// switch.
func ingestRegions(body *ast.BlockStmt) [][]ast.Stmt {
	var regions [][]ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "msgIngest" {
				regions = append(regions, cc.Body)
			}
		}
		return true
	})
	if len(regions) > 0 {
		return regions
	}
	// Whole-body region only when msgIngest appears at all.
	uses := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "msgIngest" {
			uses = true
			return false
		}
		return true
	})
	if uses {
		regions = append(regions, body.List)
	}
	return regions
}

// checkIngestRegion verifies journal-before-ack within one region.
func checkIngestRegion(pass *Pass, region []ast.Stmt) {
	info := pass.Pkg.Info

	type journalCall struct {
		call    *ast.CallExpr
		kind    string // "append", "write" or "sync"
		errName string // bound error identifier; "" when discarded
		checked bool
	}
	var journals []journalCall
	var acks []token.Pos
	ackVars := map[types.Object]bool{} // idents holding replies from calls passing msgIngestOK

	var regionEnd token.Pos
	for _, s := range region {
		if s.End() > regionEnd {
			regionEnd = s.End()
		}
	}

	for _, s := range region {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// reply, err := roundTrip(..., msgIngestOK): reply is an ack
				// carrier when later returned with a nil error.
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !callPassesIdent(call, "msgIngestOK") {
						continue
					}
					if i < len(n.Lhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
							if obj := info.ObjectOf(id); obj != nil {
								ackVars[obj] = true
							}
						}
					}
				}
			case *ast.CallExpr:
				if kind := journalKind(info, n); kind != "" {
					jc := journalCall{call: n, kind: kind}
					jc.errName, jc.checked = journalErrorChecked(info, region, n)
					journals = append(journals, jc)
				}
			case *ast.ReturnStmt:
				if isAckReturn(info, n, ackVars) {
					acks = append(acks, n.Pos())
				}
			}
			return true
		})
	}

	if len(acks) == 0 {
		return
	}
	for _, jc := range journals {
		if !jc.checked {
			pass.Reportf(jc.call.Pos(), "journal %s error is not checked before the ack: a failed %s must fail the ingest", jc.kind, jc.kind)
		}
	}
	// The batch is durable at the first Append, or at the first SyncTo
	// after a Write.
	var durable *journalCall
	written := false
	for i, jc := range journals {
		if jc.kind == "append" || jc.kind == "sync" && written {
			durable = &journals[i]
			break
		}
		written = written || jc.kind == "write"
	}
	switch {
	case durable != nil:
	case written:
		pass.Reportf(acks[0], "ingest ack after a journal write without SyncTo: the batch is written but not durable (journal-before-ack)")
		return
	default:
		pass.Reportf(acks[0], "ingest ack without a journal append in scope: an acked batch must be durable first (journal-before-ack)")
		return
	}
	for _, ack := range acks {
		if ack < durable.call.Pos() {
			pass.Reportf(ack, "ingest ack precedes the journal %s: a crash between them loses an acked batch (journal-before-ack)", durable.kind)
		}
	}
}

// journalMethods names the journal calls by what they do: Append writes
// and syncs, Write only writes, SyncTo only syncs.
var journalMethods = map[string]string{"Append": "append", "Write": "write", "SyncTo": "sync"}

// journalKind recognizes journal calls on the storage package's journal,
// DiskLog, and returns their kind, or "" for any other call. It matches
// the method's package path, not the receiver type, so a journal type the
// package adds later is covered without a change here.
func journalKind(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || journalMethods[sel.Sel.Name] == "" {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if p := fn.Pkg().Path(); p != "store" && !strings.HasSuffix(p, "/store") {
		return ""
	}
	return journalMethods[sel.Sel.Name]
}

// callPassesIdent reports whether the call has the named identifier
// among its arguments.
func callPassesIdent(call *ast.CallExpr, name string) bool {
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}

// isAckReturn recognizes the head's relayed success ack: return reply,
// nil where reply carries the result of a call passing msgIngestOK.
func isAckReturn(info *types.Info, ret *ast.ReturnStmt, ackVars map[types.Object]bool) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.Ident)
	if !ok || last.Name != "nil" {
		return false
	}
	for _, res := range ret.Results {
		if id, ok := ast.Unparen(res).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && ackVars[obj] {
				return true
			}
		}
	}
	return false
}

// journalErrorChecked reports the error identifier bound to the journal
// call and whether it is consulted (an if condition or a return)
// afterwards. The enclosing statement shapes handled are the ones Go
// code actually writes: `if err := j(); err != nil`, `err := j()` /
// `_, err := j()` followed by a check, and a bare call (unchecked).
func journalErrorChecked(info *types.Info, region []ast.Stmt, call *ast.CallExpr) (string, bool) {
	// Find the innermost statement containing the call.
	var enclosing ast.Stmt
	var parentIf *ast.IfStmt
	for _, s := range region {
		ast.Inspect(s, func(n ast.Node) bool {
			st, ok := n.(ast.Stmt)
			if !ok {
				return true
			}
			if call.Pos() >= st.Pos() && call.End() <= st.End() {
				switch st := st.(type) {
				case *ast.AssignStmt:
					enclosing = st
				case *ast.ExprStmt:
					enclosing = st
				case *ast.IfStmt:
					if st.Init != nil && call.Pos() >= st.Init.Pos() && call.End() <= st.Init.End() {
						parentIf = st
					}
				}
			}
			return true
		})
	}

	bindErr := func(as *ast.AssignStmt) *ast.Ident {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if t := info.TypeOf(id); t != nil && types.Identical(t, types.Universe.Lookup("error").Type()) {
					return id
				}
			}
		}
		return nil
	}

	if parentIf != nil {
		as, ok := parentIf.Init.(*ast.AssignStmt)
		if !ok {
			return "", false
		}
		id := bindErr(as)
		if id == nil {
			return "", false
		}
		return id.Name, condMentions(info, parentIf.Cond, info.ObjectOf(id))
	}
	as, ok := enclosing.(*ast.AssignStmt)
	if !ok {
		return "", false // bare call statement: error dropped on the floor
	}
	id := bindErr(as)
	if id == nil {
		return "", false
	}
	obj := info.ObjectOf(id)
	// Look for a later if-condition or return consulting the error.
	checked := false
	for _, s := range region {
		ast.Inspect(s, func(n ast.Node) bool {
			if n == nil || n.Pos() <= as.End() {
				return true
			}
			switch n := n.(type) {
			case *ast.IfStmt:
				if condMentions(info, n.Cond, obj) {
					checked = true
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if rid, ok := ast.Unparen(r).(*ast.Ident); ok && info.ObjectOf(rid) == obj {
						checked = true
					}
				}
			}
			return !checked
		})
	}
	return id.Name, checked
}

// condMentions reports whether the expression references obj.
func condMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
