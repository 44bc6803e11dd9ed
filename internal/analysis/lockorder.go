package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockOrderAnalyzer enforces the declared lock hierarchy (Levels): in
// the concurrency-core packages every sync.Mutex / sync.RWMutex struct
// field must carry a //uvm:lock annotation, and every blocking Lock /
// RLock must acquire a level strictly below everything already held.
// TryLock acquisitions are exempt from the order check (they cannot
// contribute a blocking edge to a deadlock cycle) but count as held
// afterwards; a blocking Lock on a same-level *peer* inside the failure
// branch of a TryLock is flagged as protocol misuse. Findings are
// waived with //uvm:lockorder-ok <reason>.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "check blocking lock acquisitions against the declared lock hierarchy",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	// Malformed //uvm: annotations surface here regardless of package.
	for _, bad := range pass.Dirs.Bad {
		*pass.diags = append(*pass.diags, Diagnostic{
			Analyzer: pass.Analyzer.Name,
			Pos:      bad.Pos,
			Message:  bad.Message,
		})
	}

	core := pkgInSet(pass.Pkg.Path(), lockCorePackages)
	if core {
		checkAnnotationCoverage(pass)
	}

	res := &resolver{info: pass.TypesInfo, pkg: pass.Pkg, dirs: pass.Dirs, facts: pass.Facts}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, res: res}
			w.block(fd.Body)
			// Closures get their own walk with an empty held set: they
			// run later (goroutines, callbacks), not under the locks
			// visible at their creation site.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					lw := &lockWalker{pass: pass, res: res}
					lw.block(lit.Body)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// checkAnnotationCoverage requires a //uvm:lock level on every mutex
// struct field declared by a named type of a core package.
func checkAnnotationCoverage(pass *Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if !isMutexType(field.Type()) {
				continue
			}
			key := name + "." + field.Name()
			if _, ok := pass.Dirs.FieldLevels[key]; ok {
				continue
			}
			pass.Reportf(field.Pos(), "lockorder-ok",
				"mutex field %s has no //uvm:lock level annotation", key)
		}
	}
}

func isMutexType(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	n := named.Obj().Name()
	return n == "Mutex" || n == "RWMutex"
}

// heldLock is one lock the walker believes is held at the current
// program point.
type heldLock struct {
	level string
	rank  int
	expr  string
}

// lockWalker tracks the acquired-while-held set through one function
// body, in source order, branch-sensitively:
//
//   - branches are walked with copies of the held set; after the
//     branch, a lock released in any non-terminating branch is treated
//     as released (under-approximating "held" keeps false positives
//     down — the declared hierarchy is checked where locks are
//     *visibly* held);
//   - loop bodies are walked twice so a lock carried across an
//     iteration is checked against the next iteration's acquisitions
//     (duplicates are deduped);
//   - `if !x.TryLock() { ... }` is recognised as the counted-lock
//     idiom: the body runs without x held, a blocking Lock of a
//     same-level peer inside it is flagged, and x counts as held after
//     the statement whichever way the branch went.
type lockWalker struct {
	pass *Pass
	res  *resolver
	held []heldLock
}

func (w *lockWalker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
		// Nothing after a return is reachable on this path; clearing the
		// held set keeps locks handed out across a return (the fault
		// path's owner-lock handoff) from polluting the second loop-body
		// pass.
		w.held = nil
	case *ast.IfStmt:
		w.ifStmt(s)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		// Twice: catch locks carried into the next iteration.
		w.block(s.Body)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.block(s.Body)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.block(s.Body)
		w.block(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.branches(caseBodies(s.Body))
	case *ast.TypeSwitchStmt:
		w.branches(caseBodies(s.Body))
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		w.branches(bodies)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.GoStmt:
		// The goroutine starts with its own empty held set; its body (a
		// FuncLit) is walked separately by runLockOrder.
	case *ast.DeferStmt:
		// defer x.Unlock() keeps x held to the end of the function —
		// exactly what not touching the held set models. Other deferred
		// calls are ignored.
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

// branches walks each body with a copy of the held set and afterwards
// treats a lock released in any non-terminating branch as released.
func (w *lockWalker) branches(bodies [][]ast.Stmt) {
	base := cloneHeld(w.held)
	after := cloneHeld(base)
	for _, body := range bodies {
		w.held = cloneHeld(base)
		for _, s := range body {
			w.stmt(s)
		}
		if !terminates(body) {
			after = intersectHeld(after, w.held)
		}
	}
	w.held = after
}

func (w *lockWalker) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		w.stmt(s.Init)
	}

	// if !x.TryLock() { ... }: counted-lock / TryLock-fallback idiom.
	if site := w.notTryLockCond(s.Cond); site != nil {
		w.checkTryFallback(site, s.Body)
		base := cloneHeld(w.held)
		w.block(s.Body)
		w.held = base
		if s.Else != nil {
			w.stmt(s.Else)
			w.held = base
		}
		// Whichever way the branch went, x is held afterwards.
		w.acquire(site, true)
		return
	}

	// if x.TryLock() { ... held inside ... } else { ... not held ... }
	if site := w.tryLockCond(s.Cond); site != nil {
		base := cloneHeld(w.held)
		w.acquire(site, true)
		w.block(s.Body)
		held := w.held
		w.held = cloneHeld(base)
		if s.Else != nil {
			w.stmt(s.Else)
		}
		elseHeld := w.held
		// Fall-through: if the failure path terminates, the lock is
		// still held; otherwise be conservative and drop it.
		if s.Else == nil && terminates(s.Body.List) {
			w.held = base
		} else if terminates(s.Body.List) {
			w.held = elseHeld
		} else {
			w.held = intersectHeld(held, elseHeld)
		}
		return
	}

	w.expr(s.Cond)
	var bodies [][]ast.Stmt
	bodies = append(bodies, s.Body.List)
	if s.Else != nil {
		bodies = append(bodies, []ast.Stmt{s.Else})
	} else {
		bodies = append(bodies, nil)
	}
	w.branches(bodies)
}

// tryLockCond matches `x.TryLock()` (possibly parenthesised).
func (w *lockWalker) tryLockCond(cond ast.Expr) *lockSite {
	cond = ast.Unparen(cond)
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if site, ok := w.res.lockCall(call); ok && site.try() {
		return site
	}
	return nil
}

// notTryLockCond matches `!x.TryLock()`.
func (w *lockWalker) notTryLockCond(cond ast.Expr) *lockSite {
	cond = ast.Unparen(cond)
	un, ok := cond.(*ast.UnaryExpr)
	if !ok || un.Op.String() != "!" {
		return nil
	}
	return w.tryLockCond(un.X)
}

// checkTryFallback flags a blocking Lock of a *different* lock at the
// same level inside the failure branch of a TryLock: the fallback may
// retry the lock it just failed to get, but blocking on a peer while
// the protocol is mid-backoff re-creates the deadlock TryLock exists to
// avoid.
func (w *lockWalker) checkTryFallback(tried *lockSite, body *ast.BlockStmt) {
	if tried.level == "" {
		return
	}
	inspectNoFuncLit(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		site, ok := w.res.lockCall(call)
		if !ok || !site.blocking() || site.level != tried.level {
			return
		}
		if site.expr == tried.expr {
			return // retrying the same lock blockingly is the idiom
		}
		w.pass.Reportf(call.Pos(), "lockorder-ok",
			"blocking %s of %s(%s) inside the failed-TryLock branch of %s(%s): the fallback must not block on a same-level peer",
			site.method, site.expr, site.level, tried.expr, tried.level)
	})
}

// expr walks e in evaluation-ish order handling lock calls, summary
// checks and nothing inside function literals.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if site, ok := w.res.lockCall(call); ok {
			switch {
			case site.blocking():
				w.checkAcquire(site, call)
				w.acquire(site, false)
			case site.release():
				w.release(site)
			}
			// Bare TryLock in expression position (result assigned or
			// discarded): the structured `if` forms are handled in
			// ifStmt; here the held outcome is unknowable, so skip.
			return false
		}
		w.checkCallSummary(call)
		return true
	})
}

// checkAcquire flags a blocking acquisition at or above a held level.
func (w *lockWalker) checkAcquire(site *lockSite, call *ast.CallExpr) {
	if site.level == "" {
		return
	}
	rank := rankOf(site.level)
	for _, h := range w.held {
		if h.expr == site.expr && h.level == site.level {
			continue // upgrade/downgrade patterns on the same lock
		}
		if rank <= h.rank {
			w.pass.Reportf(call.Pos(), "lockorder-ok",
				"acquiring %s(%s) while holding %s(%s) goes %s the declared hierarchy",
				site.expr, site.level, h.expr, h.level, upOrSideways(rank, h.rank))
			return
		}
	}
}

// checkCallSummary flags calls whose transitive lock summary acquires
// at or above a held level.
func (w *lockWalker) checkCallSummary(call *ast.CallExpr) {
	if len(w.held) == 0 {
		return
	}
	pkgPath, key, ok := w.res.calleeKey(call)
	if !ok {
		return
	}
	var ff FuncFact
	if pkgPath == w.pass.Pkg.Path() {
		f, ok := w.pass.OwnFacts.Funcs[key]
		if !ok {
			return
		}
		ff = f
	} else {
		pf := w.pass.Facts(pkgPath)
		if pf == nil {
			return
		}
		f, ok := pf.Funcs[key]
		if !ok {
			return
		}
		ff = f
	}
	for _, level := range ff.Acquires {
		rank := rankOf(level)
		for _, h := range w.held {
			if rank <= h.rank {
				w.pass.Reportf(call.Pos(), "lockorder-ok",
					"call to %s may blockingly acquire a %s lock while holding %s(%s), %s the declared hierarchy",
					key, level, h.expr, h.level, upOrSideways(rank, h.rank))
				return
			}
		}
	}
}

func (w *lockWalker) acquire(site *lockSite, try bool) {
	if site.level == "" {
		return
	}
	for _, h := range w.held {
		if h.expr == site.expr && h.level == site.level {
			return
		}
	}
	w.held = append(w.held, heldLock{level: site.level, rank: rankOf(site.level), expr: site.expr})
	_ = try
}

func (w *lockWalker) release(site *lockSite) {
	for i, h := range w.held {
		if h.expr == site.expr {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

func cloneHeld(h []heldLock) []heldLock {
	return append([]heldLock(nil), h...)
}

// intersectHeld keeps the locks present in both sets.
func intersectHeld(a, b []heldLock) []heldLock {
	var out []heldLock
	for _, x := range a {
		for _, y := range b {
			if x.expr == y.expr && x.level == y.level {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// terminates reports whether a statement list always transfers control
// out (return, panic, continue, break, goto, os.Exit-style is not
// modelled).
func terminates(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	switch last := body[len(body)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var bodies [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			bodies = append(bodies, cc.Body)
		}
	}
	return bodies
}

func upOrSideways(acquired, held int) string {
	if acquired == held {
		return "sideways in"
	}
	return "up"
}

// levelList renders levels for messages.
func levelList(levels []string) string { return strings.Join(levels, ", ") }
