package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockScope verifies the try-lock discipline of internal/core: every
// spinLock/sync.Mutex acquisition must be released on all control-flow
// paths of the acquiring function, and nothing may block while a lock is
// held (channel operations, select, time.Sleep, runtime.Gosched, the
// backoff spinner — which yields — or acquiring a second lock).
//
// The MultiQueue deliberately has functions that RETURN with a lock held
// (the selector's lockForInsert/lockNonEmptyQueue entry points). Those are
// annotated //powervet:locks <spec>, where spec is either
//
//	result.<field> — the returned value's <field> lock is held when the
//	                 result is non-nil (e.g. result.lock), or
//	<name>         — the named lock is held when the result is non-nil
//	                 (e.g. globalMu).
//
// Inside an annotated function, `return x` must hold exactly the declared
// lock and `return nil` must hold nothing. In callers, the call's result
// conditionally holds the lock until a nil-check resolves it; any other use
// of the result commits the caller to holding — and therefore releasing —
// it on every remaining path.
//
// The analysis interprets each function's AST structurally (if/else,
// for/range, switch, select), tracking the held-lock set symbolically by
// receiver expression text. TryLock calls in conditions propagate polarity:
// `if q.lock.TryLock() { … }` holds the lock only in the then-branch, and a
// `case !q.lock.TryLock():` clause means every later clause of that switch
// runs with the lock held. Control-flow merges where the two sides disagree
// about a lock are themselves reported: this codebase's locking is
// intentionally structured enough that "conditionally held" only ever
// arises from nil-checkable acquirer results. Methods ON a lock type (the
// spinLock primitive itself) and functions containing goto are skipped.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "spinlock/mutex acquisitions must be released on every path, without blocking while held",
	Run:  runLockScope,
}

// lsState is the abstract lock state along one control-flow path.
type lsState struct {
	dead bool
	held []string // sorted receiver texts, e.g. "q.lock", "mq.globalMu"
	// cond maps a variable holding an acquirer's result to the lock that is
	// held iff that variable is non-nil.
	cond map[string]string
	// deferred marks locks with a pending `defer x.Unlock()`: they satisfy
	// exit checks but still count as held for blocking checks.
	deferred map[string]bool
}

func (s lsState) clone() lsState {
	c := lsState{dead: s.dead, held: append([]string(nil), s.held...)}
	if s.cond != nil {
		c.cond = make(map[string]string, len(s.cond))
		for k, v := range s.cond {
			c.cond[k] = v
		}
	}
	if s.deferred != nil {
		c.deferred = make(map[string]bool, len(s.deferred))
		for k := range s.deferred {
			c.deferred[k] = true
		}
	}
	return c
}

func (s *lsState) acquire(id string) {
	i := sort.SearchStrings(s.held, id)
	if i < len(s.held) && s.held[i] == id {
		return
	}
	s.held = append(s.held, "")
	copy(s.held[i+1:], s.held[i:])
	s.held[i] = id
}

// release removes the held lock matching id: exact text first, then —
// because annotated specs name locks by their final field (globalMu vs
// mq.globalMu) — by final selector component. ok=false when nothing
// matches.
func (s *lsState) release(id string) bool {
	for i, h := range s.held {
		if h == id {
			s.held = append(s.held[:i], s.held[i+1:]...)
			delete(s.deferred, h)
			return true
		}
	}
	last := lastComponent(id)
	for i, h := range s.held {
		if lastComponent(h) == last {
			s.held = append(s.held[:i], s.held[i+1:]...)
			delete(s.deferred, h)
			return true
		}
	}
	return false
}

func (s lsState) holds(id string) bool {
	last := lastComponent(id)
	for _, h := range s.held {
		if h == id || lastComponent(h) == last {
			return true
		}
	}
	return false
}

func lastComponent(id string) string {
	if i := strings.LastIndexByte(id, '.'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// lsFunc interprets one function body.
type lsFunc struct {
	pass      *Pass
	fd        *ast.FuncDecl
	spec      string // this function's //powervet:locks spec, or ""
	acquirers map[types.Object]string
	skip      bool // unsupported construct encountered; stay silent
}

func runLockScope(pass *Pass) error {
	acquirers := make(map[types.Object]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if spec, ok := directive(fd.Doc, "locks"); ok {
					acquirers[pass.Info.Defs[fd.Name]] = spec
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isLockTypeMethod(pass.Info, fd) {
				continue
			}
			if hasGoto(fd.Body) {
				continue
			}
			lf := &lsFunc{pass: pass, fd: fd, acquirers: acquirers}
			lf.spec, _ = directive(fd.Doc, "locks")
			out := lf.execBlock(fd.Body, lsState{}, nil)
			lf.checkExit(out, fd.Name.Pos())
		}
	}
	return nil
}

// isLockTypeMethod reports whether fd is a method on a lock type itself —
// the primitive whose body necessarily ends with the lock held.
func isLockTypeMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	return t != nil && isLockType(t)
}

// isLockType reports whether t (possibly behind a pointer) has both Lock
// and Unlock in its method set — the structural definition of "a lock".
func isLockType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	has := func(name string) bool {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		fn, ok := obj.(*types.Func)
		return ok && fn != nil
	}
	return has("Lock") && has("Unlock")
}

func hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}

// branchTargets collects the states flowing out of break/continue.
type branchTargets struct {
	breakStates    []lsState
	continueStates []lsState
	loopEntry      *lsState // non-nil inside a loop: back-edge reference
	outer          *branchTargets
}

func (lf *lsFunc) reportf(pos token.Pos, format string, args ...any) {
	if !lf.skip {
		lf.pass.Reportf(pos, format, args...)
	}
}

// checkExit validates falling off the end of the function.
func (lf *lsFunc) checkExit(s lsState, pos token.Pos) {
	if s.dead {
		return
	}
	for _, h := range s.held {
		if !s.deferred[h] {
			lf.reportf(pos, "%s: %s may still be held at function exit", lf.fd.Name.Name, h)
		}
	}
	for v, id := range s.cond {
		lf.reportf(pos, "%s: %s (acquired through %s) may still be held at function exit", lf.fd.Name.Name, id, v)
	}
}

// merge joins two path states, reporting locks held on one side only.
func (lf *lsFunc) merge(pos token.Pos, a, b lsState) lsState {
	if a.dead {
		return b
	}
	if b.dead {
		return a
	}
	for _, h := range a.held {
		if !b.holds(h) {
			lf.reportf(pos, "%s: %s is held on some control-flow paths but not others at this merge point", lf.fd.Name.Name, h)
		}
	}
	for _, h := range b.held {
		if !a.holds(h) {
			lf.reportf(pos, "%s: %s is held on some control-flow paths but not others at this merge point", lf.fd.Name.Name, h)
		}
	}
	out := a.clone()
	// Keep the intersection of held sets so one report does not cascade.
	var kept []string
	for _, h := range a.held {
		if b.holds(h) {
			kept = append(kept, h)
		}
	}
	out.held = kept
	for v, id := range a.cond {
		if b.cond[v] != id {
			lf.reportf(pos, "%s: %s (result of an acquirer) is conditionally held on only some paths", lf.fd.Name.Name, id)
			delete(out.cond, v)
		}
	}
	return out
}

func (lf *lsFunc) execBlock(b *ast.BlockStmt, s lsState, bt *branchTargets) lsState {
	for _, st := range b.List {
		if s.dead {
			return s
		}
		s = lf.execStmt(st, s, bt)
	}
	return s
}

func (lf *lsFunc) execStmt(stmt ast.Stmt, s lsState, bt *branchTargets) lsState {
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		return lf.execBlock(st, s, bt)
	case *ast.ExprStmt:
		return lf.scanExpr(st.X, s, true)
	case *ast.AssignStmt:
		return lf.execAssign(st, s)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s = lf.scanExpr(v, s, false)
					}
				}
			}
		}
		return s
	case *ast.IncDecStmt, *ast.EmptyStmt:
		return s
	case *ast.LabeledStmt:
		return lf.execStmt(st.Stmt, s, bt)
	case *ast.ReturnStmt:
		lf.checkReturn(st, s)
		s.dead = true
		return s
	case *ast.BranchStmt:
		return lf.execBranch(st, s, bt)
	case *ast.DeferStmt:
		if recv, op := lockOp(lf.pass.Info, st.Call); op == "Unlock" {
			id := types.ExprString(recv)
			if !s.holds(id) {
				lf.reportf(st.Pos(), "%s: deferred unlock of %s, which is not held here", lf.fd.Name.Name, id)
			} else {
				if s.deferred == nil {
					s.deferred = map[string]bool{}
				}
				for _, h := range s.held {
					if h == id || lastComponent(h) == lastComponent(id) {
						s.deferred[h] = true
					}
				}
			}
			return s
		}
		for _, a := range st.Call.Args {
			s = lf.scanExpr(a, s, false)
		}
		return s
	case *ast.IfStmt:
		return lf.execIf(st, s, bt)
	case *ast.ForStmt:
		return lf.execFor(st, s, bt)
	case *ast.RangeStmt:
		return lf.execRange(st, s, bt)
	case *ast.SwitchStmt:
		return lf.execSwitch(st, s, bt)
	case *ast.TypeSwitchStmt:
		return lf.execTypeSwitch(st, s, bt)
	case *ast.SelectStmt:
		if len(s.held) > 0 {
			lf.reportf(st.Pos(), "%s: select blocks while %s is held", lf.fd.Name.Name, strings.Join(s.held, ", "))
		}
		var out lsState
		out.dead = true
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			cs := s.clone()
			if cc.Comm != nil {
				cs = lf.execStmt(cc.Comm, cs, bt)
			}
			for _, inner := range cc.Body {
				if cs.dead {
					break
				}
				cs = lf.execStmt(inner, cs, bt)
			}
			out = lf.merge(st.Pos(), out, cs)
		}
		return out
	case *ast.SendStmt:
		if len(s.held) > 0 {
			lf.reportf(st.Pos(), "%s: channel send while %s is held", lf.fd.Name.Name, strings.Join(s.held, ", "))
		}
		s = lf.scanExpr(st.Chan, s, false)
		return lf.scanExpr(st.Value, s, false)
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			s = lf.scanExpr(a, s, false)
		}
		return s
	default:
		// Unsupported statement: stop diagnosing this function rather than
		// report from a state we do not model.
		lf.skip = true
		return s
	}
}

func (lf *lsFunc) execBranch(st *ast.BranchStmt, s lsState, bt *branchTargets) lsState {
	switch st.Tok {
	case token.BREAK:
		if bt != nil {
			bt.breakStates = append(bt.breakStates, s.clone())
		}
	case token.CONTINUE:
		t := bt
		for t != nil && t.loopEntry == nil {
			t = t.outer
		}
		if t != nil {
			lf.checkBackEdge(st.Pos(), s, *t.loopEntry)
		}
	}
	s.dead = true
	return s
}

// checkBackEdge verifies a loop back edge restores the loop-entry lock
// state: this analysis runs one pass per loop body, which is sound exactly
// because lock state may not vary across iterations.
func (lf *lsFunc) checkBackEdge(pos token.Pos, s, entry lsState) {
	if s.dead {
		return
	}
	for _, h := range s.held {
		if !entry.holds(h) {
			lf.reportf(pos, "%s: %s is held across a loop iteration but was not held at loop entry", lf.fd.Name.Name, h)
		}
	}
	for _, h := range entry.held {
		if !s.holds(h) {
			lf.reportf(pos, "%s: %s was held at loop entry but not on the back edge", lf.fd.Name.Name, h)
		}
	}
}

func (lf *lsFunc) execAssign(st *ast.AssignStmt, s lsState) lsState {
	// Acquirer-call results: q := lockForInsert() makes q conditionally
	// hold the annotated lock.
	if len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if spec, ok := lf.acquirerSpec(call); ok {
				for _, a := range call.Args {
					s = lf.scanExpr(a, s, false)
				}
				if len(st.Lhs) == 1 {
					if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if s.cond == nil {
							s.cond = map[string]string{}
						}
						s.cond[id.Name] = resolveSpec(spec, id.Name)
						return s
					}
				}
				// Result discarded or destructured: the lock leaks.
				lf.reportf(st.Pos(), "%s: result of %s (returns with %s held) is not bound to a checkable variable", lf.fd.Name.Name, types.ExprString(call.Fun), spec)
				return s
			}
		}
	}
	for _, r := range st.Rhs {
		s = lf.scanExpr(r, s, false)
	}
	for _, l := range st.Lhs {
		if _, ok := l.(*ast.Ident); !ok {
			s = lf.scanExpr(l, s, false)
		}
	}
	return s
}

// resolveSpec turns a //powervet:locks spec into a lock id in the caller's
// frame: "result.lock" binds to "<var>.lock"; a bare name stays itself.
func resolveSpec(spec, varName string) string {
	if rest, ok := strings.CutPrefix(spec, "result."); ok {
		return varName + "." + rest
	}
	return spec
}

func (lf *lsFunc) acquirerSpec(call *ast.CallExpr) (string, bool) {
	fn := funcObj(lf.pass.Info, call)
	if fn == nil {
		return "", false
	}
	// Methods of instantiated generic types resolve to the instantiation's
	// object; the annotation was recorded on the generic origin.
	spec, ok := lf.acquirers[fn.Origin()]
	return spec, ok
}

func (lf *lsFunc) execIf(st *ast.IfStmt, s lsState, bt *branchTargets) lsState {
	if st.Init != nil {
		s = lf.execStmt(st.Init, s, bt)
	}
	then, els := lf.evalCond(st.Cond, s)
	thenOut := lf.execBlock(st.Body, then, bt)
	elsOut := els
	if st.Else != nil {
		elsOut = lf.execStmt(st.Else, els, bt)
	}
	return lf.merge(st.Pos(), thenOut, elsOut)
}

func (lf *lsFunc) execFor(st *ast.ForStmt, s lsState, bt *branchTargets) lsState {
	if st.Init != nil {
		s = lf.execStmt(st.Init, s, bt)
	}
	entry := s.clone()
	inner := &branchTargets{loopEntry: &entry, outer: bt}
	bodyIn := s
	exit := lsState{dead: true}
	if st.Cond != nil {
		bodyIn, exit = lf.evalCond(st.Cond, s)
	}
	out := lf.execBlock(st.Body, bodyIn, inner)
	if st.Post != nil && !out.dead {
		out = lf.execStmt(st.Post, out, inner)
	}
	lf.checkBackEdge(st.Pos(), out, entry)
	for _, b := range inner.breakStates {
		exit = lf.merge(st.Pos(), exit, b)
	}
	return exit
}

func (lf *lsFunc) execRange(st *ast.RangeStmt, s lsState, bt *branchTargets) lsState {
	s = lf.scanExpr(st.X, s, false)
	if t := lf.pass.Info.TypeOf(st.X); t != nil {
		if _, ok := t.Underlying().(*types.Chan); ok && len(s.held) > 0 {
			lf.reportf(st.Pos(), "%s: ranging over a channel blocks while %s is held", lf.fd.Name.Name, strings.Join(s.held, ", "))
		}
	}
	entry := s.clone()
	inner := &branchTargets{loopEntry: &entry, outer: bt}
	out := lf.execBlock(st.Body, s.clone(), inner)
	lf.checkBackEdge(st.Pos(), out, entry)
	exit := entry
	for _, b := range inner.breakStates {
		exit = lf.merge(st.Pos(), exit, b)
	}
	return exit
}

// execSwitch interprets a switch. A tagless switch evaluates its case
// conditions sequentially, so a `case !q.lock.TryLock():` clause leaves the
// lock held in every subsequent clause (testdata's stickySwitch pins that
// shape).
func (lf *lsFunc) execSwitch(st *ast.SwitchStmt, s lsState, bt *branchTargets) lsState {
	if st.Init != nil {
		s = lf.execStmt(st.Init, s, bt)
	}
	if st.Tag != nil {
		s = lf.scanExpr(st.Tag, s, false)
	}
	inner := &branchTargets{outer: bt}
	cur := s
	out := lsState{dead: true}
	var defaultClause *ast.CaseClause
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		caseIn := cur
		if st.Tag == nil {
			// Tagless: conditions run in order with short-circuit effects.
			t := lsState{dead: true}
			for _, cond := range cc.List {
				ct, cf := lf.evalCond(cond, cur)
				t = lf.merge(cc.Pos(), t, ct)
				cur = cf
			}
			caseIn = t
		} else {
			for _, cond := range cc.List {
				cur = lf.scanExpr(cond, cur, false)
			}
			caseIn = cur.clone()
		}
		cs := caseIn
		for _, inner2 := range cc.Body {
			if cs.dead {
				break
			}
			cs = lf.execStmt(inner2, cs, inner)
		}
		out = lf.merge(st.Pos(), out, cs)
	}
	if defaultClause != nil {
		cs := cur
		for _, inner2 := range defaultClause.Body {
			if cs.dead {
				break
			}
			cs = lf.execStmt(inner2, cs, inner)
		}
		out = lf.merge(st.Pos(), out, cs)
	} else {
		out = lf.merge(st.Pos(), out, cur)
	}
	for _, b := range inner.breakStates {
		out = lf.merge(st.Pos(), out, b)
	}
	return out
}

func (lf *lsFunc) execTypeSwitch(st *ast.TypeSwitchStmt, s lsState, bt *branchTargets) lsState {
	if st.Init != nil {
		s = lf.execStmt(st.Init, s, bt)
	}
	inner := &branchTargets{outer: bt}
	out := lsState{dead: true}
	sawDefault := false
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			sawDefault = true
		}
		cs := s.clone()
		for _, inner2 := range cc.Body {
			if cs.dead {
				break
			}
			cs = lf.execStmt(inner2, cs, inner)
		}
		out = lf.merge(st.Pos(), out, cs)
	}
	if !sawDefault {
		out = lf.merge(st.Pos(), out, s)
	}
	for _, b := range inner.breakStates {
		out = lf.merge(st.Pos(), out, b)
	}
	return out
}

// evalCond evaluates a boolean condition, returning the states in which it
// is true and false. TryLock calls and nil-checks of acquirer results give
// the two polarities different lock states.
func (lf *lsFunc) evalCond(e ast.Expr, s lsState) (lsState, lsState) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			t, f := lf.evalCond(e.X, s)
			return f, t
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			xt, xf := lf.evalCond(e.X, s)
			yt, yf := lf.evalCond(e.Y, xt)
			return yt, lf.merge(e.Pos(), xf, yf)
		case token.LOR:
			xt, xf := lf.evalCond(e.X, s)
			yt, yf := lf.evalCond(e.Y, xf)
			return lf.merge(e.Pos(), xt, yt), yf
		case token.EQL, token.NEQ:
			if id, ok := nilCompareVar(e); ok {
				if lockID, tracked := s.cond[id]; tracked {
					isNil := s.clone()
					delete(isNil.cond, id)
					nonNil := s.clone()
					delete(nonNil.cond, id)
					nonNil.acquire(lockID)
					if e.Op == token.EQL {
						return isNil, nonNil
					}
					return nonNil, isNil
				}
			}
		}
	case *ast.CallExpr:
		if recv, op := lockOp(lf.pass.Info, e); op == "TryLock" {
			id := types.ExprString(recv)
			if len(s.held) > 0 {
				lf.reportf(e.Pos(), "%s: TryLock of %s while %s is held (nested lock acquisition)", lf.fd.Name.Name, id, strings.Join(s.held, ", "))
			}
			t := s.clone()
			t.acquire(id)
			return t, s
		}
	}
	s = lf.scanExpr(e, s, false)
	return s, s
}

// nilCompareVar matches `v == nil` / `v != nil` / `nil == v`.
func nilCompareVar(e *ast.BinaryExpr) (string, bool) {
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && isNil(e.Y) {
		return id.Name, true
	}
	if id, ok := ast.Unparen(e.Y).(*ast.Ident); ok && isNil(e.X) {
		return id.Name, true
	}
	return "", false
}

// lockOp matches x.Lock() / x.TryLock() / x.Unlock() where x's type is
// structurally a lock (has Lock and Unlock in its method set), returning
// the receiver expression and the operation name.
func lockOp(info *types.Info, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "TryLock" && op != "Unlock" {
		return nil, ""
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return nil, ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if !isLockType(t) {
		return nil, ""
	}
	return sel.X, op
}

// blockingCallees are non-lock calls that may park or yield the goroutine.
var blockingCallees = map[string]string{
	"time.Sleep":       "time.Sleep",
	"runtime.Gosched":  "runtime.Gosched",
	"sync.WaitGroup":   "WaitGroup.Wait",
	"sync.Cond":        "Cond.Wait",
	"internal/backoff": "the backoff spinner (yields to the scheduler)",
}

// scanExpr walks an arbitrary expression for lock operations, blocking
// calls, channel receives, and uses of acquirer-result variables
// (promoting their conditional lock to held). stmtCtx marks a top-level
// expression statement, where a bare acquirer call discards its result.
func (lf *lsFunc) scanExpr(e ast.Expr, s lsState, stmtCtx bool) lsState {
	info := lf.pass.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure runs later, under its own discipline
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(s.held) > 0 {
				lf.reportf(n.Pos(), "%s: channel receive while %s is held", lf.fd.Name.Name, strings.Join(s.held, ", "))
			}
		case *ast.Ident:
			if lockID, ok := s.cond[n.Name]; ok {
				// Any use beyond a nil-check commits the caller to the lock.
				delete(s.cond, n.Name)
				s.acquire(lockID)
			}
		case *ast.CallExpr:
			if recv, op := lockOp(info, n); op != "" {
				// The receiver may use an acquirer-result variable
				// (q.lock.Unlock()): that use promotes its conditional lock
				// to held before the operation itself is interpreted.
				ast.Inspect(recv, walk)
				id := types.ExprString(recv)
				switch op {
				case "Lock":
					if len(s.held) > 0 {
						lf.reportf(n.Pos(), "%s: acquiring %s while %s is held (nested lock acquisition)", lf.fd.Name.Name, id, strings.Join(s.held, ", "))
					}
					s.acquire(id)
				case "TryLock":
					// A TryLock outside a recognized condition: its result
					// decides the lock state, which this analysis cannot
					// track here.
					lf.reportf(n.Pos(), "%s: TryLock of %s in a position where its result does not directly guard a branch", lf.fd.Name.Name, id)
				case "Unlock":
					if !s.release(id) {
						lf.reportf(n.Pos(), "%s: unlock of %s, which is not held on this path", lf.fd.Name.Name, id)
					}
				}
				for _, a := range n.Args {
					ast.Inspect(a, walk)
				}
				return false
			}
			if fn := funcObj(info, n); fn != nil {
				if spec, ok := lf.acquirers[fn.Origin()]; ok && stmtCtx {
					lf.reportf(n.Pos(), "%s: result of %s (returns with %s held) is discarded", lf.fd.Name.Name, fn.Name(), spec)
				}
				if len(s.held) > 0 {
					if why := blockingReason(fn); why != "" {
						lf.reportf(n.Pos(), "%s: call to %s blocks or yields while %s is held", lf.fd.Name.Name, why, strings.Join(s.held, ", "))
					}
				}
			}
		}
		return true
	}
	ast.Inspect(e, walk)
	return s
}

// blockingReason classifies a callee as blocking/yielding, or "".
func blockingReason(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	switch {
	case pkg == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case pkg == "runtime" && fn.Name() == "Gosched":
		return "runtime.Gosched"
	case strings.HasSuffix(pkg, "internal/backoff"):
		return "the backoff spinner (it yields to the scheduler)"
	case pkg == "sync" && fn.Name() == "Wait":
		return fmt.Sprintf("sync %s.Wait", fn.Name())
	}
	return ""
}

// checkReturn validates the lock state at an explicit return against the
// function's //powervet:locks contract (or, unannotated, against empty).
func (lf *lsFunc) checkReturn(st *ast.ReturnStmt, s lsState) {
	// Evaluate result expressions first: `return q.pop()` may use locks.
	for _, r := range st.Results {
		s = lf.scanExpr(r, s, false)
	}
	for v, id := range s.cond {
		lf.reportf(st.Pos(), "%s: %s (acquired through %s) may still be held at return", lf.fd.Name.Name, id, v)
	}
	if lf.spec == "" {
		for _, h := range s.held {
			if !s.deferred[h] {
				lf.reportf(st.Pos(), "%s: %s is still held at return", lf.fd.Name.Name, h)
			}
		}
		return
	}
	// Annotated acquirer: `return nil` must hold nothing; a non-nil return
	// must hold exactly the declared lock.
	if len(st.Results) >= 1 {
		if id, ok := ast.Unparen(st.Results[0]).(*ast.Ident); ok && id.Name == "nil" {
			for _, h := range s.held {
				if !s.deferred[h] {
					lf.reportf(st.Pos(), "%s: returns nil but still holds %s (//powervet:locks promises nil means unlocked)", lf.fd.Name.Name, h)
				}
			}
			return
		}
	}
	want := lf.spec
	if id, ok := returnVar(st); ok {
		want = resolveSpec(lf.spec, id)
	}
	if !s.holds(want) {
		lf.reportf(st.Pos(), "%s: //powervet:locks %s promises the lock is held at non-nil return, but %s is not held here", lf.fd.Name.Name, lf.spec, want)
	}
	for _, h := range s.held {
		if h != want && lastComponent(h) != lastComponent(want) && !s.deferred[h] {
			lf.reportf(st.Pos(), "%s: holds %s at return beyond the declared //powervet:locks %s", lf.fd.Name.Name, h, lf.spec)
		}
	}
}

func returnVar(st *ast.ReturnStmt) (string, bool) {
	if len(st.Results) == 0 {
		return "", false
	}
	if id, ok := ast.Unparen(st.Results[0]).(*ast.Ident); ok && id.Name != "nil" {
		return id.Name, true
	}
	return "", false
}
