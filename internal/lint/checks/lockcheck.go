package checks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"telegraphcq/internal/lint"
)

// LockClass names one mutex in the acquisition-order table: the field
// Field of struct Type in package Path (e.g. core.Engine's mu). Every
// instance of that field is one class — ordering between instances of the
// same class (slice or map elements of one struct type) is out of scope.
type LockClass struct {
	Path, Type, Field string
}

func (c LockClass) String() string { return fmt.Sprintf("%s.%s.%s", c.Path, c.Type, c.Field) }

// lockMethods classifies the sync.Mutex/RWMutex methods: true acquires,
// false releases.
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true,
	"Unlock": false, "RUnlock": false,
}

// LockCheck returns the analyzer enforcing a declared mutex acquisition
// order, outermost first: acquiring a class that the table orders before a
// class currently held is an inversion that can deadlock against a
// goroutine locking in the declared order. The check is per function, in
// source order, and follows static calls to functions in the same package
// (transitively) so inversions hidden behind helpers are caught. Function
// literals are analyzed as separate roots with nothing held — goroutine
// bodies synchronize through channels, not through the spawner's locks.
func LockCheck(order []LockClass) *lint.Analyzer {
	rank := make(map[LockClass]int, len(order))
	for i, c := range order {
		rank[c] = i
	}
	a := &lint.Analyzer{
		Name: "lockcheck",
		Doc: "flags mutex acquisitions that invert the declared engine lock order " +
			"(outermost-first table over the engine/eddy/SteM/server mutexes)",
	}
	a.Run = func(pass *lint.Pass) error {
		lc := &lockChecker{pass: pass, rank: rank, order: order}
		lc.buildSummaries()
		lint.EachFunc(pass.Files, func(decl *ast.FuncDecl) {
			lc.checkUnit(decl.Body)
			for _, lit := range collectFuncLits(decl.Body) {
				lc.checkUnit(lit.Body)
			}
		})
		return nil
	}
	return a
}

type lockChecker struct {
	pass  *lint.Pass
	rank  map[LockClass]int
	order []LockClass
	// summaries maps same-package functions to the set of table classes
	// they acquire, transitively through same-package calls.
	summaries map[*types.Func]map[LockClass]bool
	// declOf maps function objects to their declarations for the
	// fixed-point propagation.
	declOf map[*types.Func]*ast.FuncDecl
}

// classOf classifies a call as (class, isAcquire) when it is a
// sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock on a struct field in the
// order table.
func (lc *lockChecker) classOf(call *ast.CallExpr) (LockClass, bool, bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockClass{}, false, false
	}
	acquire, ok := lockMethods[fun.Sel.Name]
	if !ok {
		return LockClass{}, false, false
	}
	f := lint.Callee(lc.pass.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return LockClass{}, false, false
	}
	mexpr := ast.Unparen(fun.X)
	if ix, ok := mexpr.(*ast.IndexExpr); ok { // per-shard mutex slices
		mexpr = ast.Unparen(ix.X)
	}
	fieldSel, ok := mexpr.(*ast.SelectorExpr)
	if !ok {
		return LockClass{}, false, false
	}
	tv, ok := lc.pass.Info.Types[fieldSel.X]
	if !ok {
		return LockClass{}, false, false
	}
	owner := lint.DerefNamed(tv.Type)
	if owner == nil || owner.Obj().Pkg() == nil {
		return LockClass{}, false, false
	}
	cls := LockClass{
		Path:  owner.Obj().Pkg().Path(),
		Type:  owner.Obj().Name(),
		Field: fieldSel.Sel.Name,
	}
	if _, tracked := lc.rank[cls]; !tracked {
		return LockClass{}, false, false
	}
	return cls, acquire, true
}

// buildSummaries computes, for every function declared in this package,
// the set of table classes it may acquire, propagated to a fixed point
// through same-package static calls.
func (lc *lockChecker) buildSummaries() {
	lc.summaries = make(map[*types.Func]map[LockClass]bool)
	lc.declOf = make(map[*types.Func]*ast.FuncDecl)
	calls := make(map[*types.Func]map[*types.Func]bool)
	lint.EachFunc(lc.pass.Files, func(decl *ast.FuncDecl) {
		obj, ok := lc.pass.Info.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		lc.declOf[obj] = decl
		acquires := make(map[LockClass]bool)
		callees := make(map[*types.Func]bool)
		inspectSkippingFuncLits(decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if cls, acquire, ok := lc.classOf(call); ok {
				if acquire {
					acquires[cls] = true
				}
				return
			}
			if f := lint.Callee(lc.pass.Info, call); f != nil && f.Pkg() == lc.pass.Pkg {
				callees[f] = true
			}
		})
		lc.summaries[obj] = acquires
		calls[obj] = callees
	})
	for changed := true; changed; {
		changed = false
		for obj, callees := range calls {
			for cal := range callees {
				for cls := range lc.summaries[cal] {
					if !lc.summaries[obj][cls] {
						lc.summaries[obj][cls] = true
						changed = true
					}
				}
			}
		}
	}
}

// checkUnit walks one function body in source order, tracking held table
// classes and reporting order inversions, both direct and through
// same-package calls.
func (lc *lockChecker) checkUnit(body *ast.BlockStmt) {
	held := make(map[LockClass]token.Pos)
	deferred := deferredCalls(body)
	inspectSkippingFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || deferred[call] {
			return
		}
		if cls, acquire, ok := lc.classOf(call); ok {
			if !acquire {
				delete(held, cls)
				return
			}
			for h := range held {
				if lc.rank[cls] < lc.rank[h] {
					lc.pass.Reportf(call.Pos(),
						"acquires %s while %s is held; the declared lock order requires %s before %s",
						cls, h, cls, h)
				}
			}
			held[cls] = call.Pos()
			return
		}
		f := lint.Callee(lc.pass.Info, call)
		if f == nil || f.Pkg() != lc.pass.Pkg {
			return
		}
		for cls := range lc.summaries[f] {
			for h := range held {
				if lc.rank[cls] < lc.rank[h] {
					lc.pass.Reportf(call.Pos(),
						"call to %s acquires %s while %s is held; the declared lock order requires %s before %s",
						f.Name(), cls, h, cls, h)
				}
			}
		}
	})
}

// deferredCalls collects the calls that are the subject (or a
// subexpression of the subject) of a defer or go statement: deferred
// unlocks run at return, and spawned goroutines hold nothing of the
// spawner's, so neither participates in the source-order held-set.
func deferredCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	mark := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if c, ok := n.(*ast.CallExpr); ok {
				out[c] = true
			}
			return true
		})
	}
	inspectSkippingFuncLits(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.DeferStmt:
			mark(s.Call)
		case *ast.GoStmt:
			mark(s.Call)
		}
	})
	return out
}

// inspectSkippingFuncLits walks the subtree in source order without
// descending into function literals (they are separate analysis units).
func inspectSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// collectFuncLits returns every function literal under root, including
// nested ones.
func collectFuncLits(root ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
		}
		return true
	})
	return out
}
