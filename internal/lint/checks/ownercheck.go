package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"telegraphcq/internal/lint"
)

// OwnerCheck returns the recycler-ownership analyzer. Pool.Put hands a
// tuple's memory back to the tuple recycler: the caller must hold the only
// live reference and must not touch the variable afterwards. The check is
// flow-approximate but source-order sound for the patterns the engine
// uses, and it follows the discipline across call boundaries using the
// per-function summaries:
//
//   - use-after-release: after `pool.Put(t)`, any later read of the
//     variable inside the same function is flagged until it is reassigned
//     — and `recycle(pool, t)` kills t just as surely, however many calls
//     deep the Put sits. Handing the dead value to a second releasing call
//     is the same finding (a double release). A kill whose enclosing block
//     or case/comm clause ends by transferring control (return/continue/
//     break) confines its effect to that block, so guard-and-bail
//     recycling stays clean.
//   - release-after-transfer: a call whose summary stores an argument
//     (into a field, global, container, channel, or its return value) may
//     take ownership; directly releasing the value afterwards races the
//     new owner and is flagged.
//   - ownership leaks: a freshly produced Tuple (Pool.Get, CloneUsing,
//     WidenUsing, or any function summarized as returning an owned value)
//     whose result is discarded, or bound to a variable that is never used
//     again, never returns to the recycler.
func OwnerCheck(sums *lint.Summaries) *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "ownercheck",
		Doc: "recycler-ownership discipline: use-after-release and double-release " +
			"of a *tuple.Tuple (Pool.Put), directly or through call boundaries, " +
			"release of a value whose ownership a callee took, and leaked producer " +
			"results (Pool.Get results that are discarded or never used)",
	}
	a.Run = func(pass *lint.Pass) error {
		sums.AddPackage(pass)
		lint.EachFunc(pass.Files, func(decl *ast.FuncDecl) {
			checkFuncOwner(pass, sums, decl)
		})
		return nil
	}
	return a
}

// ownerEvent is one kill or transfer observed at a call site — a direct
// release call, or a callee whose summary releases or stores the argument:
// obj changes state at pos, with effect bounded by end. by names the call
// for the diagnostic.
type ownerEvent struct {
	obj      *types.Var
	by       string
	direct   bool // Pool.Put itself, not a callee
	transfer bool // Stores (ownership taken) rather than Releases (killed)
	pos, end token.Pos
}

func checkFuncOwner(pass *lint.Pass, sums *lint.Summaries, decl *ast.FuncDecl) {
	parents := lint.BuildParents(decl.Body)
	info := pass.Info

	localVar := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return nil
		}
		return obj
	}

	// Pass 1: collect kill/transfer events and producer bindings.
	var events []ownerEvent
	type binding struct {
		obj  *types.Var
		what string
		pos  token.Pos
	}
	var produced []binding
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			// A producer call whose result vanishes is an immediate leak.
			if call, ok := n.X.(*ast.CallExpr); ok && sums.Model.Produces(info, call) {
				pass.Reportf(call.Pos(),
					"result of %s is discarded: the owned value leaks (release it, store it, or return it)",
					calleeName(info, call))
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(n.Lhs) != len(n.Rhs) {
					continue
				}
				owned := sums.Model.Produces(info, call)
				if !owned {
					if f := lint.Callee(info, call); f != nil {
						if s := sums.Of(f); s != nil && s.ReturnsOwned {
							owned = true
						}
					}
				}
				if !owned {
					continue
				}
				lhs := ast.Unparen(n.Lhs[i])
				if id, ok := lhs.(*ast.Ident); ok {
					if id.Name == "_" {
						pass.Reportf(rhs.Pos(),
							"owned result of %s is assigned to _: the value leaks (release it, store it, or return it)",
							calleeName(info, call))
						continue
					}
					if obj, ok := info.Defs[id].(*types.Var); ok {
						produced = append(produced, binding{obj: obj, what: calleeName(info, call), pos: id.Pos()})
					}
				}
			}
		case *ast.CallExpr:
			f := lint.Callee(info, n)
			if f == nil {
				return true
			}
			// A deferred or go'd call runs after (or concurrently with) the
			// rest of the function; source order says nothing, so skip it
			// (a deferred kill still counts as a use for leak purposes —
			// handled below).
			for p := parents[n]; p != nil; p = parents[p] {
				switch p.(type) {
				case *ast.DeferStmt, *ast.GoStmt:
					return true
				}
			}
			slots := lint.CallSlotExprs(info, n, f)
			if slot, verb, direct := killSlot(info, n); direct {
				if slot < len(slots) {
					if obj := localVar(slots[slot]); obj != nil {
						events = append(events, ownerEvent{obj: obj, by: verb, direct: true, pos: n.End(), end: putEffectEnd(parents, n, decl.Body)})
					}
				}
				return true
			}
			sum := sums.Of(f)
			if sum == nil {
				return true
			}
			ref, _ := lint.RefOf(f)
			for i, e := range slots {
				if i > 63 {
					break
				}
				obj := localVar(e)
				if obj == nil {
					continue
				}
				if sum.Releases&(1<<uint(i)) != 0 {
					events = append(events, ownerEvent{obj: obj, by: ref.Short(), pos: n.End(), end: putEffectEnd(parents, n, decl.Body)})
				} else if sum.Stores&(1<<uint(i)) != 0 {
					// Only an unconditional transfer (bare call statement)
					// hands ownership for sure. When the caller consumes the
					// result — `if !q.Push(t) { pool.Put(t) }` — it is
					// branching on whether the transfer happened, and the
					// release on the failure path is the correct cleanup.
					if _, bare := parents[n].(*ast.ExprStmt); bare {
						events = append(events, ownerEvent{obj: obj, by: ref.Short(), transfer: true, pos: n.End(), end: putEffectEnd(parents, n, decl.Body)})
					}
				}
			}
		}
		return true
	})

	// Reassignments clear both kill and transfer marks.
	clears := make(map[*types.Var][]token.Pos)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj, ok := info.Uses[id].(*types.Var); ok {
					clears[obj] = append(clears[obj], id.Pos())
				} else if obj, ok := info.Defs[id].(*types.Var); ok {
					clears[obj] = append(clears[obj], id.Pos())
				}
			}
		}
		return true
	})

	// Pass 2: flag uses after a kill, and direct releases after a transfer.
	if len(events) > 0 {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if slot, verb, ok := killSlot(info, call); ok {
					slots := lint.CallSlotExprs(info, call, lint.Callee(info, call))
					if slot < len(slots) {
						if obj := localVar(slots[slot]); obj != nil {
							for _, ev := range events {
								if !ev.transfer || obj != ev.obj {
									continue
								}
								p := slots[slot].Pos()
								if p <= ev.pos || p >= ev.end || isClearedBetween(clears[obj], ev.pos, p) {
									continue
								}
								pass.Reportf(p,
									"%s releases %s after %s may have taken ownership of it (release-after-transfer); the new owner releases it",
									verb, objName(obj), ev.by)
								return true
							}
						}
					}
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			for _, ev := range events {
				if ev.transfer || obj != ev.obj || id.Pos() <= ev.pos || id.Pos() >= ev.end {
					continue
				}
				if isClearedBetween(clears[obj], ev.pos, id.Pos()) || isAssignTarget(parents, id) {
					continue
				}
				where := "use-after-release across a call boundary"
				if ev.direct {
					where = "use-after-release"
				}
				pass.Reportf(id.Pos(),
					"%s is used after %s released it (%s); reassign it or drop the reference",
					id.Name, ev.by, where)
				break
			}
			return true
		})
	}

	// Pass 3: leak detection for producer bindings. A bound owned value
	// must be read somehow — released, passed on, stored, or returned —
	// before the variable is overwritten. Go's unused-variable error
	// already rules out "never mentioned again", so the provable leak is
	// reassignment before first real use; anything subtler is left to the
	// runtime pool counters.
	for _, b := range produced {
		use := firstRealUse(info, parents, decl.Body, b.obj, b.pos)
		re := firstClearAfter(clears[b.obj], b.pos)
		switch {
		case use != token.NoPos && (re == token.NoPos || use <= re):
			// Read before any overwrite: ownership accounted for.
		case re != token.NoPos:
			pass.Reportf(b.pos,
				"%s is reassigned before the owned result of %s is used: the first value leaks (release it before overwriting)",
				b.obj.Name(), b.what)
		default:
			pass.Reportf(b.pos,
				"%s binds the owned result of %s but never uses it again: the value leaks (release it, store it, or return it)",
				b.obj.Name(), b.what)
		}
	}
}

// firstRealUse returns the position of obj's first read after pos —
// assignment targets excluded, defers and goroutines included (a
// deferred Release is a legitimate use) — or NoPos.
func firstRealUse(info *types.Info, parents map[ast.Node]ast.Node, body *ast.BlockStmt, obj *types.Var, pos token.Pos) token.Pos {
	first := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Pos() <= pos || info.Uses[id] != obj || isAssignTarget(parents, id) {
			return true
		}
		if first == token.NoPos || id.Pos() < first {
			first = id.Pos()
		}
		return true
	})
	return first
}

// firstClearAfter returns the earliest reassignment position strictly
// after pos, or NoPos.
func firstClearAfter(clears []token.Pos, pos token.Pos) token.Pos {
	first := token.NoPos
	for _, p := range clears {
		if p > pos && (first == token.NoPos || p < first) {
			first = p
		}
	}
	return first
}

func objName(obj *types.Var) string { return obj.Name() }

// calleeName renders a call target for diagnostics (best effort).
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if f := lint.Callee(info, call); f != nil {
		if recv := recvNamed(f); recv != nil {
			return recv.Obj().Name() + "." + f.Name()
		}
		return f.Name()
	}
	return "the call"
}

// putEffectEnd bounds how far a kill's dead-mark extends: climbing the
// enclosing blocks, a block whose final statement transfers control
// (return/branch/panic) confines the effect to that block; otherwise the
// effect reaches the end of the function body.
func putEffectEnd(parents map[ast.Node]ast.Node, call *ast.CallExpr, body *ast.BlockStmt) token.Pos {
	for n := ast.Node(call); n != nil; n = parents[n] {
		var list []ast.Stmt
		var end token.Pos
		switch blk := n.(type) {
		case *ast.BlockStmt:
			if blk == body {
				return body.End()
			}
			list, end = blk.List, blk.End()
		case *ast.CaseClause:
			// A switch case that ends by returning confines the effect
			// the same way a terminated block does: the other cases run
			// only on executions that never reached this kill point.
			list, end = blk.Body, blk.End()
		case *ast.CommClause:
			list, end = blk.Body, blk.End()
		default:
			continue
		}
		if len(list) > 0 && isTerminator(list[len(list)-1]) {
			return end
		}
	}
	return body.End()
}

func isTerminator(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

func isClearedBetween(clears []token.Pos, from, to token.Pos) bool {
	for _, c := range clears {
		if c > from && c < to {
			return true
		}
	}
	return false
}

// isAssignTarget reports whether id is the left-hand side of an
// assignment (being overwritten, not read).
func isAssignTarget(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	as, ok := parents[id].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == ast.Expr(id) {
			return true
		}
	}
	return false
}
