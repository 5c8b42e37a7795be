// Package checks holds the repo-specific tcqlint analyzers. Each enforces
// one of the engine's load-bearing invariants that go vet cannot see:
//
//   - clockcheck: time flows only through chaos.Clock, so chaos campaigns
//     stay deterministic.
//   - lineagecheck: tuple Ready/Done bitmaps change only through the
//     tuple package's accessors, which preserve done ⊆ ready.
//   - metriccheck: metric families are tcq_-prefixed snake_case and
//     scrape-time registrations are unique.
//   - lockcheck: engine mutexes are acquired in the declared order.
//
// On top of those per-function walks sit three interprocedural analyzers
// driven by the compositional summary layer in internal/lint/interproc.go:
//
//   - ownercheck: recycler ownership — a tuple handed to Pool.Put is dead,
//     directly or through a callee: use-after-release, double release,
//     release after a callee took ownership, leaked producer results.
//   - alloccheck: //tcq:hotpath functions and everything they transitively
//     call must not heap-allocate; //tcq:coldpath marks audited
//     amortization points.
//   - chancheck: goroutine/channel lifecycle — spawned loops with no
//     shutdown path, send/close after close, stuck unbuffered senders.
//
// Analyzers are constructed fresh per run (some carry cross-package
// state); All returns the full suite wired with the repo's lock-order
// table and one shared summary table.
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"telegraphcq/internal/lint"
)

// All returns the complete tcqlint suite in reporting order. The three
// interprocedural analyzers share one summary table, so the per-function
// dataflow pass runs once per package no matter how many of them are
// enabled together.
func All() []*lint.Analyzer {
	sums := NewRepoSummaries()
	return []*lint.Analyzer{
		ClockCheck(),
		OwnerCheck(sums),
		AllocCheck(sums),
		ChanCheck(sums),
		LineageCheck(),
		MetricCheck(),
		LockCheck(RepoLockOrder),
	}
}

// modulePath is the import-path prefix of the repository's own packages.
const modulePath = "telegraphcq"

// named unwraps pointers and aliases down to a *types.Named, or nil.
func named(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := named(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// callee resolves the *types.Func a call statically invokes (function,
// method, or method expression), or nil for dynamic calls.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvNamed returns the named receiver type of method f, or nil.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return named(sig.Recv().Type())
}

// inOwnPackage reports whether the pass's package is path itself or one of
// its test packages (path_test external tests share the directory).
func inOwnPackage(pkgPath, path string) bool {
	return pkgPath == path || pkgPath == path+"_test"
}

// eachFunc invokes fn for every function or method declaration body in the
// pass's files.
func eachFunc(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// familyOf trims a metric series name to its family: the part before the
// first '{' label brace.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}
