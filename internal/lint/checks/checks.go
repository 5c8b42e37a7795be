// Package checks holds the repo-specific tcqlint analyzers. Each enforces
// one of the engine's invariants that go vet, tier-1 tests and the runtime
// checks (leakcheck, -race, the metrics Registry's name checks) do not see:
//
//   - clockcheck: time flows only through chaos.Clock, so chaos campaigns
//     stay deterministic.
//   - lockcheck: engine mutexes are acquired in the declared order.
//   - ownercheck: recycler ownership — a tuple handed to Pool.Put is dead,
//     directly or through a callee: use-after-release, double release,
//     release after a callee took ownership, leaked producer results.
//   - alloccheck: //tcq:hotpath functions and everything they transitively
//     call must not heap-allocate; //tcq:coldpath marks audited
//     amortization points.
//
// The last two are interprocedural, driven by the compositional summary
// layer in internal/lint/interproc.go. Analyzers are constructed fresh per
// run (some carry cross-package state); All returns the full suite wired
// with the repo's lock-order table and one shared summary table.
package checks

import (
	"go/types"

	"telegraphcq/internal/lint"
)

// All returns the complete tcqlint suite in reporting order. The two
// interprocedural analyzers share one summary table, so the per-function
// dataflow pass runs once per package no matter how many of them are
// enabled together.
func All() []*lint.Analyzer {
	sums := NewRepoSummaries()
	return []*lint.Analyzer{
		ClockCheck(),
		OwnerCheck(sums),
		AllocCheck(sums),
		LockCheck(RepoLockOrder),
	}
}

// modulePath is the import-path prefix of the repository's own packages.
const modulePath = "telegraphcq"

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := lint.DerefNamed(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// recvNamed returns the named receiver type of method f, or nil.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return lint.DerefNamed(sig.Recv().Type())
}

// inOwnPackage reports whether the pass's package is path itself or one of
// its test packages (path_test external tests share the directory).
func inOwnPackage(pkgPath, path string) bool {
	return pkgPath == path || pkgPath == path+"_test"
}
