package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"telegraphcq/internal/lint"
)

// AllocCheck returns the hot-path allocation analyzer. A function whose
// doc comment carries //tcq:hotpath is a zero-allocation root: neither
// its body nor any repository function it transitively (and statically)
// calls may contain a heap-allocation site. The summary layer records
// every candidate site — make/new, slice/map/&composite literals, map
// writes, append to a function-local slice, string concatenation and
// string<->[]byte conversions, interface boxing, escaping closure
// captures, goroutine spawns, and calls to external functions not on the
// no-alloc allowlist — and alloccheck reports each one reachable from a
// root, naming both the site and the root.
//
// Escape hatches, in order of preference: eliminate the allocation
// (reuse a field or parameter buffer), mark an audited amortization
// point //tcq:coldpath (mask and ring growth, scratch growth — its body
// and callees stop propagating to hot roots), or suppress one site with
// //lint:ignore alloccheck <reason> where the allocation is real but
// amortized, under the per-fed-tuple bounds core.TestJoinSteadyStateAllocs
// and core.TestSharedClassSteadyStateAllocs hold (free-list map writes).
func AllocCheck(sums *lint.Summaries) *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "alloccheck",
		Doc: "functions marked //tcq:hotpath, and everything they transitively " +
			"call inside the repo, must not heap-allocate; diagnostics name the " +
			"allocation site and the hot-path root it is reachable from",
	}
	reported := make(map[token.Position]bool)
	a.Run = func(pass *lint.Pass) error {
		sums.AddPackage(pass)
		lint.EachFunc(pass.Files, func(decl *ast.FuncDecl) {
			hot := lint.HasDirective(decl.Doc, lint.HotpathDirective)
			cold := lint.HasDirective(decl.Doc, lint.ColdpathDirective)
			if hot && cold {
				pass.Reportf(decl.Name.Pos(),
					"%s is marked both //tcq:hotpath and //tcq:coldpath; a function cannot be a zero-alloc root and an audited allocation point at once",
					decl.Name.Name)
				return
			}
			if !hot {
				return
			}
			f, ok := pass.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				return
			}
			sum := sums.Of(f)
			if sum == nil {
				return
			}
			root := sum.Ref
			for _, site := range sum.Allocs {
				if reported[site.Pos] {
					continue
				}
				reported[site.Pos] = true
				if site.In == root {
					pass.ReportAtf(site.Pos,
						"allocation on the hot path: %s in %s, which is marked //tcq:hotpath",
						site.What, root.Short())
				} else {
					pass.ReportAtf(site.Pos,
						"allocation on the hot path: %s in %s, reached from //tcq:hotpath root %s",
						site.What, site.In.Short(), root.Short())
				}
			}
		})
		return nil
	}
	return a
}
