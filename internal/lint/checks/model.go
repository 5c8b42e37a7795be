package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"telegraphcq/internal/lint"
)

// model.go binds the generic interprocedural summary layer (internal/lint
// interproc.go) to this repository's ownership vocabulary: which calls
// kill an owned value, which produce one, which packages are "ours", and
// which external calls are trusted not to allocate. The two summary-
// driven analyzers (ownercheck, alloccheck) share one lint.Summaries
// built over this model so the per-function analysis runs once
// regardless of how many analyzers consume it.

const tuplePath = modulePath + "/internal/tuple"

// NewRepoSummaries returns a fresh summary table over the repository's
// ownership model. All() shares one across the two interprocedural
// analyzers; fixture tests build one per analyzer under test.
func NewRepoSummaries() *lint.Summaries {
	return lint.NewSummaries(repoModel())
}

func repoModel() lint.Model {
	return lint.Model{
		KillSlot: killSlot,
		Produces: produces,
		Internal: func(pkgPath string) bool {
			return pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/")
		},
		NoAlloc: noAlloc,
	}
}

// killSlot classifies the engine's one direct release call. Slots number
// the receiver first: Pool.Put(t) kills slot 1 (the argument).
func killSlot(info *types.Info, call *ast.CallExpr) (int, string, bool) {
	f := lint.Callee(info, call)
	if f == nil {
		return 0, "", false
	}
	if recv := recvNamed(f); recv != nil && f.Name() == "Put" &&
		isNamedType(recv, tuplePath, "Pool") && len(call.Args) == 1 {
		return 1, "Pool.Put", true
	}
	return 0, "", false
}

// produces reports whether a call returns a freshly owned recycler value:
// the caller is responsible for releasing, transferring, or returning it.
func produces(info *types.Info, call *ast.CallExpr) bool {
	f := lint.Callee(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != tuplePath {
		return false
	}
	recv := recvNamed(f)
	if recv == nil {
		return false
	}
	switch {
	case f.Name() == "Get" && isNamedType(recv, tuplePath, "Pool"):
		return true
	case f.Name() == "CloneUsing" && isNamedType(recv, tuplePath, "Tuple"):
		return true
	case f.Name() == "WidenUsing" && isNamedType(recv, tuplePath, "Layout"):
		return true
	}
	return false
}

// noAllocPkgs are external packages whose (static, non-variadic-boxing)
// calls never heap-allocate on the paths the engine uses. The list is
// deliberately small and empirical: anything not here counts as an
// allocation site when reached from a //tcq:hotpath root.
var noAllocPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
}

// noAllocFuncs allowlists individual external functions from packages
// that otherwise allocate.
var noAllocFuncs = map[string]bool{
	"sort.Search":             true,
	"encoding/binary.Varint":  true, // decode from an existing buffer
	"encoding/binary.Uvarint": true,
	"strings.Compare":         true,
	"strings.EqualFold":       true,
	"bytes.Compare":           true,
	"bytes.Equal":             true,
	"time.Nanoseconds":        true, // Duration.Nanoseconds: int64 conversion
	"time.Seconds":            true, // Duration.Seconds: float64 conversion
	"time.Sub":                true, // Time.Sub: arithmetic on the wall/mono words
	"math/rand.Float64":       true, // draws from an existing source
	"math/rand.Int63n":        true,
	"math/rand.Int63":         true,
	"math/rand.Uint64":        true,
}

func noAlloc(f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	if noAllocPkgs[f.Pkg().Path()] {
		return true
	}
	return noAllocFuncs[f.Pkg().Path()+"."+f.Name()]
}
