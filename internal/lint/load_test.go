package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

// edgeModel recognizes edge.Res.Free as a direct release of the
// receiver (slot 0), the receiver-side counterpart of the repo model's
// Pool.Put(t), which releases its argument.
func edgeModel() Model {
	return Model{
		KillSlot: func(info *types.Info, call *ast.CallExpr) (int, string, bool) {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return 0, "", false
			}
			f, _ := info.Uses[sel.Sel].(*types.Func)
			if f == nil || f.Name() != "Free" {
				return 0, "", false
			}
			return 0, "Res.Free", true
		},
		Internal: func(string) bool { return true },
	}
}

// buildEdgeSummaries type-checks the edge fixture and runs summary
// construction over it via a probe analyzer.
func buildEdgeSummaries(t *testing.T) *Summaries {
	t.Helper()
	sums := NewSummaries(edgeModel())
	probe := &Analyzer{
		Name: "probe",
		Doc:  "summary-construction probe",
		Run: func(pass *Pass) error {
			sums.AddPackage(pass)
			return nil
		},
	}
	if _, _, _, err := analyzeDir("testdata/src/edge", []*Analyzer{probe}); err != nil {
		t.Fatalf("analyzing edge fixture: %v", err)
	}
	return sums
}

func TestSummaryThroughTypeAlias(t *testing.T) {
	sums := buildEdgeSummaries(t)
	s := sums.Lookup(FuncRef{Pkg: "fixture/edge", Name: "freeAlias"})
	if s == nil {
		t.Fatal("no summary for freeAlias")
	}
	if s.Releases&1 == 0 {
		t.Errorf("freeAlias should release slot 0 through the Handle alias; Releases=%b", s.Releases)
	}
}

func TestSummaryForGenericFunction(t *testing.T) {
	sums := buildEdgeSummaries(t)
	s := sums.Lookup(FuncRef{Pkg: "fixture/edge", Name: "freeVia"})
	if s == nil {
		t.Fatal("no summary keyed on the generic origin freeVia")
	}
	if s.Releases&1 == 0 {
		t.Errorf("freeVia should release slot 0 (param r); Releases=%b", s.Releases)
	}
	// The instantiated call site must resolve to the same origin ref.
	use := sums.Lookup(FuncRef{Pkg: "fixture/edge", Name: "useGeneric"})
	if use == nil {
		t.Fatal("no summary for useGeneric")
	}
	found := false
	for _, c := range use.Calls {
		if c.Name == "freeVia" {
			found = true
		}
	}
	if !found {
		t.Errorf("useGeneric's call edge should target the generic origin; got %v", use.Calls)
	}
}

func TestSummaryForGenericReceiver(t *testing.T) {
	sums := buildEdgeSummaries(t)
	s := sums.Lookup(FuncRef{Pkg: "fixture/edge", Recv: "Box", Name: "Drop"})
	if s == nil {
		t.Fatal("no summary keyed on the generic receiver origin Box.Drop")
	}
	use := sums.Lookup(FuncRef{Pkg: "fixture/edge", Name: "useBox"})
	if use == nil {
		t.Fatal("no summary for useBox")
	}
	found := false
	for _, c := range use.Calls {
		if c.Recv == "Box" && c.Name == "Drop" {
			found = true
		}
	}
	if !found {
		t.Errorf("useBox's call edge should target Box.Drop's origin; got %v", use.Calls)
	}
}

func TestKillBitComposesThroughAlias(t *testing.T) {
	sums := buildEdgeSummaries(t)
	s := sums.Lookup(FuncRef{Pkg: "fixture/edge", Name: "chain"})
	if s == nil {
		t.Fatal("no summary for chain")
	}
	if s.Releases&1 == 0 {
		t.Errorf("chain should inherit freeAlias's release of slot 0 via the fixed point; Releases=%b", s.Releases)
	}
}

// TestRunWithAuditTestVariants drives the production loader over a real
// repo package with in-package test files: the test variant must load,
// summarize (including test-only helpers), and dedup cleanly against the
// base package rather than erroring or double-reporting.
func TestRunWithAuditTestVariants(t *testing.T) {
	sums := NewSummaries(edgeModel())
	probe := &Analyzer{
		Name: "probe",
		Doc:  "test-variant probe",
		Run: func(pass *Pass) error {
			sums.AddPackage(pass)
			return nil
		},
	}
	if _, _, err := RunWithAudit("../..", []string{"./internal/tuple/"}, []*Analyzer{probe}); err != nil {
		t.Fatalf("RunWithAudit over internal/tuple with tests: %v", err)
	}
	if sums.Lookup(FuncRef{Pkg: "telegraphcq/internal/tuple", Recv: "Pool", Name: "Put"}) == nil {
		t.Error("missing summary for Pool.Put from the base package")
	}
	if sums.Lookup(FuncRef{Pkg: "telegraphcq/internal/tuple", Name: "layoutUnderTest"}) == nil {
		t.Error("missing summary for layoutUnderTest, a helper that exists only in the test variant")
	}
}
