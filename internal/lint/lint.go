// Package lint is the minimal static-analysis framework behind cmd/tcqlint.
// It mirrors the shape of golang.org/x/tools/go/analysis — an Analyzer owns
// a Run function that inspects one type-checked package through a Pass —
// but is built purely on the standard library (go/ast, go/types, go list)
// so the tool works in hermetic builds with no module downloads. Analyzers
// written against it enforce the engine's unwritten invariants: clock
// discipline, tuple-pool lifetimes, hot-path allocation and mutex
// acquisition order.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run is invoked once per analyzed
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives
	// (e.g. "clockcheck").
	Name string
	// Doc is the one-paragraph description printed by `tcqlint -help`.
	Doc string
	// Run inspects one package and reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files. For test-variant packages this
	// includes the non-test files recompiled into the variant.
	Files []*ast.File
	// Pkg is the package being analyzed; its Path is the import path
	// without any test-variant decoration.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// report receives finished diagnostics.
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAtf records a diagnostic at an already-resolved position. The
// interprocedural analyzers need it: an allocation site inside a callee
// lives in a different file (possibly a different package) than the pass
// being analyzed, so its position was resolved when the summary was built.
func (p *Pass) ReportAtf(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// ignoreDirective marks one `//lint:ignore <analyzer...> reason` comment: it
// suppresses the named analyzers' findings in the directive's file, on its
// own line and on the next line (the statement it annotates).
type ignoreDirective struct {
	file      string
	line      int
	text      string          // the raw comment, for the -ignores audit
	analyzers map[string]bool // nil means all analyzers
	used      bool            // set when the directive suppressed a finding
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// parseIgnores extracts the ignore directives from a file, keyed by line.
func parseIgnores(fset *token.FileSet, f *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			d := &ignoreDirective{file: pos.Filename, line: pos.Line, text: c.Text}
			if m[1] != "*" {
				d.analyzers = make(map[string]bool)
				for _, name := range strings.Split(m[1], ",") {
					d.analyzers[name] = true
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// suppressed reports whether diagnostic d is covered by any directive, and
// marks the directive used so the -ignores audit can spot stale ones. A
// directive only reaches into its own file: before this check compared
// filenames, an ignore on line N of one file silenced findings on lines
// N/N+1 of every other file in the package.
func suppressed(d Diagnostic, dirs []*ignoreDirective) bool {
	hit := false
	for _, dir := range dirs {
		if d.Pos.Filename != dir.file {
			continue
		}
		if d.Pos.Line != dir.line && d.Pos.Line != dir.line+1 {
			continue
		}
		if dir.analyzers == nil || dir.analyzers[d.Analyzer] {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// IgnoreAudit describes one //lint:ignore directive found during a run and
// whether it actually suppressed anything.
type IgnoreAudit struct {
	Pos  token.Position
	Text string
	Used bool
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
