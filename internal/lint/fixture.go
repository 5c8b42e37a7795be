package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches one expectation inside a want comment; patterns are
// double-quoted (with escapes) or backquoted (verbatim, the convenient
// form for regexps containing backslashes).
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

// RunFixture type-checks the single fixture package in dir and asserts
// that the analyzers report exactly the findings declared by `// want
// "regexp"` comments: every diagnostic must match a want on its line, and
// every want must be matched by some diagnostic. It is the stdlib
// equivalent of golang.org/x/tools/go/analysis/analysistest. Fixture files
// may import standard-library and telegraphcq packages; their export data
// is resolved through the build cache.
func RunFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	diags, fset, files, err := analyzeDir(dir, analyzers)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}

	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				i := strings.Index(text, "want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[i+len("want "):], -1) {
					unq := m[2] // backquoted: verbatim
					if m[2] == "" && m[1] != "" {
						var err error
						if unq, err = strconv.Unquote(`"` + m[1] + `"`); err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, unq, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// analyzeDir loads the fixture package rooted at dir and runs the
// analyzers over it, honoring //lint:ignore directives so fixtures can
// exercise the suppression mechanism too.
func analyzeDir(dir string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	imports := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no .go files in %s", dir)
	}

	root, err := moduleRoot(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	args := []string{"-deps"}
	for p := range imports {
		if p != "unsafe" {
			args = append(args, p)
		}
	}
	sort.Strings(args[1:])
	var listed []*listPackage
	if len(args) > 1 {
		if listed, err = goList(root, args...); err != nil {
			return nil, nil, nil, err
		}
	}
	idx := newExportIndex(fset, listed)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var tcErrs []error
	conf := types.Config{
		Importer: pkgImporter{idx: idx},
		Error:    func(err error) { tcErrs = append(tcErrs, err) },
	}
	tpkg, _ := conf.Check("fixture/"+filepath.Base(dir), fset, files, info)
	if len(tcErrs) > 0 {
		return nil, nil, nil, fmt.Errorf("type-checking fixture: %v", tcErrs[0])
	}

	var collected []Diagnostic
	var ignores []*ignoreDirective
	for _, f := range files {
		ignores = append(ignores, parseIgnores(fset, f)...)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      tpkg,
			Info:     info,
			report:   func(d Diagnostic) { collected = append(collected, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	var out []Diagnostic
	for _, d := range collected {
		if !suppressed(d, ignores) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out, fset, files, nil
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}
