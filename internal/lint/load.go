package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	ForTest    string
	Module     *struct{ Path, Dir string }
}

// goList shells out to `go list -export -json` for the given arguments,
// returning the decoded package stream. Export data comes from the build
// cache, so the call is hermetic: no network, no module downloads.
func goList(dir string, args ...string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Imports,ImportMap,Standard,ForTest,Module,Error"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(out)
	var pkgs []*listPackage
	for {
		var p struct {
			listPackage
			Error *struct{ Err string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pp := p.listPackage
		pkgs = append(pkgs, &pp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	return pkgs, nil
}

// exportIndex resolves import paths to compiler export data. One shared
// go/importer instance consumes the data so identical dependency paths
// yield identical *types.Package instances across every type-check in the
// run (type identity holds program-wide).
type exportIndex struct {
	files map[string]string // import path (possibly test-variant decorated) -> export file
	base  types.ImporterFrom
}

func newExportIndex(fset *token.FileSet, pkgs []*listPackage) *exportIndex {
	idx := &exportIndex{files: make(map[string]string, len(pkgs))}
	for _, p := range pkgs {
		if p.Export != "" {
			idx.files[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := idx.files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	idx.base = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return idx
}

// pkgImporter adapts the shared export index to one package's ImportMap
// (test variants remap an import to its recompiled counterpart).
type pkgImporter struct {
	idx *exportIndex
	m   map[string]string
}

func (pi pkgImporter) Import(path string) (*types.Package, error) {
	return pi.ImportFrom(path, "", 0)
}

func (pi pkgImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := pi.m[path]; ok {
		path = mapped
	}
	return pi.idx.base.ImportFrom(path, dir, 0)
}

// Package is one loaded, type-checked compilation unit.
type Package struct {
	ImportPath string
	// ForTest is the base import path when this is a test variant (the
	// base package recompiled together with its in-package _test files,
	// or the external _test package).
	ForTest string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// load type-checks one listed package from source, importing dependencies
// from export data.
func load(fset *token.FileSet, idx *exportIndex, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	importPath := lp.ImportPath
	if lp.ForTest != "" {
		// Strip the " [pkg.test]" decoration so analyzers see the real path.
		if i := strings.IndexByte(importPath, ' '); i >= 0 {
			importPath = importPath[:i]
		}
	}
	var tcErrs []error
	conf := types.Config{
		Importer: pkgImporter{idx: idx, m: lp.ImportMap},
		Error:    func(err error) { tcErrs = append(tcErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if len(tcErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v (and %d more)", lp.ImportPath, tcErrs[0], len(tcErrs)-1)
	}
	return &Package{
		ImportPath: importPath,
		ForTest:    lp.ForTest,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Run loads every package matching patterns (tests included), applies each
// analyzer, and returns the surviving diagnostics sorted by position.
// Packages outside the main module (dependencies, the standard library) are
// imported from export data and never analyzed.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunWithAudit(dir, patterns, analyzers)
	return diags, err
}

// RunWithAudit is Run plus an audit trail of every //lint:ignore directive
// encountered, with Used reporting whether the directive suppressed at
// least one finding. Directives with Used == false are stale: no analyzer
// would emit anything where they point, so they should be deleted.
//
// Packages arrive from `go list -deps` in dependency order (dependencies
// strictly before dependents), which the interprocedural analyzers rely on:
// when a package is analyzed, the summaries of everything it imports are
// already final.
func RunWithAudit(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, []IgnoreAudit, error) {
	listed, err := goList(dir, append([]string{"-deps", "-test"}, patterns...)...)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	idx := newExportIndex(fset, listed)

	var collected []Diagnostic
	collect := func(d Diagnostic) { collected = append(collected, d) }

	var ignores []*ignoreDirective
	ignoredFiles := make(map[string]bool) // filename -> ignore directives parsed
	for _, lp := range listed {
		if !analyzable(lp) {
			continue
		}
		pkg, err := load(fset, idx, lp)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			if !ignoredFiles[name] {
				ignoredFiles[name] = true
				ignores = append(ignores, parseIgnores(fset, f)...)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   collect,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}

	// A file compiled into both a base package and its test variant is
	// analyzed twice; dedup identical findings, then apply ignores.
	seen := make(map[Diagnostic]bool, len(collected))
	var out []Diagnostic
	for _, d := range collected {
		if seen[d] {
			continue
		}
		seen[d] = true
		if suppressed(d, ignores) {
			continue
		}
		out = append(out, d)
	}
	sortDiagnostics(out)

	audits := make([]IgnoreAudit, 0, len(ignores))
	for _, dir := range ignores {
		audits = append(audits, IgnoreAudit{
			Pos:  token.Position{Filename: dir.file, Line: dir.line},
			Text: dir.text,
			Used: dir.used,
		})
	}
	sort.Slice(audits, func(i, j int) bool {
		if audits[i].Pos.Filename != audits[j].Pos.Filename {
			return audits[i].Pos.Filename < audits[j].Pos.Filename
		}
		return audits[i].Pos.Line < audits[j].Pos.Line
	})
	return out, audits, nil
}

// analyzable reports whether a listed package should be source-analyzed:
// it must belong to the main module and not be a synthesized test main
// (".test" import paths, whose only file is generated into the build
// cache).
func analyzable(lp *listPackage) bool {
	if lp.Standard || lp.Module == nil || strings.HasSuffix(lp.ImportPath, ".test") {
		return false
	}
	for _, f := range lp.GoFiles {
		if filepath.IsAbs(f) {
			return false // generated into the build cache, not our source
		}
	}
	return len(lp.GoFiles) > 0
}
