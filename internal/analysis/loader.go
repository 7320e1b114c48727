package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Dir   string
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	// TestFiles are the package's _test.go files (in-package and
	// external), parsed with comments but not type-checked — enough for
	// analyzers that cross-check test-side pins (allocfree).
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info

	loader *Loader // for cross-package AST lookups (Pass.PkgAST)
}

// Loader parses and type-checks packages from source with no external
// dependencies: module-internal imports resolve below the module root,
// everything else resolves into GOROOT/src. Cgo is disabled so the
// pure-Go variants of stdlib packages are selected, which keeps the
// whole dependency closure type-checkable from source.
type Loader struct {
	Fset    *token.FileSet
	ctx     build.Context
	modPath string
	modRoot string
	pkgs    map[string]*types.Package // canonical import path -> checked package
	loading map[string]bool           // import cycle guard
	asts    map[string][]*ast.File    // module-internal path -> comment-bearing ASTs
}

// NewLoader creates a loader rooted at the module directory containing
// go.mod. The module path is read from go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		ctx:     ctx,
		modPath: modPath,
		modRoot: abs,
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
		asts:    map[string][]*ast.File{},
	}, nil
}

// ModuleRoot returns the absolute module root directory.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadDir parses and type-checks the (non-test) package rooted at dir,
// with comments attached so ignore directives survive. dir may be
// relative to the working directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctx.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	files, err := l.parseFiles(abs, bp.GoFiles, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	testNames := append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...)
	testFiles, err := l.parseFiles(abs, testNames, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(abs, bp)
	info := newInfo()
	pkg, err := l.check(path, abs, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Dir: abs, Path: path, Fset: l.Fset, Files: files, TestFiles: testFiles, Pkg: pkg, Info: info, loader: l}, nil
}

// PkgAST returns the parsed, comment-bearing (non-test) files of a
// module-internal package by import path. Results are cached; any
// failure (not module-internal, unparseable) returns nil — annotation
// lookups degrade to "no annotations" rather than aborting analysis.
func (l *Loader) PkgAST(path string) []*ast.File {
	if files, ok := l.asts[path]; ok {
		return files
	}
	var files []*ast.File
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		if bp, err := l.ctx.ImportDir(dir, 0); err == nil {
			if parsed, err := l.parseFiles(dir, bp.GoFiles, parser.ParseComments); err == nil {
				files = parsed
			}
		}
	}
	l.asts[path] = files
	return files
}

// importPathFor derives the canonical import path of a directory: its
// module-relative path when below the module root, otherwise whatever
// go/build inferred.
func (l *Loader) importPathFor(abs string, bp *build.Package) string {
	if rel, err := filepath.Rel(l.modRoot, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return bp.ImportPath
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func (l *Loader) parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks the given files as package path, resolving imports
// through the loader itself.
func (l *Loader) check(path, dir string, files []*ast.File, info *types.Info) (*types.Package, error) {
	cfg := types.Config{
		Importer: &importerFrom{l: l, dir: dir},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return pkg, nil
}

// importerFrom adapts the loader to types.ImporterFrom, carrying the
// importing package's directory for vendor resolution inside GOROOT.
type importerFrom struct {
	l   *Loader
	dir string
}

func (im *importerFrom) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, im.dir, 0)
}

func (im *importerFrom) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return im.l.importPkg(path, srcDir)
}

// importPkg resolves and type-checks the package for an import path,
// caching by canonical path so shared dependencies check once.
func (l *Loader) importPkg(path, srcDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var dir, canon string
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir = filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		canon = path
	} else {
		bp, err := l.ctx.Import(path, srcDir, 0)
		if err != nil {
			return nil, fmt.Errorf("analysis: resolving import %q: %w", path, err)
		}
		dir, canon = bp.Dir, bp.ImportPath
	}
	if pkg, ok := l.pkgs[canon]; ok {
		return pkg, nil
	}
	if l.loading[canon] {
		return nil, fmt.Errorf("analysis: import cycle through %q", canon)
	}
	l.loading[canon] = true
	defer delete(l.loading, canon)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	files, err := l.parseFiles(dir, bp.GoFiles, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(canon, dir, files, newInfo())
	if err != nil {
		return nil, err
	}
	l.pkgs[canon] = pkg
	return pkg, nil
}
