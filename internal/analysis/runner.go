package analysis

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"strings"
)

// Expand resolves gridlint command-line patterns to package directories.
// A trailing "/..." walks recursively; anything else names one directory.
// testdata, hidden, and underscore-prefixed directories are skipped, as
// are directories with no buildable non-test Go files — the same shape
// the go tool gives "./...".
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if abs, err := filepath.Abs(dir); err == nil && !seen[abs] {
			seen[abs] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		root, rec := strings.CutSuffix(pat, "/...")
		if root == "" || root == "." {
			root = "."
		}
		if !rec {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if l.hasBuildableGo(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: expanding %q: %w", pat, err)
		}
	}
	return out, nil
}

// hasBuildableGo reports whether dir contains at least one non-test Go
// file that survives build-constraint filtering.
func (l *Loader) hasBuildableGo(dir string) bool {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if ok := errorsAs(err, &noGo); ok {
			return false
		}
		return false
	}
	return len(bp.GoFiles) > 0
}

// errorsAs is a tiny local stand-in to avoid importing errors just for
// one call site with a concrete target type.
func errorsAs[T error](err error, target *T) bool {
	for err != nil {
		if t, ok := err.(T); ok {
			*target = t
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// RunPackage runs the analyzers over one loaded package and applies
// //gridlint:ignore suppression, returning only the unsuppressed
// findings. module is the module path used to classify imports as
// repo-internal (empty disables that check).
func RunPackage(analyzers []*Analyzer, pkg *Package, module string) ([]Diagnostic, error) {
	diags, err := RunPackageAll(analyzers, pkg, module)
	if err != nil {
		return nil, err
	}
	return unsuppressed(diags), nil
}

// RunPackageAll is RunPackage keeping suppressed findings in the result
// (marked, with the suppressing directive's reason) — the source of the
// machine-readable report. When the ignoreaudit analyzer is among the
// selected analyzers it additionally audits the suppression ledger for
// staleness: a directive that suppressed nothing, naming an analyzer
// that actually ran (or "all"), is itself a finding. Directives naming
// ignoreaudit are exempt — they exist to suppress audit findings, which
// are produced after the match bookkeeping.
func RunPackageAll(analyzers []*Analyzer, pkg *Package, module string) ([]Diagnostic, error) {
	var diags []Diagnostic
	ignores := map[string][]*ignoreDirective{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		ignores[name] = parseIgnores(pkg.Fset, f, &diags)
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			Pkg:       pkg.Pkg,
			Info:      pkg.Info,
			Module:    module,
			diags:     &diags,
		}
		if pkg.loader != nil {
			pass.PkgAST = pkg.loader.PkgAST
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	markSuppressed(diags, ignores)
	if ran[IgnoreAudit.Name] {
		stale := len(diags)
		for _, dirs := range ignores {
			for _, dir := range dirs {
				if dir.matched || dir.analyzer == IgnoreAudit.Name {
					continue
				}
				if dir.analyzer != "all" && !ran[dir.analyzer] {
					continue // audited by ignoreaudit.Run if unknown; not stale if simply deselected
				}
				diags = append(diags, Diagnostic{
					Pos:      dir.pos,
					Analyzer: IgnoreAudit.Name,
					Severity: IgnoreAudit.severity(),
					Message:  fmt.Sprintf("stale ignore directive: no %s finding here to suppress on the current tree", dir.analyzer),
				})
			}
		}
		markSuppressed(diags[stale:], ignores)
	}
	sortDiagnostics(diags)
	return diags, nil
}
