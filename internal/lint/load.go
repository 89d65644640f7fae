package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully parsed and type-checked package of the module.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects non-fatal type-check errors; analysis proceeds
	// with whatever type information survived.
	TypeErrors []error
	// Rel maps an absolute filename to its module-relative slash path.
	Rel func(string) string

	// dinfo memoizes the parsed directives and annotations; packages are
	// shared between the suppression pass and the call-graph build, so the
	// comment scan runs once.
	dinfo *dirInfo
}

// Loader discovers, parses and type-checks the packages of one module
// using only the standard library: module-internal imports are resolved
// recursively by the loader itself, everything else (the standard
// library) through go/importer's source importer.
type Loader struct {
	Root    string // module root (dir containing go.mod)
	ModPath string // module path from go.mod

	fset    *token.FileSet
	ctx     build.Context
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader reads go.mod under root and prepares a loader.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The source importer type-checks dependencies from GOROOT source via
	// build.Default; with cgo disabled every such package resolves to its
	// pure-Go variant, which is all the analyzer needs.
	build.Default.CgoEnabled = false
	ctx := build.Default
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Root:    abs,
		ModPath: modPath,
		fset:    fset,
		ctx:     ctx,
		std:     std,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (run from the module root or pass -C)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Match resolves package patterns ("./...", "./internal/...", "./cmd/gamma",
// or plain directories) to loaded packages in deterministic path order.
func (l *Loader) Match(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.Root, dir)
		}
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: not a directory", pat)
		}
		if !recursive {
			dirSet[dir] = true
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirSet[path] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the package in dir (which must lie
// inside the module). Results are memoized by import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(l.importPathFor(abs), abs)
}

// importPathFor derives the module import path for a directory.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// dirForImport inverts importPathFor for module-internal import paths.
func (l *Loader) dirForImport(path string) (string, bool) {
	if path == l.ModPath {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// load parses and type-checks one module directory.
func (l *Loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err // includes *build.NoGoError for Go-free dirs
	}
	// Only non-test files: the determinism invariants govern
	// output-producing code, and tests are the designated home of
	// wall-clock allowances.
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Rel:        l.relFunc(),
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Loaded returns every package loaded so far — matched packages plus the
// module-internal dependencies type-checking pulled in — sorted by import
// path. The call graph is built over this set so traversals cross package
// boundaries.
func (l *Loader) Loaded() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, l.pkgs[path])
	}
	return out
}

// relFunc returns the absolute-path → module-relative mapping for
// diagnostics and allowlists.
func (l *Loader) relFunc() func(string) string {
	return func(filename string) string {
		rel, err := filepath.Rel(l.Root, filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(filename)
		}
		return filepath.ToSlash(rel)
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// through the loader itself, everything else through the stdlib source
// importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if dir, ok := l.dirForImport(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: type-checking %s failed", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, 0)
}
