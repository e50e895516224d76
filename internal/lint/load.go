package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, the unit an analyzer
// runs over. Only non-test files are loaded: the invariants guard
// production code, and several rules (wallclock, detrand) explicitly
// exempt tests.
type Package struct {
	Path  string // import path ("riskbench/internal/farm")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader // the module the package was loaded from
}

// Loader parses and type-checks packages of the enclosing module. It
// resolves intra-module imports from the module tree itself and
// delegates everything else (the standard library) to the compiler
// source importer, so the suite needs no pre-built export data and no
// third-party loader.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path, fully loaded
	loading map[string]bool     // cycle guard
	index   *useIndex           // what the module's non-test files use, built on demand
}

// NewLoader roots a loader at dir, which must contain go.mod.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: loader needs a module root: %w", err)
	}
	path := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			path = strings.TrimSpace(rest)
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: path,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// inModule reports whether path belongs to the loader's module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// dirFor maps an intra-module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
}

// Import implements types.Importer, routing module-internal paths
// through the loader and the rest to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	pkg, err := l.load(path, l.dirFor(path))
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// LoadDir loads the package in dir under an explicit import path,
// used by the golden-file test harness for testdata packages that live
// outside the module's import space.
//
//lint:allow testonly the golden-file harness loads its fixtures through it
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.load(asPath, dir)
}

// Load loads one module package by import path.
func (l *Loader) Load(path string) (*Package, error) {
	if !l.inModule(path) {
		return nil, fmt.Errorf("lint: %s is not in module %s", path, l.ModulePath)
	}
	return l.load(path, l.dirFor(path))
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.pkgs[path] = pkg
	return pkg, nil
}

// goSources lists the non-test Go files of dir, sorted, so package
// loads and struct hashes are deterministic.
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ModulePackages walks the module tree and returns the import paths of
// every buildable package, sorted. testdata, hidden and underscore
// directories are skipped, as go tooling does.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		srcs, err := goSources(p)
		if err != nil || len(srcs) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
