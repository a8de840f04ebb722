package simlint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Unit is one parsed and type-checked package ready for analysis.
type Unit struct {
	// Path is the unit's import path. Test fixtures loaded with LoadDirAs
	// get a synthetic path whose final element still selects the analyzer
	// scope (e.g. "walltime/switchnet").
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	baseDir string // diagnostics are reported relative to this directory
}

// RelFile rewrites an absolute filename relative to the module root so
// diagnostics are stable across machines.
func (u *Unit) RelFile(filename string) string {
	if u.baseDir == "" {
		return filename
	}
	rel, err := filepath.Rel(u.baseDir, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// A Loader parses and type-checks packages of a single module with zero
// external tooling, so it works fully offline: module-local imports are
// resolved from the module tree itself and standard-library imports are
// type-checked from GOROOT source (importer.ForCompiler "source"). The
// repository has no third-party dependencies, so the two sources cover
// every import. Test files are analyzed too: in-package test files are
// type-checked together with the package, and an external foo_test
// package becomes a unit of its own.
//
// A Loader is not safe for concurrent use.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset      *token.FileSet
	std       types.Importer
	deps      map[string]*types.Package
	loading   map[string]bool
	synthetic map[string]string // synthetic import path -> directory
}

// AddSynthetic registers a directory under a synthetic import path so
// fixture packages can import each other (multi-package fixtures for
// cross-package fact propagation). Paths registered here resolve before
// module and stdlib paths.
func (ld *Loader) AddSynthetic(importPath, dir string) {
	if ld.synthetic == nil {
		ld.synthetic = make(map[string]string)
	}
	ld.synthetic[importPath] = dir
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader finds the enclosing module of start (walking up to go.mod) and
// returns a loader for it.
func NewLoader(start string) (*Loader, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			m := moduleLineRE.FindSubmatch(data)
			if m == nil {
				return nil, fmt.Errorf("simlint: no module line in %s/go.mod", dir)
			}
			fset := token.NewFileSet()
			return &Loader{
				ModuleDir:  dir,
				ModulePath: string(m[1]),
				fset:       fset,
				std:        importer.ForCompiler(fset, "source", nil),
				deps:       make(map[string]*types.Package),
				loading:    make(map[string]bool),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("simlint: no go.mod above %s", start)
		}
		dir = parent
	}
}

// Expand resolves package patterns ("./...", "dir", "dir/...") to the list
// of directories containing Go files. testdata, vendor, hidden and
// underscore-prefixed directories are skipped, as the go tool does.
func Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if seen[abs] {
			return nil
		}
		seen[abs] = true
		if hasGoFiles(abs) {
			dirs = append(dirs, abs)
		}
		return nil
	}
	for _, pat := range patterns {
		if !strings.HasSuffix(pat, "...") {
			if fi, err := os.Stat(pat); err != nil {
				return nil, fmt.Errorf("%s: %w", pat, err)
			} else if !fi.IsDir() {
				return nil, fmt.Errorf("%s: not a directory", pat)
			}
			if err := add(pat); err != nil {
				return nil, err
			}
			continue
		}
		root := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), string(filepath.Separator))
		root = strings.TrimSuffix(root, "/")
		if root == "" || root == "." {
			root = "."
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("patterns %v matched no Go packages", patterns)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir, which must be inside the module. It
// returns one unit for the package with its in-package test files and,
// when present, a second unit for the external _test package.
func (ld *Loader) LoadDir(dir string) ([]*Unit, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(ld.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("simlint: %s is outside module %s", dir, ld.ModuleDir)
	}
	path := ld.ModulePath
	if rel != "." {
		path = ld.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return ld.loadUnits(abs, path)
}

// LoadDirAs loads the package in dir under a synthetic import path. Used
// for analyzer test fixtures under testdata, whose path's final element
// selects the analyzer scope.
func (ld *Loader) LoadDirAs(dir, asPath string) ([]*Unit, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return ld.loadUnits(abs, asPath)
}

func (ld *Loader) loadUnits(dir, path string) ([]*Unit, error) {
	nonTest, inTest, extTest, err := ld.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	if files := append(nonTest, inTest...); len(files) > 0 {
		u, err := ld.check(dir, path, files)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(extTest) > 0 {
		xld := ld
		if len(inTest) > 0 && len(units) > 0 {
			xld = ld.testVariant(path, units[0].Pkg)
		}
		u, err := xld.check(dir, path, extTest)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// testVariant returns a loader that resolves path to pkg, the package
// checked together with its in-package test files, and re-checks against
// it every module package that imports path. This is how the go tool
// builds an external test package: it sees the hooks an export_test.go
// adds, and so do the packages it imports that import the package under
// test; the others are shared.
func (ld *Loader) testVariant(path string, pkg *types.Package) *Loader {
	v := *ld
	v.deps = map[string]*types.Package{}
	for p, dep := range ld.deps {
		if !imports(dep, path) {
			v.deps[p] = dep
		}
	}
	v.deps[path] = pkg
	v.loading = make(map[string]bool)
	return &v
}

// imports reports whether pkg imports path, directly or indirectly.
func imports(pkg *types.Package, path string) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || imports(imp, path) {
			return true
		}
	}
	return false
}

// parseDir parses every buildable Go file in dir and splits the files into
// package files, in-package test files, and external-test-package files.
func (ld *Loader) parseDir(dir string) (nonTest, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	type parsed struct {
		name string
		file *ast.File
		test bool
	}
	var all []parsed
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		all = append(all, parsed{name, f, strings.HasSuffix(name, "_test.go")})
	}
	basePkg := ""
	for _, p := range all {
		if !p.test {
			pkg := p.file.Name.Name
			if basePkg == "" {
				basePkg = pkg
			} else if pkg != basePkg {
				return nil, nil, nil, fmt.Errorf("simlint: %s: multiple packages %s and %s", dir, basePkg, pkg)
			}
		}
	}
	if basePkg == "" && len(all) > 0 {
		// Test-only directory (e.g. a module-root bench_test.go): the
		// in-package name is whatever the test files declare.
		basePkg = strings.TrimSuffix(all[0].file.Name.Name, "_test")
	}
	for _, p := range all {
		switch {
		case !p.test:
			nonTest = append(nonTest, p.file)
		case p.file.Name.Name == basePkg:
			inTest = append(inTest, p.file)
		case p.file.Name.Name == basePkg+"_test":
			extTest = append(extTest, p.file)
		default:
			return nil, nil, nil, fmt.Errorf("simlint: %s: test file %s in package %s, want %s or %s_test",
				dir, p.name, p.file.Name.Name, basePkg, basePkg)
		}
	}
	return nonTest, inTest, extTest, nil
}

// check type-checks one unit with full syntax and type information.
func (ld *Loader) check(dir, path string, files []*ast.File) (*Unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, ld.fset, files, info)
	if len(errs) > 0 {
		if len(errs) > 10 {
			errs = append(errs[:10], fmt.Errorf("... and %d more", len(errs)-10))
		}
		return nil, fmt.Errorf("simlint: type-checking %s: %w", path, errors.Join(errs...))
	}
	return &Unit{
		Path:    path,
		Dir:     dir,
		Fset:    ld.fset,
		Files:   files,
		Pkg:     pkg,
		Info:    info,
		baseDir: ld.ModuleDir,
	}, nil
}

// Import implements types.Importer: module-local packages come from the
// module tree (signatures only — bodies are analyzed when the package is a
// target), everything else from GOROOT source.
func (ld *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := ld.synthetic[importPath]; ok {
		return ld.importPkgDir(importPath, dir)
	}
	if importPath == ld.ModulePath || strings.HasPrefix(importPath, ld.ModulePath+"/") {
		return ld.importModulePkg(importPath)
	}
	return ld.std.Import(importPath)
}

func (ld *Loader) importModulePkg(importPath string) (*types.Package, error) {
	dir := filepath.Join(ld.ModuleDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(importPath, ld.ModulePath), "/")))
	return ld.importPkgDir(importPath, dir)
}

// importPkgDir type-checks the package in dir (signatures only) under
// importPath, for use as a dependency of an analysis target.
func (ld *Loader) importPkgDir(importPath, dir string) (*types.Package, error) {
	if pkg, ok := ld.deps[importPath]; ok {
		return pkg, nil
	}
	if ld.loading[importPath] {
		return nil, fmt.Errorf("simlint: import cycle through %s", importPath)
	}
	ld.loading[importPath] = true
	defer delete(ld.loading, importPath)

	nonTest, _, _, err := ld.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(nonTest) == 0 {
		return nil, fmt.Errorf("simlint: no Go files in %s", dir)
	}
	var errs []error
	conf := types.Config{
		Importer:         ld,
		IgnoreFuncBodies: true,
		Error:            func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(importPath, ld.fset, nonTest, nil)
	if len(errs) > 0 {
		return nil, fmt.Errorf("simlint: type-checking dependency %s: %w", importPath, errs[0])
	}
	ld.deps[importPath] = pkg
	return pkg, nil
}
