package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
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

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Deps       []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// loader resolves imports three ways, in order: packages it was asked to
// type-check from source (the analysis roots, fixture siblings and any
// dependency that imports a root), then
// compiler export data located by `go list -deps -export`, then failure.
type loader struct {
	fset    *token.FileSet
	source  map[string]string // import path -> directory (type-check from source)
	exports map[string]string // import path -> export data file
	cache   map[string]*Package
	gc      types.Importer
	stack   []string // cycle detection for source packages
}

func newLoader() *loader {
	l := &loader{
		fset:    token.NewFileSet(),
		source:  make(map[string]string),
		exports: make(map[string]string),
		cache:   make(map[string]*Package),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

// Import implements types.Importer over the loader's resolution order.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.source[path]; ok {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.gc.Import(path)
}

// check parses and type-checks the source package at path (cached).
func (l *loader) check(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	for _, p := range l.stack {
		if p == path {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
	}
	l.stack = append(l.stack, path)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	dir := l.source[path]
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
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
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

// goFilesIn lists the non-test Go files of dir in sorted order, honouring
// build constraints (//go:build lines and GOOS/GOARCH filename suffixes)
// against the default build context — otherwise a tag-gated file pair like
// race_on.go/race_off.go would type-check as a redeclaration.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// goList runs `go list` with the given arguments in dir and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPkg
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadModule loads and type-checks the packages matched by patterns
// (e.g. "./...") in the module rooted at (or containing) dir. Matched
// packages are checked from source with full type information; every
// dependency the patterns did not match, in the module or outside it, is
// satisfied from compiler export data, so the analyzed module must build.
// The exception is a dependency that itself imports a matched package:
// its export data would carry a second copy of that package's types, so
// it is checked from source too (but not analyzed).
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-deps", "-export", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	var roots []string
	for _, p := range listed {
		if !p.DepOnly {
			l.source[p.ImportPath] = p.Dir
			roots = append(roots, p.ImportPath)
		}
	}
	for _, p := range listed {
		if p.DepOnly {
			if importsAny(p.Deps, l.source) {
				l.source[p.ImportPath] = p.Dir
			} else if p.Export != "" {
				l.exports[p.ImportPath] = p.Export
			}
		}
	}
	sort.Strings(roots)
	var pkgs []*Package
	for _, path := range roots {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importsAny reports whether any of deps is checked from source.
func importsAny(deps []string, source map[string]string) bool {
	for _, d := range deps {
		if _, ok := source[d]; ok {
			return true
		}
	}
	return false
}

// LoadDirs loads fixture packages for tests: each of paths names a
// directory under root holding one package whose import path is the
// directory's path relative to root (slash-separated). Fixture packages
// may import each other by those paths and anything from the standard
// library; stdlib imports are satisfied from export data. Only the named
// packages are returned, so a sibling pulled in as an import is never
// analyzed.
func LoadDirs(root string, paths ...string) ([]*Package, error) {
	l := newLoader()
	// Register every package directory under root so fixtures can import
	// siblings that are not themselves analysis roots.
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		names, err := goFilesIn(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			l.source[filepath.ToSlash(rel)] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Collect the stdlib imports reachable from the fixture sources and
	// resolve their export data in one `go list` invocation.
	std := map[string]bool{}
	for _, dir := range l.source {
		names, err := goFilesIn(dir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if _, local := l.source[path]; !local && path != "unsafe" {
					std[path] = true
				}
			}
		}
	}
	if len(std) > 0 {
		args := []string{"-deps", "-export", "--"}
		for path := range std {
			args = append(args, path)
		}
		sort.Strings(args[3:])
		listed, err := goList(root, args...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				l.exports[p.ImportPath] = p.Export
			}
		}
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.check(filepath.ToSlash(path))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
