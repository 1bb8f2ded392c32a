package lint

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

// Config controls Load.
type Config struct {
	// Dir is the module root the patterns are resolved in.
	Dir string
	// Patterns are go-list package patterns (default "./..."). Every
	// matched package is loaded with its in-package test files, and its
	// external _test package too.
	Patterns []string
}

// Load resolves the patterns with the go tool and type-checks every
// matched module package from source. Dependencies outside the module
// (the standard library) are imported from the build cache's export data
// via `go list -export`, so loading works fully offline.
func Load(cfg Config) ([]*Package, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	entries, err := goList(cfg, true)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{} // stdlib import path → export data file
	units := map[string]*listEntry{}
	for _, e := range entries {
		switch {
		case e.Standard:
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		case strings.HasSuffix(e.ImportPath, ".test"):
			// Synthesized test-main package; nothing to lint.
		default:
			path := normalizePath(e.ImportPath)
			e.Imports = normalizeImports(e.Imports)
			// Prefer the test-augmented variant of a package (its
			// GoFiles include the in-package _test.go files).
			if prev, ok := units[path]; !ok || (e.ForTest != "" && prev.ForTest == "") {
				units[path] = e
			}
		}
	}

	paths := make([]string, 0, len(units))
	for p := range units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	order, err := topoSort(paths, units)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	checker := newChecker(fset, exports)
	var pkgs []*Package
	for _, path := range order {
		e := units[path]
		var files []*ast.File
		for _, name := range e.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := checker.check(path, files)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	Export     string
	ForTest    string
	GoFiles    []string
	Imports    []string
}

// goList runs `go list -deps -export` over cfg's patterns, with -test
// when tests is set.
func goList(cfg Config, tests bool) ([]*listEntry, error) {
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Standard,Export,ForTest,GoFiles,Imports"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, cfg.Patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var entries []*listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		e := new(listEntry)
		if err := dec.Decode(e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// normalizePath strips the " [pkg.test]" variant suffix go list -test
// attaches to in-package and external test units.
func normalizePath(p string) string {
	if i := strings.IndexByte(p, ' '); i >= 0 {
		return p[:i]
	}
	return p
}

func normalizeImports(imps []string) []string {
	out := imps[:0]
	for _, im := range imps {
		out = append(out, normalizePath(im))
	}
	return out
}

// topoSort orders the module packages so every package is checked after
// its intra-module dependencies. External test packages depend on their
// base package implicitly via Imports, so no special casing is needed.
func topoSort(paths []string, units map[string]*listEntry) ([]string, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("import cycle through %s", p)
		}
		state[p] = grey
		e := units[p]
		for _, im := range e.Imports {
			if _, ok := units[im]; ok && im != p {
				if err := visit(im); err != nil {
					return err
				}
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// checker type-checks module packages in dependency order, serving
// already-checked module packages and standard-library export data to
// the importer.
type checker struct {
	fset    *token.FileSet
	checked map[string]*types.Package
	std     types.Importer
}

func newChecker(fset *token.FileSet, exports map[string]string) *checker {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &checker{
		fset:    fset,
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "gc", lookup),
	}
}

func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	return c.std.Import(path)
}

func (c *checker) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: c,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	return &Package{PkgPath: path, Fset: c.fset, Files: files, Pkg: pkg, Info: info}, nil
}
