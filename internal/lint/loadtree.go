package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LoadTree type-checks every package under srcRoot, an analysistest-style
// testdata tree where the directory path below srcRoot is the package's
// import path (testdata/src/vvd/internal/dsp → "vvd/internal/dsp").
// Imports between testdata packages resolve inside the tree; anything
// else must be standard library and is imported from build-cache export
// data, exactly like Load.
func LoadTree(srcRoot string) ([]*Package, error) {
	fileSets := map[string][]string{} // import path → sorted file paths
	err := filepath.WalkDir(srcRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(srcRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := filepath.ToSlash(rel)
		fileSets[ip] = append(fileSets[ip], p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	parsed := map[string][]*ast.File{}
	units := map[string]*listEntry{}
	stdNeeded := map[string]bool{}
	paths := make([]string, 0, len(fileSets))
	for ip, files := range fileSets {
		sort.Strings(files)
		var asts []*ast.File
		var imports []string
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			asts = append(asts, af)
			for _, imp := range af.Imports {
				target, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return nil, err
				}
				imports = append(imports, target)
			}
		}
		parsed[ip] = asts
		units[ip] = &listEntry{ImportPath: ip, Imports: imports}
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		for _, im := range units[ip].Imports {
			if _, inTree := units[im]; !inTree {
				stdNeeded[im] = true
			}
		}
	}

	exports, err := stdExports(stdNeeded)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(paths, units)
	if err != nil {
		return nil, err
	}
	checker := newChecker(fset, exports)
	var pkgs []*Package
	for _, ip := range order {
		pkg, err := checker.check(ip, parsed[ip])
		if err != nil {
			return nil, fmt.Errorf("type-checking testdata package %s: %w", ip, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// stdExports resolves export-data files for the given standard-library
// packages and their dependency closure.
func stdExports(needed map[string]bool) (map[string]string, error) {
	if len(needed) == 0 {
		return nil, nil
	}
	patterns := make([]string, 0, len(needed))
	for p := range needed {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	entries, err := goList(Config{Patterns: patterns}, false)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}
