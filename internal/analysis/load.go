package analysis

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
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// local holds the import path of every package the load listed that
	// is not in the standard library: this module's packages, the ones
	// poolescape treats as pool APIs.
	local map[string]bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists patterns (plus their dependency closure) in dir via
// `go list -export -deps -json`, then parses and type-checks every non-dep
// target package against the dependencies' gc export data. It is the one
// front door: cmd/alewife-lint and the analyzer tests both load through it.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exportFile := make(map[string]string)
	local := make(map[string]bool)
	var targets []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exportFile[lp.ImportPath] = lp.Export
		}
		if lp.Standard {
			continue
		}
		local[lp.ImportPath] = true
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exportFile)
	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := typeCheck(fset, lp.ImportPath, lp.Dir, lp.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		pkg.local = local
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses files (relative to dir) and type-checks them as one
// package.
func typeCheck(fset *token.FileSet, path, dir string, files []string, imp types.Importer) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("%s: typecheck: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: asts, Types: tpkg, Info: info}, nil
}

// exportImporter loads dependency type information from gc export data —
// the files `go list -export` names. types.Package values are cached so
// diamond imports share one instance.
type exportImporter struct {
	gc    types.ImporterFrom
	cache map[string]*types.Package
}

func newExportImporter(fset *token.FileSet, exportFile map[string]string) *exportImporter {
	ei := &exportImporter{cache: make(map[string]*types.Package)}
	ei.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ei.cache[path]; ok {
		return p, nil
	}
	p, err := ei.gc.ImportFrom(path, "", 0)
	if err != nil {
		return nil, err
	}
	ei.cache[path] = p
	return p, nil
}
