// Package program is the fdplint driver: it loads an entire module in
// dependency order and runs every analyzer over every package with one
// shared in-memory fact store, through which cross-package facts
// (classified movers, atomically-accessed fields, transitive lock
// acquisitions) flow.
//
// Loading leans on the standard build machinery rather than reimplementing
// it: `go list -deps -export -json <patterns>` yields every package in
// dependency-first order together with the compiler export data of the
// already-built dependencies. Module packages are typechecked from source
// (analyzers need their syntax); standard-library dependencies are imported
// from export data only, so a whole-module run typechecks exactly the
// module's own files.
package program

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

	"fdp/internal/analysis"
)

// Options configures a whole-program run.
type Options struct {
	// Dir is the module root to analyze; "" means the current directory.
	Dir string
	// Patterns are go-list package patterns; empty means ["./..."].
	Patterns []string
}

// Result carries the run's diagnostics with the FileSet that positions
// them.
type Result struct {
	Fset  *token.FileSet
	Diags []analysis.Diagnostic
}

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	Export     string
	Imports    []string
	ImportMap  map[string]string
}

// Run analyzes the module at opts.Dir with the given analyzers.
func Run(opts Options, analyzers []*analysis.Analyzer) (*Result, error) {
	pkgs, err := list(opts)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	info := analysis.NewInfo()
	facts := analysis.NewFactStore()

	// srcPkgs holds module packages typechecked from source; everything
	// else resolves through the gc export data `go list -export` produced.
	srcPkgs := make(map[string]*types.Package)
	exportFile := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
	}
	gcImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var imp importerFunc = func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if pkg, ok := srcPkgs[path]; ok {
			return pkg, nil
		}
		return gcImporter.Import(path)
	}

	res := &Result{Fset: fset}
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue // imported on demand from export data
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		tc := &types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				return imp(path)
			}),
			Sizes: types.SizesFor("gc", build.Default.GOARCH),
		}
		pkg, err := tc.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typechecking %s: %w", p.ImportPath, err)
		}
		srcPkgs[p.ImportPath] = pkg
		diags, err := analysis.RunPackageFacts(fset, files, pkg, info, analyzers, facts)
		if err != nil {
			return nil, fmt.Errorf("analyzing %s: %w", p.ImportPath, err)
		}
		res.Diags = append(res.Diags, diags...)
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		pi, pj := fset.Position(res.Diags[i].Pos), fset.Position(res.Diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return res.Diags[i].Message < res.Diags[j].Message
	})
	return res, nil
}

// list shells out to `go list -deps -export -json`, which visits packages
// in depth-first post-order: every package appears after all its
// dependencies, exactly the order facts need.
func list(opts Options) ([]*listPkg, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Name,GoFiles,Standard,Export,Imports,ImportMap"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = opts.Dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, errb.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&out)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
