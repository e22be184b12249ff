// Package analysis is a self-contained static-analysis framework plus the
// micvet analyzer suite. Each of its three analyzers has caught a real bug
// in this repository: wallclock (direct clock reads in the kernels and the
// serving layers), goroleak (a goroutine with no owner) and resclose (a
// resource that never reaches Close/Stop, or time.After in a loop).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) so analyzers read idiomatically
// and could be ported to the real driver wholesale — but it is built only
// on the standard library (go/ast, go/types, go/importer) because this
// module vendors no dependencies. The packages under analysis are parsed
// and type-checked from source with full types.Info; every other import is
// satisfied from the compiler's export data located via
// `go list -deps -export`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker. Name appears in diagnostics;
// Doc is the one-paragraph invariant statement.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass holds one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// PkgPath is the package's import path as the loader resolved it. For
	// fixture packages loaded from a testdata root this is the directory
	// name, which lets scope matching work identically in tests.
	PkgPath string
	Info    *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding, anchored to a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies each analyzer to each package and returns all
// diagnostics sorted by position then analyzer name.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				PkgPath:  pkg.Path,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			out = append(out, pass.diagnostics...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
