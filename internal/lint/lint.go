// Package lint implements stateskip-lint: a suite of custom static
// analyzers that machine-check the repository's determinism and
// concurrency invariants — the contracts that make RunAllCtx/EncodeCtx output
// bit-identical for any Workers count and that keep the shared
// atpg.Tables / encoder.Tables artefacts safe to share across worker
// pools.
//
// The suite deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) so that each checker is a self-contained
// unit with fixture-based tests, but it is built purely on the standard
// library: packages are type-checked from source with their dependencies
// imported from `go list -export` build-cache export data, so the module
// stays dependency-free.
//
// The four analyzers are:
//
//   - detrange: flags `range` over a map inside the deterministic
//     pipeline packages when the loop body has order-dependent effects.
//   - frozentables: flags writes to fields of types marked `lint:frozen`
//     (atpg.Tables, encoder.Tables, gf2.RowSet) outside their builders.
//   - lockcheck: flags accesses to struct fields documented as
//     "guarded by <mutex>" in functions that never acquire that mutex.
//   - nodetsource: flags wall-clock, environment and global-PRNG reads
//     (time.Now, os.Getenv, math/rand) inside the deterministic
//     pipeline packages.
//
// cmd/stateskip-lint is the multichecker driver; TestLintRepoClean keeps
// `go test ./...` failing if the repository itself ever violates an
// invariant.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check: a name, prose documentation,
// and a Run function applied to one type-checked package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and JSON output.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run analyzes one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for its diagnostics.
type Pass struct {
	// Analyzer is the checker this pass belongs to.
	Analyzer *Analyzer
	// Fset maps AST positions of Files to file/line/column.
	Fset *token.FileSet
	// Files are the parsed non-test source files of the package.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's use/def/selection/type records.
	Info *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Analyzer names the checker that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full stateskip-lint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRange, FrozenTables, LockCheck, NoDetSource}
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by position then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Pkg.Path(), err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
