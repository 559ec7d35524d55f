package stateskiplfsr

// Godoc coverage gate: every exported identifier of the public facade
// (this package) and of internal/atpg — the package downstream ATPG users
// read first — must carry a doc comment. CI runs this test explicitly
// ("Godoc coverage" step), so an undocumented export fails the build, not
// just a review.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// docCheckedPackages are the directories whose exported identifiers must
// be documented, relative to the repository root. internal/lint is held
// to the same bar as the facade: its analyzers document the invariants
// they enforce, so their godoc is part of the contract; internal/benchrun
// likewise, since its snapshot schema is what CI diffs run over run;
// internal/faultsim since the lane/arena/sweep surface is what the ATPG
// pipeline and the coverage jobs program against; internal/encoder and
// internal/stateskip since they carry the paper's compression chain that
// the facade, the daemon and the benchmark call into; internal/gf2,
// internal/lfsr and internal/phaseshifter since the encoder's tables and
// the facade's aliases are built on their types.
var docCheckedPackages = []string{".", "internal/atpg", "internal/lint", "internal/benchrun", "internal/journal", "internal/faultsim", "internal/encoder", "internal/stateskip", "internal/gf2", "internal/lfsr", "internal/phaseshifter"}

func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range docCheckedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for fname, file := range pkg.Files {
				checkFileDocs(t, fset, fname, file)
			}
		}
	}
}

// checkFileDocs walks one parsed file and reports every exported
// identifier that lacks a doc comment. For grouped const/var declarations
// a group-level comment covers all members (the standard godoc
// convention); struct fields accept either a leading doc or a trailing
// line comment.
func checkFileDocs(t *testing.T, fset *token.FileSet, fname string, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, kind, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
					if st, ok := s.Type.(*ast.StructType); ok {
						checkFieldDocs(t, fset, s.Name.Name, st.Fields)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						if d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(name.Pos(), "const/var", name.Name)
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method's receiver type is exported (or
// the decl is a plain function); methods on unexported types are not part
// of the public surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// checkFieldDocs enforces docs on the exported fields of one exported
// struct type.
func checkFieldDocs(t *testing.T, fset *token.FileSet, typeName string, fields *ast.FieldList) {
	t.Helper()
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				t.Errorf("%s: exported field %s.%s has no doc comment",
					fset.Position(name.Pos()), typeName, name.Name)
			}
		}
	}
}
