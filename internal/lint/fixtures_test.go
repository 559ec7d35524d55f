package lint

// Fixture-based analyzer tests, in the style of
// golang.org/x/tools/go/analysis/analysistest: each
// testdata/src/<fixture> package seeds violations annotated with
// `// want `+"`regex`"+` comments on the offending lines; the harness
// runs one analyzer over the fixture and requires the diagnostics and
// annotations to match exactly (no missing, no unexpected findings).

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation regex from a `// want ...` comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// runFixture loads testdata/src/<fixture> under importPath, runs a and
// compares findings against the fixture's want annotations.
func runFixture(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, importPath)
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		file string
		line int
	}
	wants := make(map[key]*regexp.Regexp)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[key{pos.Filename, pos.Line}] = regexp.MustCompile(m[1])
			}
		}
	}
	matched := make(map[key]bool)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", k.file, k.line, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q", k.file, k.line, d.Message, re)
			continue
		}
		matched[k] = true
	}
	for k := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, wants[k])
		}
	}
}

// loadFixture type-checks one fixture package under the given import
// path.
func loadFixture(t *testing.T, fixture, importPath string) *Package {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := LoadFixture(root, dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// countWants returns the number of want annotations in a fixture, so
// tests can assert a minimum number of seeded violations.
func countWants(t *testing.T, pkg *Package) int {
	t.Helper()
	n := 0
	for _, file := range pkg.Files {
		ast.Inspect(file, func(ast.Node) bool { return true })
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if wantRe.MatchString(c.Text) {
					n++
				}
			}
		}
	}
	return n
}

func TestDetRangeFixture(t *testing.T) {
	runFixture(t, DetRange, "detrange", DetPackages[0])
}

// TestDetRangeOutOfScope verifies the same violations are ignored
// outside the deterministic pipeline packages.
func TestDetRangeOutOfScope(t *testing.T) {
	pkg := loadFixture(t, "detrange", "example.com/outside")
	diags, err := Run([]*Package{pkg}, []*Analyzer{DetRange})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected no findings outside pipeline scope, got %d: %v", len(diags), diags[0])
	}
}

func TestFrozenTablesFixture(t *testing.T) {
	runFixture(t, FrozenTables, "frozen", "example.com/frozen")
}

func TestLockCheckFixture(t *testing.T) {
	runFixture(t, LockCheck, "lockcheck", "example.com/lockcheck")
}

func TestNoDetSourceFixture(t *testing.T) {
	runFixture(t, NoDetSource, "nodet", DetPackages[1])
}

// TestFixturesSeedEnoughViolations pins the acceptance bar: every
// analyzer's fixture carries at least two seeded violations, so the
// positive paths stay covered as fixtures evolve.
func TestFixturesSeedEnoughViolations(t *testing.T) {
	for fixture, importPath := range map[string]string{
		"detrange":  DetPackages[0],
		"frozen":    "example.com/frozen",
		"lockcheck": "example.com/lockcheck",
		"nodet":     DetPackages[1],
	} {
		if n := countWants(t, loadFixture(t, fixture, importPath)); n < 2 {
			t.Errorf("fixture %s seeds %d violations, want at least 2", fixture, n)
		}
	}
}

// TestDiagnosticString pins the text rendering the CLI prints.
func TestDiagnosticString(t *testing.T) {
	pkg := loadFixture(t, "nodet", DetPackages[1])
	diags, err := Run([]*Package{pkg}, []*Analyzer{NoDetSource})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("expected findings")
	}
	s := diags[0].String()
	if !strings.Contains(s, "nodetsource:") || !strings.Contains(s, ".go:") {
		t.Fatalf("unexpected rendering %q", s)
	}
}
