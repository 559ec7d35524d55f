package lint

// TestLintRepoClean is the tier-1 regression gate: the whole module must
// satisfy its own determinism and concurrency invariants. Any unsorted
// map iteration in a pipeline package, write to a frozen table, or
// unguarded access to a "guarded by mu" field fails `go test ./...`
// locally, not just the CI lint step.

import "testing"

func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestMetaCollected guards the marker plumbing end to end on the real
// repository: the invariants named in ARCHITECTURE.md must actually be
// picked up from source, so a refactor that drops a lint:frozen marker
// or a "guarded by" comment fails here even though the (now weaker)
// suite still runs clean.
func TestMetaCollected(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/atpg", "./internal/encoder", "./internal/gf2",
		"./internal/experiments", "./internal/netlist", "./internal/lfsr")
	if err != nil {
		t.Fatal(err)
	}
	frozen := make(map[string]bool)
	guarded := 0
	for _, pkg := range pkgs {
		pass := &Pass{Analyzer: FrozenTables, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info}
		meta := collectMeta(pass)
		for tn := range meta.frozen {
			frozen[pkg.Pkg.Name()+"."+tn.Name()] = true
		}
		guarded += len(meta.guards)
	}
	for _, want := range []string{"atpg.Tables", "encoder.Tables", "gf2.RowSet"} {
		if !frozen[want] {
			t.Errorf("expected %s to carry the lint:frozen marker", want)
		}
	}
	// experiments.Session(4: sets, encs, idxs, tabs) + encoder.Tables(3:
	// sym, arena, cycles) + encoder.TablesCache(1: m) + netlist.Netlist(4)
	// + lfsr.LFSR(1)
	if guarded != 13 {
		t.Errorf("expected exactly 13 guarded fields across the pipeline, found %d", guarded)
	}
}
