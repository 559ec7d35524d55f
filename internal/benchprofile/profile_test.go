package benchprofile

import (
	"testing"

	"repro/internal/cube"
)

func TestAllProfilesPresent(t *testing.T) {
	for _, scale := range []Scale{ScaleCI, ScalePaper} {
		ps := All(scale)
		if len(ps) != 5 {
			t.Fatalf("%v: %d profiles", scale, len(ps))
		}
		names := Names()
		for i, p := range ps {
			if p.Name != names[i] {
				t.Errorf("%v profile %d is %q, want %q", scale, i, p.Name, names[i])
			}
		}
	}
	if _, err := ByName("s0000", ScaleCI); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestGenerateRespectsProfile(t *testing.T) {
	for _, scale := range []Scale{ScaleCI, ScalePaper} {
		for _, p := range All(scale) {
			set := p.Generate()
			if set.Width != p.Width {
				t.Errorf("%v/%s: width %d", scale, p.Name, set.Width)
			}
			if set.Len() != p.NumCubes {
				t.Errorf("%v/%s: %d cubes, want %d", scale, p.Name, set.Len(), p.NumCubes)
			}
			if got := set.MaxSpecified(); got != p.SMax {
				t.Errorf("%v/%s: s_max %d, want %d", scale, p.Name, got, p.SMax)
			}
			if set.MaxSpecified() >= p.LFSRSize {
				t.Errorf("%v/%s: s_max %d not below LFSR size %d (Koenemann margin)", scale, p.Name, set.MaxSpecified(), p.LFSRSize)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("s13207", ScaleCI)
	a, b := p.Generate(), p.Generate()
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic cube count")
	}
	for i := range a.Cubes {
		if a.Cubes[i].String() != b.Cubes[i].String() {
			t.Fatalf("cube %d differs between runs", i)
		}
	}
}

// conflict reports whether two cubes of equal width specify some position
// with opposite values.
func conflict(a, b cube.Cube) bool {
	am, av := a.Mask.Words(), a.Value.Words()
	bm, bv := b.Mask.Words(), b.Value.Words()
	for i := range am {
		if (av[i]^bv[i])&am[i]&bm[i] != 0 {
			return true
		}
	}
	return false
}

func TestClusteringCreatesConflicts(t *testing.T) {
	// The calibrated profiles must produce conflicting cube pairs — that is
	// what limits classical (L=1) seed packing in the paper's Table 1.
	p, _ := ByName("s13207", ScalePaper)
	set := p.Generate()
	conflicts := 0
	pairs := 0
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			pairs++
			if conflict(set.Cubes[i], set.Cubes[j]) {
				conflicts++
			}
		}
	}
	if conflicts == 0 {
		t.Error("no conflicting pairs in the first 60 cubes; clustering broken")
	}
	if float64(conflicts)/float64(pairs) < 0.3 {
		t.Errorf("conflict rate %.2f too low for the calibrated profile", float64(conflicts)/float64(pairs))
	}
}

func TestScaleString(t *testing.T) {
	if ScaleCI.String() != "ci" || ScalePaper.String() != "paper" {
		t.Error("scale names wrong")
	}
}
