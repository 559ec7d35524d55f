package stateskip_test

import (
	"testing"

	"repro/internal/decompressor"
	"repro/internal/stateskip"
)

// applied runs the decompressor on a reduction's schedule, or on the seeds
// given instead of its group order, and returns the vectors it applies.
func applied(t *testing.T, red *stateskip.Reduction, seeds ...int) *decompressor.Result {
	t.Helper()
	sched := decompressor.NewSchedule(red)
	if seeds != nil {
		sched.SeedOrder = seeds
	}
	res, err := sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryCubeAppliedInShortenedSequence is the paper's central claim:
// the shortened schedule still applies every test cube. The decompressor
// simulator produces the exact applied vector stream (normal and skip
// mode, Bit Counter resets, early termination); it must be as long as the
// reduction's TSL, seed by seed, and every cube must match one of its
// vectors.
func TestEveryCubeAppliedInShortenedSequence(t *testing.T) {
	for _, cfg := range []struct {
		name string
		S, k int
		L    int
	}{
		{"s13207", 5, 8, 20},
		{"s13207", 4, 3, 20},
		{"s9234", 2, 24, 16},
		{"s15850", 10, 12, 20}, // S=10 with L=20: coarse segmentation
		{"s9234", 7, 5, 16},    // S does not divide L
	} {
		t.Run(cfg.name, func(t *testing.T) {
			enc := stateskip.EncodeProfile(t, cfg.name, 40, cfg.L)
			red, err := stateskip.ReduceWithIndex(enc, nil, stateskip.DefaultOptions(cfg.S, cfg.k))
			if err != nil {
				t.Fatal(err)
			}
			if err := red.Verify(); err != nil {
				t.Fatal(err)
			}
			vecs := applied(t, red).Vectors
			if len(vecs) != red.TSL() {
				t.Errorf("applied stream length %d != TSL %d", len(vecs), red.TSL())
			}
			for si := range enc.Seeds {
				if got, want := len(applied(t, red, si).Vectors), red.SeedTSL(si); got != want {
					t.Errorf("seed %d: simulated %d vectors, accounted %d", si, got, want)
				}
			}
			for ci, c := range enc.Set.Cubes {
				found := false
				for _, v := range vecs {
					if c.Matches(v) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("cube %d is not applied by the shortened sequence", ci)
				}
			}
		})
	}
}

// TestNaiveSelectionAblation checks the paper's §3.2 selection (fortuitous
// embeddings and greedy cover) is never worse than naive assignment-based
// labelling, and that the naive variant still applies every cube.
func TestNaiveSelectionAblation(t *testing.T) {
	enc := stateskip.EncodeProfile(t, "s38584", 60, 24)
	smart, err := stateskip.ReduceWithIndex(enc, nil, stateskip.DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	naiveOpt := stateskip.DefaultOptions(4, 8)
	naiveOpt.NaiveSelection = true
	naive, err := stateskip.ReduceWithIndex(enc, nil, naiveOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.Verify(); err != nil {
		t.Fatal(err)
	}
	if smart.TotalUseful() > naive.TotalUseful() {
		t.Errorf("smart selection uses more useful segments (%d) than naive (%d)", smart.TotalUseful(), naive.TotalUseful())
	}
	if smart.TSL() > naive.TSL() {
		t.Errorf("smart TSL %d worse than naive %d", smart.TSL(), naive.TSL())
	}
	vecs := applied(t, naive).Vectors
	if len(vecs) != naive.TSL() {
		t.Errorf("naive selection: applied stream length %d != TSL %d", len(vecs), naive.TSL())
	}
	for ci, c := range enc.Set.Cubes {
		found := false
		for _, v := range vecs {
			if c.Matches(v) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("naive selection: cube %d not applied", ci)
		}
	}
}
