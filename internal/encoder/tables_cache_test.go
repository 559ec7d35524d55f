package encoder

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/benchprofile"
)

// TestTablesCacheBuildsOnceUnderRace hammers one configuration from many
// goroutines and asserts every caller received the same Tables instance,
// so exactly one build happened. Run with -race.
func TestTablesCacheBuildsOnceUnderRace(t *testing.T) {
	cache := NewTablesCache()
	const goroutines = 32
	var wg sync.WaitGroup
	got := make([]*Tables, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = cache.TablesFor(24, 64, 8, 4, 0)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different Tables instance", g)
		}
	}
}

// TestEncodeSharedCacheUnderRace runs several encodes at once through one
// TablesCache, as stateskipd's job workers and experiments.Session's
// sweep share one: three goroutines per window length, so each Tables is
// shared by encodes of the same L while encodes of other lengths build
// and read their own. Each encoding and its phase-shifter variant,
// ChecksPerformed included, must equal a serial encode's with private
// tables. L = 1 checks on projected rows and L = 32 decides words
// bit-sliced, both state the encode owns; the serial encodes prove it
// through scanTierHook. Run with -race.
func TestEncodeSharedCacheUnderRace(t *testing.T) {
	ctx := context.Background()
	p, err := benchprofile.ByName("s13207", benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	p.NumCubes = 40
	set := p.Generate()
	lengths := []int{1, 8, 32}
	type result struct {
		enc     *Encoding
		variant uint64
	}
	want := make([]result, len(lengths))
	var projected, sliced int
	t.Cleanup(func() { scanTierHook = nil })
	scanTierHook = func(ts tierScan) {
		if ts.projected {
			projected++
		}
		sliced += ts.slicedWords
	}
	for i, L := range lengths {
		projected, sliced = 0, 0
		enc, v, err := EncodeAutoCtx(ctx, p.LFSRSize, p.Width, p.Chains, L, set, 0, nil)
		if err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		if L == 1 && projected == 0 || L == 32 && sliced == 0 {
			t.Fatalf("L=%d: %d tiers checked on projected rows, %d words decided bit-sliced", L, projected, sliced)
		}
		want[i] = result{enc, v}
	}
	scanTierHook = nil

	const perLen = 3
	cache := NewTablesCache()
	got := make([]result, len(lengths)*perLen)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g].enc, got[g].variant, errs[g] = EncodeAutoCtx(ctx, p.LFSRSize, p.Width, p.Chains, lengths[g%len(lengths)], set, 0, cache)
		}(g)
	}
	wg.Wait()
	for g, r := range got {
		i := g % len(lengths)
		label := fmt.Sprintf("goroutine %d (L=%d)", g, lengths[i])
		if errs[g] != nil {
			t.Fatalf("%s: %v", label, errs[g])
		}
		if r.variant != want[i].variant {
			t.Fatalf("%s: variant %d, serial encode %d", label, r.variant, want[i].variant)
		}
		assertEncodingsIdentical(t, label, want[i].enc, r.enc)
	}
}
