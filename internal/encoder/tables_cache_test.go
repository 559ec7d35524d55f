package encoder

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestTablesCacheBuildsOnceUnderRace hammers one configuration from many
// goroutines and asserts exactly one Tables build happened, with every
// caller receiving the same instance. Run with -race.
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
	if b := cache.Builds(); b != 1 {
		t.Fatalf("Builds = %d, want exactly 1 (singleflight)", b)
	}
}

// TestTablesCacheSetMaxEvicts bounds the cache below the number of
// distinct configurations and checks LRU eviction plus rebuild-on-return.
func TestTablesCacheSetMaxEvicts(t *testing.T) {
	cache := NewTablesCache()
	cache.SetMax(2)
	for _, L := range []int{2, 3, 4} {
		if _, err := cache.TablesFor(24, 64, 8, L, 0); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded)", cache.Len())
	}
	if cache.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", cache.Evictions())
	}
	// L=2 is the LRU victim; re-requesting it rebuilds.
	if _, err := cache.TablesFor(24, 64, 8, 2, 0); err != nil {
		t.Fatalf("rebuild after eviction: %v", err)
	}
	if b := cache.Builds(); b != 4 {
		t.Fatalf("Builds = %d, want 4 (3 distinct + 1 rebuild)", b)
	}
}

// TestEnsureLenCtxAbortResumes cancels a symbolic-table extension midway
// and verifies (a) the error wraps the context error, (b) the tables stay
// internally consistent, and (c) a later uncancelled call resumes and
// produces a table identical to one built in a single shot.
func TestEnsureLenCtxAbortResumes(t *testing.T) {
	cfg, err := StandardConfigVariant(24, 64, 8, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	aborted, err := NewTables(cfg.LFSR, cfg.PS, cfg.Geo)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aborted.EnsureLenCtx(canceled, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnsureLenCtx(cancelled) err = %v, want context.Canceled", err)
	}
	snap, err := aborted.EnsureLenCtx(context.Background(), 8)
	if err != nil {
		t.Fatalf("resume after abort: %v", err)
	}

	fresh, err := NewTables(cfg.LFSR, cfg.PS, cfg.Geo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.EnsureLenCtx(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(aborted.arena) != len(fresh.arena) {
		t.Fatalf("arena length after resume %d != fresh %d", len(aborted.arena), len(fresh.arena))
	}
	for i := range fresh.arena {
		if aborted.arena[i] != fresh.arena[i] {
			t.Fatalf("arena word %d differs after abort+resume", i)
		}
	}
	if snap.L != want.L || snap.N != want.N {
		t.Fatalf("snapshot header differs: %+v vs %+v", snap, want)
	}
}
