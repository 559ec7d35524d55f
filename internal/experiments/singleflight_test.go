package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/benchprofile"
)

// TestSingleflightEncodingBuildsOnce races many goroutines at one
// (circuit, L) key and asserts the memo built the encoding exactly once —
// the singleflight contract the daemon's shared session depends on.
// Run with -race: the memo slot hand-off is the interesting part.
func TestSingleflightEncodingBuildsOnce(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = s.EncodingCtx(context.Background(), "s13207", 8)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := s.Stats()
	if st.EncodingBuilds != 1 {
		t.Fatalf("EncodingBuilds = %d, want exactly 1 (singleflight)", st.EncodingBuilds)
	}
	if st.SetBuilds != 1 {
		t.Fatalf("SetBuilds = %d, want exactly 1", st.SetBuilds)
	}
	if st.Hits < goroutines-1 {
		t.Fatalf("Hits = %d, want ≥ %d", st.Hits, goroutines-1)
	}
}

// TestSingleflightCanceledLeaderDoesNotPoison submits a build under an
// already-cancelled context, then asserts a later caller with a live
// context gets a real encoding: the cancelled leader must clear its memo
// slot instead of caching its context error.
func TestSingleflightCanceledLeaderDoesNotPoison(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.EncodingCtx(canceled, "s13207", 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: err = %v, want context.Canceled", err)
	}
	enc, err := s.EncodingCtx(context.Background(), "s13207", 8)
	if err != nil {
		t.Fatalf("post-cancel rebuild failed: %v", err)
	}
	if len(enc.Seeds) == 0 {
		t.Fatal("post-cancel rebuild returned empty encoding")
	}
}

// TestSingleflightMixedCancellation races live and cancelled contexts on
// one key: every live-context caller must end with a valid encoding, and
// no cancelled caller may corrupt the slot. Exercises the leader hand-off
// paths of cached() under -race.
func TestSingleflightMixedCancellation(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const pairs = 8
	var wg sync.WaitGroup
	liveErrs := make([]error, pairs)
	for g := 0; g < pairs; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			_, liveErrs[g] = s.EncodingCtx(context.Background(), "s13207", 8)
		}(g)
		go func() {
			defer wg.Done()
			// Either outcome (ctx error or a value served from a finished
			// slot) is legal for a cancelled caller.
			s.EncodingCtx(canceled, "s13207", 8) //nolint:errcheck
		}()
	}
	wg.Wait()
	for g, err := range liveErrs {
		if err != nil {
			t.Fatalf("live caller %d: %v", g, err)
		}
	}
}

// TestSetMaxCachedBoundsMemos verifies the LRU bound: more distinct keys
// than the bound evicts, re-requesting an evicted key rebuilds, and the
// live slot count respects the bound.
func TestSetMaxCachedBoundsMemos(t *testing.T) {
	s := NewSession(benchprofile.ScaleCI)
	s.SetMaxCached(2)
	for _, L := range []int{4, 6, 8} {
		if _, err := s.EncodingCtx(context.Background(), "s13207", L); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("Evictions = 0, want > 0 with bound 2 and 3 keys")
	}
	if st.EncodingBuilds != 3 {
		t.Fatalf("EncodingBuilds = %d, want 3", st.EncodingBuilds)
	}
	// L=4 was evicted (LRU); re-requesting it must rebuild, not fail.
	if _, err := s.EncodingCtx(context.Background(), "s13207", 4); err != nil {
		t.Fatalf("rebuild after eviction: %v", err)
	}
	if got := s.Stats().EncodingBuilds; got != 4 {
		t.Fatalf("EncodingBuilds after re-request = %d, want 4 (rebuild)", got)
	}
}
