package encoder

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
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

// stopAfterPolls is a context whose Err reports context.Canceled from its
// (polls+1)-th call on, so a table build stops at a chosen poll.
type stopAfterPolls struct {
	context.Context
	polls int
}

func (c *stopAfterPolls) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestEnsureLenCtxAbortResumes cancels a symbolic table build before it
// starts and verifies (a) the error wraps the context error, (b) the
// tables stay internally consistent, and (c) a later uncancelled
// ExprTableCtx call resumes and produces a table identical to one built in
// a single shot.
func TestEnsureLenCtxAbortResumes(t *testing.T) {
	cfg, err := StandardConfigVariant(24, 64, 8, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	aborted, err := NewTables(cfg.LFSR, cfg.PS, cfg.Geo, 8)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aborted.ExprTableCtx(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExprTableCtx(cancelled) err = %v, want context.Canceled", err)
	}
	// The first poll comes after symStride-1 cycles, which are kept.
	if aborted.cycles != symStride-1 {
		t.Fatalf("cancelled build kept %d cycles, want %d", aborted.cycles, symStride-1)
	}
	snap, err := aborted.ExprTableCtx(context.Background())
	if err != nil {
		t.Fatalf("resume after abort: %v", err)
	}

	fresh, err := NewTables(cfg.LFSR, cfg.PS, cfg.Geo, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ExprTableCtx(context.Background())
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

// TestExprTableIncrementalExtension stops a symbolic table build twice, at
// cycles that split a window vector, and verifies (a) each error wraps
// context.Canceled, (b) the build keeps exactly the cycles completed, and
// (c) a later uncancelled call extends the kept prefix to a table
// identical to one built in a single shot: the retained symbolic
// simulation resumes exactly where the prefix ended. Checked for both
// register forms, since their Step recurrences rotate the symbolic state
// differently.
func TestExprTableIncrementalExtension(t *testing.T) {
	taps, ok := lfsr.Taps(18)
	if !ok {
		t.Fatal("no curated taps for n=18")
	}
	for _, form := range []lfsr.Form{lfsr.Fibonacci, lfsr.Galois} {
		t.Run(form.String(), func(t *testing.T) {
			l, err := lfsr.NewFromTaps(form, 18, taps)
			if err != nil {
				t.Fatal(err)
			}
			geo, err := scan.New(60, 6)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := phaseshifter.New(18, [][]int{{0, 5, 11}, {1, 7, 13}, {2, 9, 15}, {3, 6, 17}, {4, 10, 14}, {8, 12, 16}})
			if err != nil {
				t.Fatal(err)
			}
			const L = 13
			aborted, err := NewTables(l, ps, geo, L)
			if err != nil {
				t.Fatal(err)
			}
			// The build polls once per symStride = 16 cycles, counted
			// from where it resumed: at cycle 15, then at 30, 46 and 62.
			// Window vectors are 10 cycles long, so both stops split one.
			for _, stop := range []struct{ polls, cycles int }{{0, 15}, {2, 62}} {
				ctx := &stopAfterPolls{Context: context.Background(), polls: stop.polls}
				if _, err := aborted.ExprTableCtx(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("ExprTableCtx(cancelled) err = %v, want context.Canceled", err)
				}
				if aborted.cycles != stop.cycles {
					t.Fatalf("build stopped at cycle %d, want %d", aborted.cycles, stop.cycles)
				}
			}
			got, err := aborted.ExprTableCtx(context.Background())
			if err != nil {
				t.Fatalf("resume after abort: %v", err)
			}
			want, err := buildExprTable(l, ps, geo, L)
			if err != nil {
				t.Fatal(err)
			}
			if got.L != want.L || got.N != want.N || got.Rows().Count() != want.Rows().Count() {
				t.Fatalf("snapshot header differs: %+v vs %+v", got, want)
			}
			for v := 0; v < L; v++ {
				for pos := 0; pos < geo.Width; pos++ {
					if !got.Expr(v, pos).Equal(want.Expr(v, pos)) {
						t.Fatalf("expr (%d,%d) differs after abort+resume", v, pos)
					}
				}
			}
		})
	}
}
