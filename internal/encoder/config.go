package encoder

import (
	"context"

	"repro/internal/cube"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// standardFillSeed keys the free-variable fill PRNG of every standard
// configuration.
const standardFillSeed = 0xC0FFEE

// assembleStandard is the single source of truth for the standard Config's
// field choices; the cached and uncached EncodeAuto paths both go through
// it so their encodings cannot drift apart.
func assembleStandard(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, L int) Config {
	return Config{LFSR: l, PS: ps, Geo: geo, WindowLen: L, FillSeed: standardFillSeed}
}

// StandardConfig assembles the canonical decompressor used throughout the
// paper's experiments: a Fibonacci LFSR of size n with a curated primitive
// polynomial, the standard 3-tap phase shifter, and `chains` balanced scan
// chains covering `width` scan cells, with window length L.
func StandardConfig(n, width, chains, L int) (Config, error) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, n)
	if err != nil {
		return Config{}, err
	}
	geo, err := scan.New(width, chains)
	if err != nil {
		return Config{}, err
	}
	ps, err := phaseshifter.NewSeparated(l, chains, L*geo.Length)
	if err != nil {
		return Config{}, err
	}
	return assembleStandard(l, ps, geo, L), nil
}

// StandardConfigVariant is StandardConfig with an explicit phase-shifter
// design variant (see phaseshifter.NewSeparatedVariant).
func StandardConfigVariant(n, width, chains, L int, variant uint64) (Config, error) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, n)
	if err != nil {
		return Config{}, err
	}
	geo, err := scan.New(width, chains)
	if err != nil {
		return Config{}, err
	}
	ps, err := phaseshifter.NewSeparatedVariant(l, chains, L*geo.Length, variant)
	if err != nil {
		return Config{}, err
	}
	return assembleStandard(l, ps, geo, L), nil
}

// EncodeAuto encodes the set with the standard decompressor, retrying with
// successive phase-shifter variants if a cube turns out structurally
// unencodable under the current one. Higher-weight translation-invariant
// phase relations cannot all be designed away (pigeonhole over the LFSR's
// state space), so iterating the shifter design is the standard remedy; a
// handful of variants virtually always suffices. It returns the encoding
// and the variant that worked.
func EncodeAuto(n, width, chains, L int, set *cube.Set) (*Encoding, uint64, error) {
	return EncodeAutoCached(n, width, chains, L, set, 0, nil)
}

// EncodeAutoCached is EncodeAuto with an explicit bound on the encoder's
// candidate-scan parallelism (workers; 0 = GOMAXPROCS, for callers that
// already run several encodings concurrently) and a shared TablesCache: the
// symbolic tables of every phase-shifter variant tried are left in the
// cache, so *repeated* encodes of the same (n, width, chains, L)
// configuration — a session sweep revisiting a cell, a benchmark loop —
// serve every variant they re-try from the cache instead of re-simulating.
// (Within a single call each variant has its own phase shifter, so the
// first encode of a configuration builds each tried variant's tables
// exactly once, cache or not.) A nil cache builds private tables. The
// encodings produced are identical with and without a cache.
func EncodeAutoCached(n, width, chains, L int, set *cube.Set, workers int, cache *TablesCache) (*Encoding, uint64, error) {
	return EncodeAutoCtx(context.Background(), n, width, chains, L, set, workers, cache)
}

// EncodeAutoCtx is EncodeAutoCached with cooperative cancellation (see
// EncodeCtx): the context is checked between phase-shifter variants and
// threaded into every encode attempt, and a fired context stops the
// variant iteration instead of masquerading as "unencodable". An
// uncancelled run is bit-identical to EncodeAutoCached.
func EncodeAutoCtx(ctx context.Context, n, width, chains, L int, set *cube.Set, workers int, cache *TablesCache) (*Encoding, uint64, error) {
	const maxVariants = 16
	var lastErr error
	for v := uint64(0); v < maxVariants; v++ {
		if err := ctx.Err(); err != nil {
			return nil, v, err
		}
		var cfg Config
		if cache != nil {
			tabs, err := cache.TablesFor(n, width, chains, L, v)
			if err != nil {
				return nil, v, err
			}
			cfg = assembleStandard(tabs.LFSR(), tabs.PS(), tabs.Geo(), L)
			cfg.Tables = tabs
		} else {
			var err error
			cfg, err = StandardConfigVariant(n, width, chains, L, v)
			if err != nil {
				return nil, v, err
			}
		}
		cfg.Workers = workers
		enc, err := EncodeCtx(ctx, cfg, set)
		if err == nil {
			return enc, v, nil
		}
		if ctx.Err() != nil {
			return nil, v, err
		}
		lastErr = err
	}
	return nil, maxVariants, lastErr
}
