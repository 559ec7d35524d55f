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

// StandardConfigVariant assembles the canonical decompressor used
// throughout the paper's experiments: a Fibonacci LFSR of size n with a
// curated primitive polynomial, the standard 3-tap phase shifter in the
// given design variant (see phaseshifter.NewSeparatedVariant; variant 0 is
// the default design), and `chains` balanced scan chains covering `width`
// scan cells, with window length L.
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
	return Config{LFSR: l, PS: ps, Geo: geo, WindowLen: L, FillSeed: standardFillSeed}, nil
}

// EncodeAutoCtx encodes the set with the standard decompressor, retrying
// with successive phase-shifter variants if a cube turns out structurally
// unencodable under the current one. Higher-weight translation-invariant
// phase relations cannot all be designed away (pigeonhole over the LFSR's
// state space), so iterating the shifter design is the standard remedy; a
// handful of variants virtually always suffices. It returns the encoding
// and the variant that worked.
//
// workers has no effect: every encode runs in the calling goroutine. The
// parameter stays for the callers that still pass it.
//
// Every variant's symbolic tables come from cache, so repeated encodes of
// the same (n, width, chains, L) configuration, such as a benchmark loop,
// serve every variant they re-try from it instead of re-simulating.
// (Within a single call each variant has its own phase shifter, so the
// first encode of a configuration builds each tried variant's tables
// exactly once.) A nil cache builds every variant's tables afresh, so a
// failed variant's tables are dropped when the next variant is built. The
// encodings are identical with any cache.
//
// The context is checked between variants and threaded into every encode
// attempt (see EncodeCtx); a fired context stops the variant iteration
// instead of masquerading as "unencodable".
func EncodeAutoCtx(ctx context.Context, n, width, chains, L int, set *cube.Set, workers int, cache *TablesCache) (*Encoding, uint64, error) {
	const maxVariants = 16
	var lastErr error
	for v := uint64(0); v < maxVariants; v++ {
		if err := ctx.Err(); err != nil {
			return nil, v, err
		}
		tabs, err := cache.TablesFor(n, width, chains, L, v)
		if err != nil {
			return nil, v, err
		}
		cfg := Config{
			LFSR: tabs.LFSR(), PS: tabs.PS(), Geo: tabs.Geo(), WindowLen: L,
			FillSeed: standardFillSeed, Tables: tabs,
		}
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
