package encoder

import (
	"context"

	"repro/internal/cube"
	"repro/internal/lfsr"
	"repro/internal/scan"
)

// standardFillSeed keys the free-variable fill PRNG of every standard
// configuration.
const standardFillSeed = 0xC0FFEE

// StandardConfigVariant assembles the canonical decompressor used
// throughout the paper's experiments: a Fibonacci LFSR of size n with a
// curated primitive polynomial, the standard 3-tap phase shifter in the
// given design variant (see NewSeparatedTables; variant 0 is the default
// design), and `chains` balanced scan chains covering `width` scan cells,
// with window length L. Choosing the taps builds the symbolic tables, so
// the Config carries them in Tables.
func StandardConfigVariant(n, width, chains, L int, variant uint64) (Config, error) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, n)
	if err != nil {
		return Config{}, err
	}
	geo, err := scan.New(width, chains)
	if err != nil {
		return Config{}, err
	}
	tabs, err := NewSeparatedTables(l, geo, L, variant)
	if err != nil {
		return Config{}, err
	}
	return Config{LFSR: l, PS: tabs.PS(), Geo: geo, WindowLen: L, FillSeed: standardFillSeed, Tables: tabs}, nil
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
// encodings are identical with any cache. The set's equation index does
// not depend on the phase shifter, so every variant shares one.
//
// The context is checked between variants and threaded into every encode
// attempt (see EncodeCtx); a fired context stops the variant iteration
// instead of masquerading as "unencodable". Building a variant's tables
// does not poll it: each round of the tap search is one symbolic sweep.
func EncodeAutoCtx(ctx context.Context, n, width, chains, L int, set *cube.Set, workers int, cache *TablesCache) (*Encoding, uint64, error) {
	const maxVariants = 16
	var lastErr error
	var sys *systemIndex
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
		enc, err := encode(ctx, cfg, set, &sys)
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
