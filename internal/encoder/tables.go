package encoder

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// Tables holds the shared symbolic artefacts of one decompressor (LFSR +
// phase shifter + scan geometry) at one window length L, mirroring
// atpg.Tables: the expression arena behind its ExprTable. Building the
// arena is the symbolic simulation of Section 3.1, run once and shared by
// every encode of any cube set against this decompressor and window.
//
// The arena is position-minor (see ExprTable): each output slot owns a band
// of L rows, one per window position. It is filled lazily by the first
// ExprTableCtx call, and snapshots handed out are never invalidated, so
// Tables is safe for concurrent use. The two regimes are machine-checked
// (internal/lint): the decompressor identity below is frozen after
// NewTables, and the mutable arena state is only touched under mu.
//
// lint:frozen
type Tables struct {
	l      *lfsr.LFSR
	ps     *phaseshifter.PhaseShifter
	geo    scan.Geometry
	winLen int
	n      int
	words  int

	mu     sync.Mutex
	sym    *lfsr.Symbolic // guarded by mu
	arena  []uint64       // guarded by mu; slot s at position p is row s·L+p
	cycles int            // guarded by mu; symbolic cycles materialised so far
}

// NewTables validates the decompressor wiring and the window length L and
// returns shared tables for them with an empty arena, which ExprTableCtx
// fills on demand.
func NewTables(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, L int) (*Tables, error) {
	if L < 1 {
		return nil, fmt.Errorf("encoder: window length %d must be ≥ 1", L)
	}
	if ps.Outputs() != geo.Chains {
		return nil, fmt.Errorf("encoder: phase shifter outputs %d != scan chains %d", ps.Outputs(), geo.Chains)
	}
	if ps.Size() != l.Size() {
		return nil, fmt.Errorf("encoder: phase shifter size %d != LFSR size %d", ps.Size(), l.Size())
	}
	n, words := l.Size(), (l.Size()+63)/64
	return &Tables{
		l: l, ps: ps, geo: geo, winLen: L, n: n, words: words,
		sym:   lfsr.NewSymbolic(l),
		arena: make([]uint64, geo.Length*geo.Chains*L*words),
	}, nil
}

// LFSR returns the register these tables were built for.
func (t *Tables) LFSR() *lfsr.LFSR { return t.l }

// PS returns the phase shifter these tables were built for.
func (t *Tables) PS() *phaseshifter.PhaseShifter { return t.ps }

// Geo returns the scan geometry these tables were built for.
func (t *Tables) Geo() scan.Geometry { return t.geo }

// symStride is how many symbolic cycles ExprTableCtx materialises between
// context polls. A cycle is m·words XOR words plus one symbolic step, so
// 16 cycles keeps the poll below measurement noise while bounding
// cancellation latency to microseconds even on the largest cores.
const symStride = 16

// ExprTableCtx returns the expression table of the tables' window,
// simulating only the symbolic cycles not yet materialised. The returned
// snapshot is immutable.
//
// The symbolic simulation polls the context every symStride cycles. An
// aborted build leaves the tables fully consistent at the cycles completed
// so far — the partial work is kept, and a later call resumes from it.
func (t *Tables) ExprTableCtx(ctx context.Context) (*ExprTable, error) {
	r, m, w, L := t.geo.Length, t.geo.Chains, t.words, t.winLen
	need := L * r
	t.mu.Lock()
	defer t.mu.Unlock()
	for cyc := t.cycles; cyc < need; cyc++ {
		if (cyc-t.cycles)%symStride == symStride-1 && ctx.Err() != nil {
			// Cycles at or past cyc are not written yet, and sym has
			// stepped cyc times: a later call resumes exactly here.
			t.cycles = cyc
			return nil, fmt.Errorf("encoder: table build stopped at cycle %d/%d: %w", cyc, need, ctx.Err())
		}
		p, tc := cyc/r, cyc%r
		for ch := 0; ch < m; ch++ {
			row := (tc*m+ch)*L + p
			dst := gf2.VecView(t.n, t.arena[row*w:(row+1)*w])
			for _, cell := range t.ps.Taps(ch) {
				dst.Xor(t.sym.Expr(cell))
			}
		}
		t.sym.Step()
	}
	t.cycles = need
	return &ExprTable{L: L, N: t.n, Geo: t.geo, rows: gf2.NewRowSet(t.n, t.arena)}, nil
}

// systemIndex precomputes, for every cube of a set, the expression-row
// indices (at window position 0) and right-hand sides of its equation
// system. A row index is the bit's output slot times the window length L,
// so probing the cube at window position p adds p to every index: the
// system's rows at successive positions are adjacent in the arena.
type systemIndex struct {
	base [][]int32
	rhs  [][]uint8
}

func newSystemIndex(set *cube.Set, geo scan.Geometry, L int) *systemIndex {
	si := &systemIndex{
		base: make([][]int32, set.Len()),
		rhs:  make([][]uint8, set.Len()),
	}
	for ci := range set.Cubes {
		c := set.Cubes[ci]
		spec := c.SpecifiedCount()
		base := make([]int32, 0, spec)
		rhs := make([]uint8, 0, spec)
		for pos := c.Mask.FirstSet(); pos >= 0; pos = c.Mask.NextSet(pos + 1) {
			ch, depth := geo.Cell(pos)
			base = append(base, int32((geo.ShiftCycle(depth)*geo.Chains+ch)*L))
			rhs = append(rhs, c.Value.Bit(pos))
		}
		si.base[ci] = base
		si.rhs[ci] = rhs
	}
	return si
}

// TablesCache memoizes shared Tables per standard decompressor
// configuration, so repeated encodes of one configuration, such as a
// benchmark loop, stop recomputing identical symbolic simulations. It is
// safe for concurrent use: the first caller of a key builds (singleflight)
// while later callers of the same key block on that slot, so every
// configuration is built exactly once no matter how many tenants race on
// it. Entries live as long as the cache. A nil *TablesCache caches
// nothing: every TablesFor call builds fresh tables.
//
// The key includes the window length because Tables serve one window, and
// because the standard phase shifter's separation window — and therefore
// its taps — depends on L·Length.
type TablesCache struct {
	mu sync.Mutex
	m  map[tabKey]*tabSlot // guarded by mu
}

type tabKey struct {
	n, width, chains, L int
	variant             uint64
}

type tabSlot struct {
	once sync.Once
	t    *Tables
	err  error
}

// NewTablesCache returns an empty cache.
func NewTablesCache() *TablesCache {
	return &TablesCache{m: make(map[tabKey]*tabSlot)}
}

// TablesFor returns the shared Tables of the standard decompressor with
// the given parameters (see StandardConfigVariant), building them at most
// once per configuration, or on every call if c is nil.
func (c *TablesCache) TablesFor(n, width, chains, L int, variant uint64) (*Tables, error) {
	slot := &tabSlot{}
	if c != nil {
		k := tabKey{n: n, width: width, chains: chains, L: L, variant: variant}
		c.mu.Lock()
		if s, ok := c.m[k]; ok {
			slot = s
		} else {
			c.m[k] = slot
		}
		c.mu.Unlock()
	}
	slot.once.Do(func() {
		cfg, err := StandardConfigVariant(n, width, chains, L, variant)
		if err != nil {
			slot.err = err
			return
		}
		slot.t, slot.err = NewTables(cfg.LFSR, cfg.PS, cfg.Geo, L)
	})
	return slot.t, slot.err
}
