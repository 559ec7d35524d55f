package encoder

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

// Tables holds the shared symbolic artefacts of one decompressor (LFSR +
// phase shifter + scan geometry) at one window length L, mirroring
// atpg.Tables: the expression arena behind its ExprTable. Building the
// arena is the symbolic simulation of Section 3.1, run once by NewTables
// or NewSeparatedTables and shared by every encode of any cube set against
// this decompressor and window.
//
// The arena is position-minor (see ExprTable): each output slot owns a band
// of L rows, one per window position. It is filled whole before the
// constructor returns and never written again, so Tables is safe for
// concurrent use; the lint:frozen marker machine-checks that (internal/lint).
//
// lint:frozen
type Tables struct {
	l      *lfsr.LFSR
	ps     *phaseshifter.PhaseShifter
	geo    scan.Geometry
	winLen int
	table  *ExprTable
}

// NewTables validates the decompressor wiring and the window length L and
// returns shared tables for them, their arena filled.
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
	taps := make([][]int, ps.Outputs())
	for o := range taps {
		taps[o] = ps.Taps(o)
	}
	arena := newArena(l, geo, L)
	sweep(arena, l, taps, geo, L, nil)
	return newBuiltTables(l, ps, geo, L, arena), nil
}

// NewSeparatedTables builds the tables of l and geo at window length L
// behind a 3-tap-per-output phase shifter in the given design variant,
// choosing its taps so that no two outputs produce the same seed
// expression anywhere in the window's L·r clocks.
//
// Each output, being an XOR of LFSR cells, produces the register's
// m-sequence at some phase (the shift-and-add property). If two outputs'
// phases come closer than the window length, they emit the *same* linear
// expression of the seed at two different (output, cycle) slots, and any
// test cube specifying opposite values at those slots becomes structurally
// unencodable. Naive tap constructions (e.g. constant-stride tap sets) are
// catastrophic here: shifting a tap set by s cells shifts its phase by
// exactly s, putting all channels within a few cycles of each other.
//
// Because computing phases outright needs discrete logarithms in GF(2^n),
// the taps are verified directly instead: each round fills the arena by
// one symbolic sweep and checks every row as it is written (see sweep).
// The first output to repeat another's expression gets fresh taps and the
// next round sweeps again into the same arena; a round without a repeat
// leaves the finished arena, and after 64 rounds the search gives up. Tap choice is deterministic (seeded from n, the
// chain count, L·r and the variant), so identical configurations always
// yield identical hardware.
//
// Pairwise separation cannot rule out *higher-weight* translation-invariant
// relations (e.g. output a XOR output b at equal cycles equalling output c
// a few cycles earlier); when a test set happens to specify slots on such a
// relation with odd parity, that cube is structurally unencodable under
// this particular shifter and the flow retries with the next variant —
// mirroring real DFT practice, where the phase shifter is iterated until
// the test set encodes. See EncodeAutoCtx.
func NewSeparatedTables(l *lfsr.LFSR, geo scan.Geometry, L int, variant uint64) (*Tables, error) {
	n, m, cycles := l.Size(), geo.Chains, L*geo.Length
	if m < 1 {
		return nil, fmt.Errorf("encoder: need at least one scan chain, got %d", m)
	}
	if L < 1 {
		return nil, fmt.Errorf("encoder: window length %d must be ≥ 1", L)
	}
	src := prng.New(uint64(n)<<32 ^ uint64(m)<<16 ^ uint64(cycles) ^ 0x51ab ^ variant*0x9e3779b97f4a7c15)
	taps := make([][]int, m)
	for o := range taps {
		taps[o] = randomTaps(src, n)
	}
	arena := newArena(l, geo, L)
	sep := newSeparation(n, taps)
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		colliding := sweep(arena, l, taps, geo, L, sep)
		if colliding < 0 {
			ps, err := phaseshifter.New(n, taps)
			if err != nil {
				return nil, err
			}
			return newBuiltTables(l, ps, geo, L, arena), nil
		}
		taps[colliding] = randomTaps(src, n)
		sep.setMask(colliding)
	}
	return nil, fmt.Errorf("encoder: could not separate %d outputs over %d cycles for n=%d (state space too small)", m, cycles, n)
}

// tapsPerOutput is how many cells NewSeparatedTables XORs into each output.
const tapsPerOutput = 3

// randomTaps draws tapsPerOutput distinct cells (fewer if n is smaller).
func randomTaps(src *prng.Source, n int) []int {
	want := min(tapsPerOutput, n)
	set := make(map[int]bool, want)
	out := make([]int, 0, want)
	for len(out) < want {
		c := src.Intn(n)
		if !set[c] {
			set[c] = true
			out = append(out, c)
		}
	}
	return out
}

// newArena allocates the L·Length·Chains rows of an expression arena.
func newArena(l *lfsr.LFSR, geo scan.Geometry, L int) []uint64 {
	return make([]uint64, geo.Length*geo.Chains*L*((l.Size()+63)/64))
}

func newBuiltTables(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry, L int, arena []uint64) *Tables {
	table := &ExprTable{L: L, N: l.Size(), Geo: geo, rows: gf2.NewRowSet(l.Size(), arena)}
	return &Tables{l: l, ps: ps, geo: geo, winLen: L, table: table}
}

// separation is the phase-shifter separation check of NewSeparatedTables,
// run on each row as the sweep writes it.
//
// At cycle 0 symbolic cell i holds exactly variable a_i, so an output's
// cycle-0 expression is its tap mask, with one bit per tap. The LFSR
// transition is invertible, so output a's expression at cycle i equals
// output b's at cycle j ≤ i exactly when a's expression at cycle i − j
// equals b's at cycle 0. The first repeat in (cycle, output) order
// therefore always involves a cycle-0 expression, and a row can only
// repeat the tap mask of an output with as many taps as the row has bits.
type separation struct {
	words int
	taps  [][]int
	masks []uint64 // output o's tap mask at words [o·words, (o+1)·words)
}

func newSeparation(n int, taps [][]int) *separation {
	s := &separation{words: (n + 63) / 64, taps: taps}
	s.masks = make([]uint64, len(taps)*s.words)
	for o := range taps {
		s.setMask(o)
	}
	return s
}

// setMask rebuilds output o's tap mask from its taps.
func (s *separation) setMask(o int) {
	mask := s.masks[o*s.words : (o+1)*s.words]
	clear(mask)
	for _, c := range s.taps[o] {
		mask[c/64] |= 1 << (uint(c) % 64)
	}
}

// repeats reports whether output o's expression row at cycle cyc equals
// the cycle-0 expression of another output: at cycle 0, of an earlier
// one, since a later output's own row is checked when it is written.
func (s *separation) repeats(row []uint64, o, cyc int) bool {
	weight := 0
	for _, w := range row {
		weight += bits.OnesCount64(w)
	}
	if weight > tapsPerOutput {
		return false
	}
	for b, ts := range s.taps {
		if b == o || cyc == 0 && b > o || len(ts) != weight {
			continue
		}
		if slices.Equal(row, s.masks[b*s.words:(b+1)*s.words]) {
			return true
		}
	}
	return false
}

// sweep runs the symbolic simulation of Section 3.1 through the L·r
// cycles of a window and writes output o's expression at cycle cyc into
// the arena row of its slot, (cyc mod r)·m + o at window position
// ⌊cyc / r⌋, clearing the row before XORing in its taps' cell
// expressions. With a separation check it stops at the first row, in
// (cycle, output) order, that repeats another output's expression and
// returns that output; otherwise it returns −1 once every row is written.
func sweep(arena []uint64, l *lfsr.LFSR, taps [][]int, geo scan.Geometry, L int, sep *separation) int {
	r, m, n := geo.Length, geo.Chains, l.Size()
	w := (n + 63) / 64
	sym := lfsr.NewSymbolic(l)
	for cyc := 0; cyc < L*r; cyc++ {
		p, tc := cyc/r, cyc%r
		for o, ts := range taps {
			row := (tc*m+o)*L + p
			words := arena[row*w : (row+1)*w]
			clear(words)
			dst := gf2.VecView(n, words)
			for _, cell := range ts {
				dst.Xor(sym.Expr(cell))
			}
			if sep != nil && sep.repeats(words, o, cyc) {
				return o
			}
		}
		sym.Step()
	}
	return -1
}

// LFSR returns the register these tables were built for.
func (t *Tables) LFSR() *lfsr.LFSR { return t.l }

// PS returns the phase shifter these tables were built for.
func (t *Tables) PS() *phaseshifter.PhaseShifter { return t.ps }

// Geo returns the scan geometry these tables were built for.
func (t *Tables) Geo() scan.Geometry { return t.geo }

// ExprTable returns the expression table of the tables' window. The
// snapshot is immutable and shared by every caller.
func (t *Tables) ExprTable() *ExprTable { return t.table }

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
		slot.t, slot.err = cfg.Tables, err
	})
	return slot.t, slot.err
}
