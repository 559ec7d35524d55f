package encoder

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/lru"
	"repro/internal/phaseshifter"
	"repro/internal/scan"
)

// Tables holds the shared symbolic artefacts of one decompressor (LFSR +
// phase shifter + scan geometry), mirroring atpg.Tables: the expression
// arena behind every ExprTable, extended as longer windows are requested,
// plus per-cube-set equation indices. Building the arena is the
// symbolic simulation of Section 3.1; a window of length L+k reuses the
// length-L prefix of symbolic cycles verbatim, so sweeps over L against a
// fixed decompressor pay only for the new cycles.
//
// The arena is position-minor (see ExprTable): each output slot owns a band
// of pitch rows, one per window position, and the pitch is the longest L
// requested so far. A longer window lays the rows out afresh in a new arena
// of pitch L and leaves the old one to the snapshots that hold it; a
// shorter one reads the existing arena. Either way outstanding readers are
// never invalidated, and Tables is safe for concurrent use. The two regimes are
// machine-checked (internal/lint): the decompressor identity below is
// frozen after NewTables, and the mutable arena/cache state is only
// touched under mu.
//
// lint:frozen
type Tables struct {
	l     *lfsr.LFSR
	ps    *phaseshifter.PhaseShifter
	geo   scan.Geometry
	n     int
	words int

	mu     sync.Mutex
	sym    *lfsr.Symbolic // guarded by mu
	arena  []uint64       // guarded by mu; slot s at position p is row s·pitch+p
	pitch  int            // guarded by mu; window positions the arena holds per slot
	cycles int            // guarded by mu; symbolic cycles materialised so far
	// Single-slot system-index cache: re-encodes of one set (benchmark
	// loops, sweeps over L) hit it, while Tables held in process-lifetime
	// caches never pin more than the last set encoded.
	lastSet *cube.Set    // guarded by mu
	lastSys *systemIndex // guarded by mu
}

// NewTables validates the decompressor wiring and returns empty shared
// tables for it; the symbolic arena is filled on demand by EnsureLenCtx.
func NewTables(l *lfsr.LFSR, ps *phaseshifter.PhaseShifter, geo scan.Geometry) (*Tables, error) {
	if ps.Outputs() != geo.Chains {
		return nil, fmt.Errorf("encoder: phase shifter outputs %d != scan chains %d", ps.Outputs(), geo.Chains)
	}
	if ps.Size() != l.Size() {
		return nil, fmt.Errorf("encoder: phase shifter size %d != LFSR size %d", ps.Size(), l.Size())
	}
	n := l.Size()
	return &Tables{
		l: l, ps: ps, geo: geo,
		n:     n,
		words: (n + 63) / 64,
		sym:   lfsr.NewSymbolic(l),
	}, nil
}

// LFSR returns the register these tables were built for.
func (t *Tables) LFSR() *lfsr.LFSR { return t.l }

// PS returns the phase shifter these tables were built for.
func (t *Tables) PS() *phaseshifter.PhaseShifter { return t.ps }

// Geo returns the scan geometry these tables were built for.
func (t *Tables) Geo() scan.Geometry { return t.geo }

// symStride is how many symbolic cycles EnsureLenCtx materialises between
// context polls. A cycle is m·words XOR words plus one symbolic step, so
// 16 cycles keeps the poll below measurement noise while bounding
// cancellation latency to microseconds even on the largest cores.
const symStride = 16

// EnsureLenCtx returns the expression table for window length L,
// simulating only the symbolic cycles not yet materialised. The returned
// snapshot is immutable and remains valid across later extensions.
//
// The arena holds exactly as many positions per slot as the longest window
// requested so far: a longer L re-lays the rows out at pitch L, and a
// shorter one returns a snapshot over the whole arena, whose reduced
// tables (one per encode worker) are sized by the pitch, not by L.
//
// The symbolic simulation polls the context every symStride cycles. An
// aborted extension leaves the tables fully consistent at the cycles
// completed so far — the partial work is kept (a later call resumes from
// it), and every previously returned snapshot stays valid.
func (t *Tables) EnsureLenCtx(ctx context.Context, L int) (*ExprTable, error) {
	if L < 1 {
		return nil, fmt.Errorf("encoder: window length %d must be ≥ 1", L)
	}
	r, m, w := t.geo.Length, t.geo.Chains, t.words
	slots := r * m
	need := L * r
	t.mu.Lock()
	defer t.mu.Unlock()
	if L > t.pitch {
		pitch := L
		arena := make([]uint64, slots*pitch*w)
		for s := 0; s < slots; s++ {
			copy(arena[s*pitch*w:], t.arena[s*t.pitch*w:(s+1)*t.pitch*w])
		}
		t.arena, t.pitch = arena, pitch
	}
	for cyc := t.cycles; cyc < need; cyc++ {
		if (cyc-t.cycles)%symStride == symStride-1 && ctx.Err() != nil {
			// Cycles at or past cyc are not written yet, and sym has
			// stepped cyc times: a later call resumes exactly here.
			t.cycles = cyc
			return nil, fmt.Errorf("encoder: table build stopped at cycle %d/%d: %w", cyc, need, ctx.Err())
		}
		p, tc := cyc/r, cyc%r
		for ch := 0; ch < m; ch++ {
			row := (tc*m+ch)*t.pitch + p
			dst := gf2.VecView(t.n, t.arena[row*w:(row+1)*w])
			for _, cell := range t.ps.Taps(ch) {
				dst.Xor(t.sym.Expr(cell))
			}
		}
		t.sym.Step()
	}
	t.cycles = max(t.cycles, need)
	return &ExprTable{
		L: L, N: t.n, Geo: t.geo, pitch: t.pitch,
		rows: gf2.NewRowSet(t.n, t.arena[:slots*t.pitch*w]),
	}, nil
}

// Systems returns the per-cube equation index of one cube set against a
// snapshot of these tables: for every cube, the position-0 expression-row
// indices and right-hand sides of its embedding system. The most recent
// set's index is cached per arena pitch. Sets are treated as immutable
// once handed to the encoder.
func (t *Tables) Systems(set *cube.Set, table *ExprTable) *systemIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastSet != set || t.lastSys.pitch != table.pitch {
		t.lastSet = set
		t.lastSys = newSystemIndex(set, t.geo, table.pitch)
	}
	return t.lastSys
}

// systemIndex precomputes, for every cube of a set, the expression-row
// indices (at window position 0) and right-hand sides of its equation
// system. A row index is the bit's output slot times the arena pitch, so
// probing the cube at window position p adds p to every index: the
// system's rows at successive positions are adjacent in the arena.
type systemIndex struct {
	pitch int
	base  [][]int32
	rhs   [][]uint8
}

func newSystemIndex(set *cube.Set, geo scan.Geometry, pitch int) *systemIndex {
	si := &systemIndex{
		pitch: pitch,
		base:  make([][]int32, set.Len()),
		rhs:   make([][]uint8, set.Len()),
	}
	for ci := range set.Cubes {
		c := set.Cubes[ci]
		spec := c.SpecifiedCount()
		base := make([]int32, 0, spec)
		rhs := make([]uint8, 0, spec)
		for pos := c.Mask.FirstSet(); pos >= 0; pos = c.Mask.NextSet(pos + 1) {
			ch, depth := geo.Cell(pos)
			base = append(base, int32((geo.ShiftCycle(depth)*geo.Chains+ch)*pitch))
			rhs = append(rhs, c.Value.Bit(pos))
		}
		si.base[ci] = base
		si.rhs[ci] = rhs
	}
	return si
}

// TablesCache memoizes shared Tables per standard decompressor
// configuration, so experiment sweeps, EncodeAutoCtx variant retries and
// repeated benchmark encodes stop recomputing identical symbolic
// simulations. It is safe for concurrent use: the first caller of a key
// builds (singleflight) while later callers of the same key block on that
// slot, so every configuration is built exactly once no matter how many
// tenants race on it. SetMax bounds the cache with LRU eviction for
// long-lived multi-tenant processes; the default is unbounded.
//
// The key includes the window length because the standard phase shifter's
// separation window — and therefore its taps — depends on L·Length; only a
// caller that holds one decompressor fixed across window lengths (a Config
// with explicit LFSR/PS plus Config.Tables) gets cross-L prefix reuse.
type TablesCache struct {
	mu     sync.Mutex
	m      *lru.Cache[tabKey, *tabSlot] // guarded by mu
	builds atomic.Int64
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

// NewTablesCache returns an empty, unbounded cache.
func NewTablesCache() *TablesCache {
	return &TablesCache{m: lru.New[tabKey, *tabSlot](0)}
}

// SetMax bounds the cache to max configurations (0 = unbounded), evicting
// least-recently-used entries immediately if the bound is already
// exceeded. An evicted configuration is simply rebuilt on next use;
// Tables snapshots already handed out stay valid.
func (c *TablesCache) SetMax(max int) {
	c.mu.Lock()
	c.m.SetMax(max)
	c.mu.Unlock()
}

// Len returns the number of cached configurations.
func (c *TablesCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Len()
}

// Builds returns how many Tables builds the cache has performed over its
// lifetime. Concurrency stress tests use it to assert exactly-once builds.
func (c *TablesCache) Builds() int64 { return c.builds.Load() }

// Evictions returns how many configurations LRU eviction has dropped.
func (c *TablesCache) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Evictions()
}

// TablesFor returns the shared Tables of the standard decompressor with
// the given parameters (see StandardConfigVariant), building them at most
// once per configuration.
func (c *TablesCache) TablesFor(n, width, chains, L int, variant uint64) (*Tables, error) {
	k := tabKey{n: n, width: width, chains: chains, L: L, variant: variant}
	c.mu.Lock()
	slot, ok := c.m.Get(k)
	if !ok {
		slot = &tabSlot{}
		c.m.Add(k, slot)
	}
	c.mu.Unlock()
	slot.once.Do(func() {
		c.builds.Add(1)
		cfg, err := StandardConfigVariant(n, width, chains, L, variant)
		if err != nil {
			slot.err = err
			return
		}
		slot.t, slot.err = NewTables(cfg.LFSR, cfg.PS, cfg.Geo)
	})
	return slot.t, slot.err
}
