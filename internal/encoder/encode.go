package encoder

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/lfsr"
	"repro/internal/phaseshifter"
	"repro/internal/prng"
	"repro/internal/scan"
)

// Config describes one encoding run.
type Config struct {
	LFSR *lfsr.LFSR                 // the register each seed is loaded into
	PS   *phaseshifter.PhaseShifter // spreads LFSR cells onto the scan chains
	Geo  scan.Geometry              // scan chains the vectors are shifted into
	// WindowLen is L, the number of vectors each seed expands into.
	// L = 1 is classical reseeding.
	WindowLen int
	// FillSeed keys the deterministic PRNG that fills free seed variables.
	FillSeed uint64
	// Workers bounds the candidate-scan parallelism; 0 means GOMAXPROCS.
	Workers int
	// NoPruning disables monotone feasibility pruning (ablation hook; the
	// result is identical, only slower).
	NoPruning bool
	// Tables optionally supplies prebuilt shared symbolic tables. They must
	// wrap this Config's exact LFSR, PS and Geo values and be built for
	// WindowLen. Nil builds private tables.
	Tables *Tables
}

// Assignment records where one cube was deterministically embedded.
type Assignment struct {
	Cube int // index into the input cube set
	Pos  int // window position (vector index within the seed's window)
}

// Seed is one computed LFSR seed together with the cubes it encodes.
type Seed struct {
	Value       gf2.Vec      // the n-bit LFSR state loaded at window start
	Assignments []Assignment // cubes deliberately embedded in this window
}

// Encoding is the result of compressing a cube set.
type Encoding struct {
	Cfg   Config    // the decompressor the seeds were computed for
	Set   *cube.Set // the encoded cube set; Assignment.Cube indexes it
	Seeds []Seed    // in the order the decompressor loads them
	// ChecksPerformed counts the seed loop's linear-system consistency
	// checks, a measure of encoder effort used by the pruning ablation.
	// The fresh-window screen that runs before the loop is not counted.
	ChecksPerformed int64
	// TableBuildTime is the wall time this encoding spent materialising
	// symbolic tables and its equation index — only the index when
	// Config.Tables already held the built arena.
	TableBuildTime time.Duration
}

// TDV returns the test data volume in bits: seeds × n.
func (e *Encoding) TDV() int { return len(e.Seeds) * e.Cfg.LFSR.Size() }

// TSL returns the test sequence length, in vectors, of the original
// window-based scheme: every seed expands into a full window.
func (e *Encoding) TSL() int { return len(e.Seeds) * e.Cfg.WindowLen }

// EncodeCtx compresses the cube set into LFSR seeds. The input set is not
// modified. EncodeCtx fails if some cube cannot be embedded anywhere even by
// a dedicated seed (the LFSR is too small for the test set).
//
// Cancellation is cooperative: every candidate-scan worker polls the
// context once per checkStride consistency checks (on a seed the basis
// already determines, whose window positions are decided up to 64 per
// step, at least once per checkStride+63) and the seed-construction loop
// polls it once per seed, so a cancel or deadline stops the encoder
// within microseconds of the engines noticing.
// A cancelled encode returns an error wrapping context.Canceled or
// context.DeadlineExceeded; an uncancelled run is bit-identical for any
// live context.
func EncodeCtx(ctx context.Context, cfg Config, set *cube.Set) (*Encoding, error) {
	if cfg.WindowLen < 1 {
		return nil, fmt.Errorf("encoder: window length %d must be ≥ 1", cfg.WindowLen)
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("encoder: empty cube set")
	}
	if set.Width != cfg.Geo.Width {
		return nil, fmt.Errorf("encoder: cube width %d != scan width %d", set.Width, cfg.Geo.Width)
	}
	tabs := cfg.Tables
	if tabs == nil {
		var err error
		tabs, err = NewTables(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
		if err != nil {
			return nil, err
		}
	} else if tabs.l != cfg.LFSR || tabs.ps != cfg.PS || tabs.geo != cfg.Geo {
		return nil, fmt.Errorf("encoder: Config.Tables built for a different decompressor")
	} else if tabs.winLen != cfg.WindowLen {
		return nil, fmt.Errorf("encoder: Config.Tables built for window length %d, not %d", tabs.winLen, cfg.WindowLen)
	}
	t0 := time.Now()
	table, err := tabs.ExprTableCtx(ctx)
	if err != nil {
		return nil, err
	}
	sys := newSystemIndex(set, cfg.Geo, cfg.WindowLen)
	built := time.Since(t0)
	enc, err := encodeWithTable(ctx, cfg, set, table, sys)
	if err != nil {
		return nil, err
	}
	enc.TableBuildTime = built
	return enc, nil
}

// candidate is one solvable (cube, position) system found during a scan.
type candidate struct {
	cube    int
	pos     int
	rankInc int
}

// scanView is one worker's private probe state: a lazily reduced copy of
// the expression table (see gf2.ReducedTable) plus elimination scratch.
// Views persist across tiers and seeds, so a (cube, position) re-probed
// after a commit only folds in the basis rows added since the last probe
// instead of re-eliminating against the whole basis. tick amortizes the
// worker's context polls across checkStride consistency checks.
type scanView struct {
	view    *gf2.ReducedTable
	scratch gf2.CheckScratch
	tick    int
}

// inlineScanPairs is the fewest still-feasible (cube, position) pairs a
// tier must hold before scanTier splits it across workers; smaller tiers
// are scanned on view 0 by the calling goroutine. A split pays for
// spawning the workers and for each private view catching its cached rows
// up to the basis, which a tier of a few dozen checks does not repay:
// s38417 at L = 1 on the paper scale runs 21,348 tiers of 19 checks on
// average, and two workers encoded it 25–35 % slower than one when every
// tier was split. On a 2-vCPU Xeon (Go 1.24, eight alternating rounds),
// the paper-scale compress-paper encodes at two workers took a median
// 964 ms in total with a cut-off of 128, against 983 ms splitting every
// tier, 1,017 ms at 512 and 1,011 ms at 2,048.
//
// Tiers of a determined seed always run inline, whatever their size, so
// one goroutine owns the seed's planes and can build each on first use
// (see buildPlane). Splitting them bought nothing: with every plane built
// up front, six alternating rounds of paper-scale BenchmarkCompressPhases
// at two workers on the same host gave the s13207 L = 200 encode a median
// 468 ms split at this cut-off and 462 ms inline; building on first use
// then took it to 423 ms against 460 ms (six more rounds).
const inlineScanPairs = 128

// scanTierHook, when non-nil, is called by every scanTier with the tier's
// feasible pair count (counted only when more than one worker could take
// the tier, 0 otherwise), whether the tier was split across workers and
// whether it scans a determined seed's planes. Tests set it to prove every
// scan path ran.
var scanTierHook func(pairs int, split, fixed bool)

// symbolicScanOnly, when set, keeps every seed on the symbolic scan even
// after its basis reaches full rank. Tests set it to run the determined-
// seed shortcut (fixSeed, scanCubeFixed) against the scan it replaces.
var symbolicScanOnly bool

// checkStride is how many consistency checks a scan worker performs
// between context polls. One CheckSystem costs tens of nanoseconds at
// minimum, so polling every 256 checks keeps cancellation latency in the
// tens of microseconds while the amortized poll cost stays below
// measurement noise.
const checkStride = 256

// pollCtx advances a worker's poll tick by the checks it is about to
// perform and, once the tick reaches checkStride, checks the encode
// context. A fired context trips the shared stop flag so every other
// worker bails at its next cube claim.
func (st *encodeState) pollCtx(v *scanView, checks int) bool {
	if v.tick += checks; v.tick >= checkStride {
		v.tick = 0
		if st.ctx.Err() != nil {
			st.stop.Store(true)
			return true
		}
	}
	return false
}

type encodeState struct {
	ctx     context.Context
	cfg     Config
	set     *cube.Set
	table   *ExprTable
	sys     *systemIndex
	n       int
	L       int
	workers int

	// spec[cube] is the cube's specified-bit count. order holds cube
	// indices sorted by descending spec; tiers are contiguous runs of
	// equal counts.
	spec      []int
	order     []int
	remaining []bool // indexed by cube: still to be encoded
	nRemain   int

	// feasible is one bitset row of feasWords words per cube: bit p of
	// row ci is set while position p is not yet proven unsolvable for the
	// current seed.
	feasible  []uint64
	feasWords int

	solver *gf2.Solver
	views  []*scanView
	eqBuf  []gf2.Equation
	checks int64

	// fixed is set once the current seed's basis reaches full rank; the
	// seed is then its one solution, seedVal, the fixedSeeds-th of the
	// encode (see fixSeed). planes holds that seed's window slot by slot,
	// each slot's plane built on first use: bit b of
	// planes[s·feasWords+w] is the bit output slot s feeds at window
	// position 64w+b, current while planeSeed[s] == fixedSeeds. Cube
	// ci's k-th specified bit reads slot sys.base[ci][k] / L.
	fixed      bool
	seedVal    gf2.Vec
	fixedSeeds uint32
	planes     []uint64
	planeSeed  []uint32

	// Scan buffers reused across tiers: the cubes of the tier being
	// scanned, and results[ti], the solvable positions of cube tier[ti].
	tier    []int
	results [][]candidate

	// stop is tripped by the first worker that observes a fired context;
	// the other scan workers poll it per cube claim and bail early.
	stop atomic.Bool
}

func encodeWithTable(ctx context.Context, cfg Config, set *cube.Set, table *ExprTable, sys *systemIndex) (*Encoding, error) {
	st := &encodeState{
		ctx:     ctx,
		cfg:     cfg,
		set:     set,
		table:   table,
		sys:     sys,
		n:       cfg.LFSR.Size(),
		L:       cfg.WindowLen,
		workers: cfg.Workers,
	}
	if st.workers <= 0 {
		st.workers = runtime.GOMAXPROCS(0)
	}
	st.spec = make([]int, set.Len())
	st.order = make([]int, set.Len())
	for i := range st.order {
		st.spec[i] = set.Cubes[i].SpecifiedCount()
		st.order[i] = i
	}
	sort.SliceStable(st.order, func(a, b int) bool {
		return st.spec[st.order[a]] > st.spec[st.order[b]]
	})
	st.remaining = make([]bool, set.Len())
	for i := range st.remaining {
		st.remaining[i] = true
	}
	st.nRemain = set.Len()
	st.feasWords = (st.L + 63) / 64
	st.feasible = make([]uint64, set.Len()*st.feasWords)
	st.solver = gf2.NewSolver(st.n)
	st.views = make([]*scanView, st.workers)

	if err := st.screen(); err != nil {
		return nil, err
	}
	enc := &Encoding{Cfg: cfg, Set: set}
	fill := prng.New(cfg.FillSeed)
	for st.nRemain > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("encoder: encode stopped after %d seeds (%d/%d cubes): %w",
				len(enc.Seeds), set.Len()-st.nRemain, set.Len(), err)
		}
		seed, err := st.buildSeed(fill)
		if err != nil {
			return nil, err
		}
		enc.Seeds = append(enc.Seeds, seed)
	}
	enc.ChecksPerformed = st.checks
	return enc, nil
}

// viewFor lazily creates the probe state of one worker; unused workers
// never pay for their reduced-table copy.
func (st *encodeState) viewFor(w int) *scanView {
	if st.views[w] == nil {
		st.views[w] = &scanView{view: gf2.NewReducedTable(st.solver, st.table.Rows())}
	}
	return st.views[w]
}

// screen rejects an unencodable cube set before any seed is built: it
// probes every cube, densest first, at positions 0..L−1 of a fresh window
// until one is solvable. Constraints only grow, so a cube with no solvable
// position in a fresh window is never committed; it stays remaining until
// it becomes some seed's first cube, and the first such cube in order is
// the one the seed loop would report. screen returns that exact error
// without paying for the seeds that would precede it — the whole cost of
// a phase-shifter variant that turns out unencodable. Its probes are not
// counted in ChecksPerformed, which stays the seed loop's effort.
func (st *encodeState) screen() error {
	st.solver.Reset()
	v0 := st.viewFor(0)
	for _, ci := range st.order {
		pos, _, err := st.firstSolvable(v0, ci)
		if err != nil {
			return fmt.Errorf("encoder: encode stopped screening cube %d: %w", ci, err)
		}
		if pos < 0 {
			return fmt.Errorf("encoder: cube %d (%d specified bits) cannot be embedded anywhere in a fresh window; increase the LFSR size (n=%d)", ci, st.spec[ci], st.n)
		}
	}
	return nil
}

// firstSolvable probes cube ci at window positions 0, 1, … through view v
// against the current basis and returns the first solvable position (-1
// if none) with the number of consistency checks performed, or the
// context's error if the encode was cancelled.
func (st *encodeState) firstSolvable(v *scanView, ci int) (pos int, checks int64, err error) {
	for p := 0; p < st.L; p++ {
		if st.pollCtx(v, 1) {
			return -1, checks, st.ctx.Err()
		}
		checks++
		if _, ok := v.view.CheckSystem(st.sys.base[ci], int32(p), st.sys.rhs[ci], &v.scratch); ok {
			return p, checks, nil
		}
	}
	return -1, checks, nil
}

// buildSeed constructs one seed: it commits the densest remaining cube at
// the earliest solvable window position, then greedily folds in more cubes
// per the paper's criteria until nothing else fits.
func (st *encodeState) buildSeed(fill *prng.Source) (Seed, error) {
	st.solver.Reset()
	st.fixed = false
	for ci, rem := range st.remaining {
		if rem {
			feas := st.feasRow(ci)
			for i := range feas {
				feas[i] = ^uint64(0)
			}
			// Positions past L stay clear in the last word.
			feas[len(feas)-1] >>= uint(len(feas)*64 - st.L)
		}
	}

	var seed Seed
	v0 := st.viewFor(0)

	// First cube: densest remaining, at the first solvable position
	// (position 0 in the common case the paper assumes).
	first := -1
	for _, ci := range st.order {
		if st.remaining[ci] {
			first = ci
			break
		}
	}
	firstPos, checks, err := st.firstSolvable(v0, first)
	st.checks += checks
	if err != nil {
		return Seed{}, fmt.Errorf("encoder: encode stopped scanning cube %d: %w", first, err)
	}
	if firstPos < 0 {
		panic("encoder: a screened cube has no solvable position in a fresh window")
	}
	st.commit(first, firstPos, &seed)

	for {
		cand, ok, err := st.scanTiers()
		if err != nil {
			return Seed{}, err
		}
		if !ok {
			break
		}
		st.commit(cand.cube, cand.pos, &seed)
	}

	if st.fixed {
		seed.Value = st.seedVal
	} else {
		seed.Value = st.solver.Solution(func(int) uint8 { return fill.Bit() })
	}
	return seed, nil
}

// commit folds the system of cube ci at window position pos into the
// basis and records the assignment. The system was verified consistent by
// the check that nominated it, against this same basis, so each equation
// is added directly; an inconsistency is a bug. On a determined seed the
// system adds nothing to the basis, so only the assignment is recorded.
func (st *encodeState) commit(ci, pos int, seed *Seed) {
	if !st.fixed {
		st.eqBuf = st.table.Equations(st.set.Cubes[ci], pos, st.eqBuf[:0])
		for _, eq := range st.eqBuf {
			if _, ok := st.solver.Add(eq); !ok {
				panic("encoder: committing a system that was just verified solvable")
			}
		}
		if st.solver.FreeVars() == 0 && !symbolicScanOnly {
			st.fixSeed()
		}
	}
	seed.Assignments = append(seed.Assignments, Assignment{Cube: ci, Pos: pos})
	st.remaining[ci] = false
	st.nRemain--
}

// fixSeed switches the rest of the seed's construction to bit planes once
// its basis has full rank. The seed is then the basis's only solution, so
// Solution draws no fill bit, and a (cube, position) system is consistent
// iff that seed's window carries the cube there, with rank increase 0.
func (st *encodeState) fixSeed() {
	st.fixed = true
	st.fixedSeeds++
	st.seedVal = st.solver.Solution(func(int) uint8 { return 0 }) // no variable is free
	if st.planes == nil {
		// The encode's first determined seed sizes the planes; encodes
		// that never determine a seed do not pay for them.
		slots := st.table.Rows().Count() / st.L
		st.planes = make([]uint64, slots*st.feasWords)
		st.planeSeed = make([]uint32, slots)
	}
}

// buildPlane builds output slot s's plane on the determined seed: the
// slot's L expression rows of the arena evaluated at the seed, 64 window
// positions to a word. scanCubeFixed builds each plane on first use: its
// AND chains stop early, so a seed's scan reads only a fraction of the
// slots. Tiers of a determined seed run inline (see inlineScanPairs), so
// one goroutine owns the planes.
func (st *encodeState) buildPlane(s int32) {
	off := int(s) * st.feasWords
	st.table.Rows().DotWords(st.seedVal, int(s)*st.L, st.L, st.planes[off:off+st.feasWords])
	st.planeSeed[s] = st.fixedSeeds
}

// scanTiers walks specified-count tiers in descending order and returns the
// winning candidate of the first tier that has any solvable system, applying
// the paper's tie-breaks.
func (st *encodeState) scanTiers() (candidate, bool, error) {
	i := 0
	for i < len(st.order) {
		// Delimit the next tier of equal specified counts, skipping
		// already-encoded cubes.
		for i < len(st.order) && !st.remaining[st.order[i]] {
			i++
		}
		if i >= len(st.order) {
			return candidate{}, false, nil
		}
		spec := st.spec[st.order[i]]
		st.tier = st.tier[:0]
		for i < len(st.order) && st.spec[st.order[i]] == spec {
			if st.remaining[st.order[i]] {
				st.tier = append(st.tier, st.order[i])
			}
			i++
		}
		cand, ok, err := st.scanTier(st.tier)
		if err != nil {
			return candidate{}, false, err
		}
		if ok {
			return cand, true, nil
		}
	}
	return candidate{}, false, nil
}

// feasRow returns cube ci's feasibility bitset row.
func (st *encodeState) feasRow(ci int) []uint64 {
	return st.feasible[ci*st.feasWords : (ci+1)*st.feasWords]
}

// scanCube probes every still-feasible position of one cube through a
// worker's reduced view, in ascending position order. Positions proven
// unsolvable are pruned for the rest of this seed's construction
// (constraints only grow, so unsolvable stays unsolvable); under
// NoPruning the row keeps every position of the window set.
func (st *encodeState) scanCube(v *scanView, ci int, out *[]candidate) int64 {
	if st.fixed {
		return st.scanCubeFixed(v, ci, out)
	}
	feas := st.feasRow(ci)
	base, rhs := st.sys.base[ci], st.sys.rhs[ci]
	var local int64
	for wi := range feas {
		for m := feas[wi]; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if st.pollCtx(v, 1) {
				return local // cancelled: the caller discards this tier's scan
			}
			local++
			p := wi*64 + b
			inc, ok := v.view.CheckSystem(base, int32(p), rhs, &v.scratch)
			if !ok {
				if !st.cfg.NoPruning {
					feas[wi] &^= 1 << uint(b)
				}
				continue
			}
			*out = append(*out, candidate{cube: ci, pos: p, rankInc: inc})
		}
	}
	return local
}

// scanCubeFixed is scanCube on a determined seed. It decides a word of 64
// feasible positions at once: the AND over the cube's specified bits of
// the plane word of the bit's slot, inverted where the cube wants a 0,
// stopping as soon as no position is left. Every solvable position is a
// candidate of rank increase 0, and every feasible position counts as one
// check, exactly the pairs the symbolic scan would have probed; pruning
// clears the positions that failed, as it does there.
func (st *encodeState) scanCubeFixed(v *scanView, ci int, out *[]candidate) int64 {
	feas := st.feasRow(ci)
	base, rhs := st.sys.base[ci], st.sys.rhs[ci]
	L, W := int32(st.L), st.feasWords
	var local int64
	for wi, f := range feas {
		if f == 0 {
			continue
		}
		c := bits.OnesCount64(f)
		if st.pollCtx(v, c) {
			return local // cancelled: the caller discards this tier's scan
		}
		local += int64(c)
		acc := f
		for k, b := range base {
			s := b / L
			if st.planeSeed[s] != st.fixedSeeds {
				st.buildPlane(s)
			}
			// rhs 1 keeps the plane word, rhs 0 (all-ones mask) inverts it.
			acc &= st.planes[int(s)*W+wi] ^ (uint64(rhs[k]) - 1)
			if acc == 0 {
				break
			}
		}
		if !st.cfg.NoPruning {
			feas[wi] = acc
		}
		for m := acc; m != 0; m &= m - 1 {
			*out = append(*out, candidate{cube: ci, pos: wi*64 + bits.TrailingZeros64(m)})
		}
	}
	return local
}

// scanTier checks every still-feasible (cube, position) pair of one tier:
// fanned out over the persistent worker views when the tier holds at least
// inlineScanPairs pairs and the seed is not yet determined, on view 0
// otherwise. The basis is immutable for the whole scan, each view and each
// cube's feasibility row is owned by exactly one goroutine at a time, and
// results are index-addressed — so the tie-breaks below see the same
// candidate set for any worker count.
func (st *encodeState) scanTier(tier []int) (candidate, bool, error) {
	for len(st.results) < len(tier) {
		st.results = append(st.results, nil)
	}
	results := st.results[:len(tier)]
	for ti := range results {
		results[ti] = results[ti][:0]
	}
	var checkCount int64
	workers := st.workers
	if workers > len(tier) {
		workers = len(tier)
	}
	if st.fixed {
		workers = 1
	}
	pairs := 0
	if workers > 1 {
		for _, ci := range tier {
			for _, w := range st.feasRow(ci) {
				pairs += bits.OnesCount64(w)
			}
		}
		if pairs < inlineScanPairs {
			workers = 1
		}
	}
	if scanTierHook != nil {
		scanTierHook(pairs, workers > 1, st.fixed)
	}
	if workers <= 1 {
		v := st.viewFor(0)
		for ti, ci := range tier {
			if st.stop.Load() {
				break
			}
			checkCount += st.scanCube(v, ci, &results[ti])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			v := st.viewFor(w)
			wg.Add(1)
			go func(v *scanView) {
				defer wg.Done()
				var local int64
				for !st.stop.Load() {
					ti := int(next.Add(1)) - 1
					if ti >= len(tier) {
						break
					}
					local += st.scanCube(v, tier[ti], &results[ti])
				}
				mu.Lock()
				checkCount += local
				mu.Unlock()
			}(v)
		}
		wg.Wait()
	}
	st.checks += checkCount
	if st.stop.Load() {
		// A cancelled scan saw only part of its tier; its candidates must
		// not influence a committed encoding.
		return candidate{}, false, fmt.Errorf("encoder: candidate scan stopped: %w", st.ctx.Err())
	}

	// Tie-break 1: fewest replaced variables (minimum rank increase).
	minInc := -1
	for _, cands := range results {
		for _, c := range cands {
			if minInc < 0 || c.rankInc < minInc {
				minInc = c.rankInc
			}
		}
	}
	if minInc < 0 {
		return candidate{}, false, nil
	}
	// Tie-break 2: the cube encodable at the fewest window positions.
	// results[ti] holds exactly the solvable positions of cube tier[ti].
	best := candidate{cube: -1}
	bestCount := 0
	for _, cands := range results {
		cnt := len(cands)
		for _, c := range cands {
			if c.rankInc != minInc {
				continue
			}
			if best.cube < 0 ||
				cnt < bestCount ||
				// Tie-break 3: nearest to the start of the window.
				(cnt == bestCount && c.pos < best.pos) ||
				(cnt == bestCount && c.pos == best.pos && c.cube < best.cube) {
				best = c
				bestCount = cnt
			}
		}
	}
	return best, true, nil
}
