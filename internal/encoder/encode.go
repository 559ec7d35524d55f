package encoder

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
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
	// Tables optionally supplies prebuilt shared symbolic tables. They must
	// wrap this Config's exact LFSR, PS and Geo values and be built for
	// WindowLen. Nil builds private tables. An Encoding's Cfg always holds
	// the tables it was encoded against, built.
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
	// Config.Tables already held the built arena — plus the column arena
	// its scan builds when it first decides a window word bit-sliced (at
	// any L, an L = 1 tier with more than gf2.ProjectedFree free variables
	// included), and, at L = 1, the projected rows it builds when it first
	// checks on them.
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
// The encode runs in the calling goroutine. Cancellation is cooperative:
// the candidate scan polls the context once per checkStride consistency
// checks (at least once per checkStride+63 where a bit-sliced word decides
// up to 64 window positions in one step) and the seed-construction loop
// polls it once per seed, so a cancel or deadline stops the encoder within
// microseconds of the engines noticing.
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
		cfg.Tables = tabs
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
	enc.TableBuildTime += built
	return enc, nil
}

// candidate is one solvable (cube, position) system found during a scan.
type candidate struct {
	cube    int
	pos     int
	rankInc int
}

// tierScan describes one scanned tier to scanTierHook: its cubes, the
// basis's free variables, and the tier's path with its work: the
// still-feasible pairs it checks one position at a time on projected rows
// (projected set), or the window words with a feasible position it
// decides bit-sliced.
type tierScan struct {
	cubes, projPairs, slicedWords, free int
	projected                           bool
}

// scanTierHook, when non-nil, is called by every scanTier before it scans.
// Tests set it to prove every scan path ran.
var scanTierHook func(tierScan)

// noPruning, when set, disables monotone feasibility pruning: every
// position of the window stays in a cube's feasibility row for the whole
// seed. The encoding is identical, only ChecksPerformed grows. Tests only.
var noPruning bool

// checkStride is how many consistency checks the scan performs
// between context polls. One position's check costs tens of nanoseconds at
// minimum, so polling every 256 checks keeps cancellation latency in the
// tens of microseconds while the amortized poll cost stays below
// measurement noise.
const checkStride = 256

// pollCtx advances the poll tick by the checks the scan is about to
// perform and, once the tick reaches checkStride, checks the encode
// context. A fired context sets stop, so the tier's scan bails at its
// next cube.
func (st *encodeState) pollCtx(checks int) bool {
	if st.tick += checks; st.tick >= checkStride {
		st.tick = 0
		if st.ctx.Err() != nil {
			st.stop = true
			return true
		}
	}
	return false
}

// encodeState is one encode's seed loop: the cubes still to place, their
// feasible window positions, the seed's basis, and the scan's two
// checkers. At L > 1, and at L = 1 while the basis has more than
// gf2.ProjectedFree free variables, the scan decides each window word of
// a cube bit-sliced (sliceWord), on plane blocks built from the column
// arena cols; otherwise (L = 1) it checks the one position of each cube
// on the projected rows proj. Solver.Add is the one way a constraint
// enters the basis: a seed's first cube, and every probe of the
// fresh-window screen, is probed at rank 0 by adding its equations to an
// empty basis (firstSolvable), and every later cube is committed the same
// way (commit).
type encodeState struct {
	ctx   context.Context
	table *ExprTable
	sys   *systemIndex
	n     int
	L     int

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

	// solver holds the seed's basis; tick amortizes context polls across
	// checkStride consistency checks.
	solver *gf2.Solver
	tick   int
	checks int64

	// proj holds the expression rows in the basis's free coordinates for
	// classical reseeding, built on the encode's first projected check.
	// sliced is set while the tier being scanned decides window words
	// bit-sliced: at every L > 1, and at L = 1 above gf2.ProjectedFree
	// free variables; the tier checks on proj otherwise.
	proj   *gf2.ProjectedTable
	sliced bool

	// epoch names the current basis: it moves on whenever the basis
	// changes (a seed's first cube, committed by its probe on a reset
	// basis, or a later commit that raises the rank), and a
	// plane block is current while it carries it. aff is the
	// basis's affine form (free variables, null-space generators and
	// zero-fill solution), current while affEpoch == epoch; free is the
	// basis's free-variable count, set per tier. cols is the column arena
	// the planes are built from (ExprTable.ColumnBlocks: block s·feasWords
	// + w holds output slot s at window positions 64w … 64w+63), built on
	// the encode's first sliced word; colBuild times it and the projected
	// rows' build.
	epoch, affEpoch uint32
	aff             gf2.Affine
	free            int
	slots           int
	cols            []uint64
	colBuild        time.Duration

	// planes holds one block of free+1 lane words per (output slot, window
	// word) pair, current while planeEpoch of the pair equals epoch: word
	// i < free is the plane of free variable i, word free the plane of the
	// zero-fill solution (see block). pivMask, pivRows and eq are
	// sliceWord's lane elimination scratch: pivMask[i] marks the lanes
	// holding a pivot row for free variable i, stored at
	// pivRows[i·(free+1):], and eq is the equation being reduced.
	planes               []uint64
	planeEpoch           []uint32
	pivMask, pivRows, eq []uint64

	// Scan buffers reused across tiers: the cubes of the tier being
	// scanned, and results[ti], the solvable positions of cube tier[ti].
	tier    []int
	results [][]candidate

	// stop is set by the poll that observes a fired context; the scan
	// checks it per cube and bails early.
	stop bool
}

func encodeWithTable(ctx context.Context, cfg Config, set *cube.Set, table *ExprTable, sys *systemIndex) (*Encoding, error) {
	st := &encodeState{
		ctx:   ctx,
		table: table,
		sys:   sys,
		n:     cfg.LFSR.Size(),
		L:     cfg.WindowLen,
		epoch: 1,
		slots: table.Rows().Count() / cfg.WindowLen,
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
	enc.TableBuildTime = st.colBuild
	return enc, nil
}

// screen rejects an unencodable cube set before any seed is built: it
// probes every cube, densest first, at positions 0..L−1 of a fresh window
// (firstSolvable, on the seed loop's basis) until one is solvable.
// Constraints only grow, so a cube with no solvable position in a fresh
// window is never committed; it stays remaining until it becomes some
// seed's first cube, and the first such cube in order is the one the seed
// loop would report. screen returns that exact error
// without paying for the seeds that would precede it — the whole cost of
// a phase-shifter variant that turns out unencodable. Its probes are not
// counted in ChecksPerformed, which stays the seed loop's effort.
func (st *encodeState) screen() error {
	for _, ci := range st.order {
		pos, _, err := st.firstSolvable(ci)
		if err != nil {
			return fmt.Errorf("encoder: encode stopped screening cube %d: %w", ci, err)
		}
		if pos < 0 {
			return fmt.Errorf("encoder: cube %d (%d specified bits) cannot be embedded anywhere in a fresh window; increase the LFSR size (n=%d)", ci, st.spec[ci], st.n)
		}
	}
	return nil
}

// firstSolvable probes cube ci at window positions 0, 1, … of a fresh
// window: each probe resets the basis and adds the cube's equations at
// that position through Solver.Add, and an inconsistency moves on to the
// next position. It returns the first solvable position, with the cube's
// system at that position left committed as the whole basis, or -1 if
// none is, with the number of probes performed (one check each), or the
// context's error if the encode was cancelled.
func (st *encodeState) firstSolvable(ci int) (pos int, checks int64, err error) {
	for p := 0; p < st.L; p++ {
		if st.pollCtx(1) {
			return -1, checks, st.ctx.Err()
		}
		checks++
		st.solver.Reset()
		if st.add(ci, p) {
			return p, checks, nil
		}
	}
	return -1, checks, nil
}

// add folds the equations of cube ci at window position pos into the
// basis through Solver.Add, one per specified bit, and reports whether
// they were consistent. On an inconsistency the equations before it stay
// folded in.
func (st *encodeState) add(ci, pos int) bool {
	rows := st.table.Rows()
	rhs := st.sys.rhs[ci]
	for k, b := range st.sys.base[ci] {
		if _, ok := st.solver.Add(gf2.Equation{Coeffs: rows.Row(int(b) + pos), RHS: rhs[k]}); !ok {
			return false
		}
	}
	return true
}

// buildSeed constructs one seed: it commits the densest remaining cube at
// the earliest solvable window position, then greedily folds in more cubes
// per the paper's criteria until nothing else fits.
func (st *encodeState) buildSeed(fill *prng.Source) (Seed, error) {
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

	// First cube: densest remaining, at the first solvable position
	// (position 0 in the common case the paper assumes). Its probe leaves
	// it committed on a fresh basis, so the seed's plane blocks are stale.
	first := -1
	for _, ci := range st.order {
		if st.remaining[ci] {
			first = ci
			break
		}
	}
	firstPos, checks, err := st.firstSolvable(first)
	st.checks += checks
	if err != nil {
		return Seed{}, fmt.Errorf("encoder: encode stopped scanning cube %d: %w", first, err)
	}
	if firstPos < 0 {
		panic("encoder: a screened cube has no solvable position in a fresh window")
	}
	st.epoch++
	st.record(first, firstPos, &seed)

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

	// A full-rank basis has no free variable, so it draws no fill bit.
	seed.Value = st.solver.Solution(func(int) uint8 { return fill.Bit() })
	return seed, nil
}

// commit folds the system of cube ci at window position pos into the
// basis (add) and records the assignment. The system was verified
// consistent by the check that nominated it, against this same basis, so
// an inconsistency is a bug. A commit that raises the rank moves the
// epoch on; on a determined seed the system adds nothing to the basis, so
// only the assignment is recorded, and the seed's plane blocks stay
// current. A seed's first cube is committed by its probe and only
// recorded.
func (st *encodeState) commit(ci, pos int, seed *Seed) {
	if st.solver.FreeVars() > 0 {
		rank := st.solver.Rank()
		if !st.add(ci, pos) {
			panic("encoder: committing a system that was just verified solvable")
		}
		if st.solver.Rank() != rank {
			st.epoch++
		}
	}
	st.record(ci, pos, seed)
}

// record appends cube ci's assignment at pos to seed and retires the cube.
func (st *encodeState) record(ci, pos int, seed *Seed) {
	seed.Assignments = append(seed.Assignments, Assignment{Cube: ci, Pos: pos})
	st.remaining[ci] = false
	st.nRemain--
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

// scanCube probes every still-feasible position of one cube in ascending
// window words. In a tier that slices, each word is decided in one
// sliceWord call, all its positions at once; otherwise (L = 1) the one
// position is checked on the projected rows. Positions proven unsolvable
// are pruned for the rest of this seed's construction (constraints only
// grow, so unsolvable stays unsolvable); under noPruning the row keeps
// every position of the window set. Either way each feasible position counts as
// one check. A poll that finds the encode cancelled sets stop and ends
// the scan; the caller discards the tier's candidates.
func (st *encodeState) scanCube(ci int, out *[]candidate) {
	feas := st.feasRow(ci)
	for wi, f := range feas {
		if f == 0 {
			continue
		}
		if st.sliced {
			lanes := bits.OnesCount64(f)
			if st.sliceWord(ci, wi, lanes, out) {
				return
			}
			st.checks += int64(lanes)
			continue
		}
		for m := f; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if st.pollCtx(1) {
				return
			}
			st.checks++
			p := wi*64 + b
			inc, ok := st.proj.CheckSystem(st.sys.base[ci], int32(p), st.sys.rhs[ci])
			if !ok {
				if !noPruning {
					feas[wi] &^= 1 << uint(b)
				}
				continue
			}
			*out = append(*out, candidate{cube: ci, pos: p, rankInc: inc})
		}
	}
}

// sliceWord decides every still-feasible position of cube ci's window
// word wi at once, lanes of them, and appends a candidate for each
// position whose system is consistent with the basis. Pruning keeps
// exactly those positions, and the lanes count as that many checks
// towards the context poll; it reports whether the poll found the
// encode cancelled.
//
// It works in the basis's free-variable coordinates (gf2.Affine): lane b
// of a slot's plane block holds the slot's expression at window position
// 64·wi+b as an affine function of the free variables, so every equation
// is one word per free variable plus a constant word, 64 positions to a
// word. Forward elimination then runs across the 64 lanes at once: each
// free variable keeps a mask of the lanes that hold a pivot row for it
// and those rows, masked by lane; an equation folds in the pivot rows of
// the lanes that hit them and becomes a pivot row in the lanes that do
// not; a lane dies when one of its equations reduces to 0 = 1. The rank
// increase of a surviving position is the number of pivot rows placed in
// its lane. With no free variable (a determined seed) there is nothing to
// eliminate: each equation is its slot's plane of the seed against rhs,
// and every survivor has rank increase 0.
func (st *encodeState) sliceWord(ci, wi, lanes int, out *[]candidate) bool {
	if st.pollCtx(lanes) {
		return true
	}
	if st.affEpoch != st.epoch {
		st.prepareSliced()
	}
	feas := st.feasRow(ci)
	base, rhs := st.sys.base[ci], st.sys.rhs[ci]
	L, W := int32(st.L), st.feasWords
	r := st.free
	pivMask := st.pivMask[:r]
	alive := feas[wi]
	stride := r + 1
	eq := st.eq[:stride]
	clear(pivMask)
	for k, b := range base {
		copy(eq, st.block(int(b/L)*W+wi))
		// rhs 1 flips the constant: the equation is Σ t_i·eq[i] = rhs ⊕ eq[r].
		eq[r] ^= -uint64(rhs[k] & 1)
		act := alive
		for i, pm := range pivMask {
			x := eq[i] & act
			if x == 0 {
				continue
			}
			// Only the words past i matter: bit i is the pivot itself.
			tail := eq[i+1:]
			row := st.pivRows[i*stride+i+1 : (i+1)*stride]
			row = row[:len(tail)]
			if h := x & pm; h != 0 {
				for j, rw := range row {
					tail[j] ^= h & rw
				}
			}
			if nw := x &^ pm; nw != 0 {
				pivMask[i] = pm | nw
				if pm == 0 {
					// Lanes outside the mask are never read.
					copy(row, tail)
				} else {
					for j, e := range tail {
						row[j] = row[j]&^nw | e&nw
					}
				}
				if act &^= nw; act == 0 {
					break
				}
			}
		}
		if alive &^= act & eq[r]; alive == 0 {
			break
		}
	}
	if !noPruning {
		feas[wi] = alive
	}
	for m := alive; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		inc := 0
		for _, pm := range pivMask {
			inc += int(pm >> uint(b) & 1)
		}
		*out = append(*out, candidate{cube: ci, pos: wi*64 + b, rankInc: inc})
	}
	return false
}

// block returns plane block blk (output slot s, window word w at
// blk = s·feasWords + w) at the current basis, building it on first use:
// plane i is the XOR of the slot's column words over the support of
// null-space generator i, and the constant plane the XOR over the support
// of the zero-fill solution, so bit b of plane i is the slot's expression
// at window position 64w+b dotted with generator i.
func (st *encodeState) block(blk int) []uint64 {
	stride := st.free + 1
	pl := st.planes[blk*stride : (blk+1)*stride]
	if st.planeEpoch[blk] != st.epoch {
		col := st.cols[blk*st.n : (blk+1)*st.n]
		for i, g := range st.aff.Gens {
			pl[i] = gf2.XorColumns(col, g.Words())
		}
		pl[st.free] = gf2.XorColumns(col, st.aff.X0.Words())
		st.planeEpoch[blk] = st.epoch
	}
	return pl
}

// prepareSliced readies the bit-sliced path for the first word sliceWord
// decides at a basis: the column arena, the plane blocks and the lane
// scratch, allocated on the encode's first sliced word, and the basis's
// affine form. The planes are allocated once with room for n+1 words per
// block, enough for any basis, and laid out at the current basis's stride
// of free+1 words, so a determined seed's blocks are one dense word each.
// The stride changes only with the basis, which leaves every block stale,
// so the new layout invalidates nothing current.
func (st *encodeState) prepareSliced() {
	if st.cols == nil {
		t0 := time.Now()
		n, blocks := st.n, st.slots*st.feasWords
		st.cols = st.table.ColumnBlocks()
		st.planes = make([]uint64, blocks*(n+1))
		st.planeEpoch = make([]uint32, blocks)
		st.pivMask = make([]uint64, n)
		st.pivRows = make([]uint64, n*(n+1))
		st.eq = make([]uint64, n+1)
		st.colBuild += time.Since(t0)
	}
	if st.affEpoch != st.epoch {
		st.solver.AffineInto(&st.aff)
		st.affEpoch = st.epoch
	}
}

// scanTier checks every still-feasible (cube, position) pair of one tier
// against the basis, which stays fixed for the whole scan, and applies the
// paper's tie-breaks to the solvable ones. results[ti] collects the
// candidates of cube tier[ti].
func (st *encodeState) scanTier(tier []int) (candidate, bool, error) {
	for len(st.results) < len(tier) {
		st.results = append(st.results, nil)
	}
	results := st.results[:len(tier)]
	for ti := range results {
		results[ti] = results[ti][:0]
	}
	st.free = st.solver.FreeVars()
	// Classical reseeding checks on projected rows once a seed's first
	// commit leaves at most gf2.ProjectedFree free variables, and slices
	// one lane per word before that.
	if st.sliced = st.L > 1 || st.free > gf2.ProjectedFree; !st.sliced && st.proj == nil {
		t0 := time.Now()
		st.proj = gf2.NewProjectedTable(st.solver, st.table.Rows())
		st.colBuild += time.Since(t0)
	}
	if scanTierHook != nil {
		ts := tierScan{cubes: len(tier), free: st.free, projected: !st.sliced}
		for _, ci := range tier {
			for _, w := range st.feasRow(ci) {
				switch lanes := bits.OnesCount64(w); {
				case !st.sliced:
					ts.projPairs += lanes
				case lanes > 0:
					ts.slicedWords++
				}
			}
		}
		scanTierHook(ts)
	}
	for ti, ci := range tier {
		if st.stop {
			break
		}
		st.scanCube(ci, &results[ti])
	}
	if st.stop {
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
