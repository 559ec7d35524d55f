// Package stateskip implements the paper's contribution: shortening the
// test sequences of window-based LFSR reseeding with State Skip LFSRs
// (Section 3.2 of the paper).
//
// Every seed's L-vector window is partitioned into segments of S vectors. A
// segment that embeds at least one test cube — deliberately (the encoder
// placed it there) or fortuitously (a sparse cube happens to match a
// pseudorandom vector) — is useful; all other segments are useless and are
// traversed in State Skip mode, which advances the LFSR k states per clock
// and shortens them by a factor ≈ k. A greedy cover minimises the number of
// useful segments, seeds are grouped by useful-segment count so each window
// stops right after its last useful segment, and the resulting schedule
// drives the decompressor of Fig. 3.
package stateskip

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cube"
	"repro/internal/encoder"
	"repro/internal/gf2"
)

// Options configures a reduction.
type Options struct {
	// SegmentSize is S, the number of window vectors per segment, in [1, L].
	SegmentSize int
	// Speedup is k, the number of states one State Skip clock advances.
	Speedup int
	// NaiveSelection labels useful segments directly from the encoder's
	// deliberate assignments, ignoring fortuitous embeddings and skipping
	// the set-A/set-B greedy cover — the ablation baseline for the paper's
	// §3.2 selection procedure (ARCHITECTURE.md §③).
	NaiveSelection bool
	// KeepFirstSegment forces segment 0 of every seed to be useful. The
	// paper's Mode Select decoding optimisation assumes it (§3.3): the
	// encoder places each seed's primary cube at the window start, so the
	// assumption costs at most a handful of vectors and buys much simpler
	// per-core decode logic. On by default in DefaultOptions.
	KeepFirstSegment bool
	// Workers has no effect: the embedding index is built in the calling
	// goroutine. The field stays for the callers that still set it.
	Workers int
}

// DefaultOptions returns the options used across the paper's experiments
// for a given S and k.
func DefaultOptions(s, k int) Options {
	return Options{SegmentSize: s, Speedup: k, KeepFirstSegment: true}
}

// SegRef identifies one segment of one seed's window.
type SegRef struct {
	Seed    int // index into Encoding.Seeds
	Segment int // segment index within the window, in [0, Segs)
}

// Reduction is the outcome of useful-segment selection for one encoding.
type Reduction struct {
	Enc  *encoder.Encoding // the encoding being shortened
	Opt  Options           // the S, k and selection options used
	Segs int               // segments per window: ceil(L/S)

	// Useful[seed][segment] marks segments generated in Normal mode.
	Useful [][]bool
	// Embeddings[cube] lists every segment in which the cube is embedded
	// (deliberately or fortuitously), in (seed, segment) order.
	Embeddings [][]SegRef
	// CoveredBy[cube] is the useful segment chosen to cover the cube.
	CoveredBy []SegRef
	// GroupOrder lists seed indices sorted by ascending useful-segment
	// count — the order in which the decompressor's Group Counter walks
	// them (§3.3).
	GroupOrder []int
}

// VecRef identifies one vector of one seed's window.
type VecRef struct {
	Seed int // index into Encoding.Seeds
	Vec  int // window position, in [0, L)
}

// VecEmbeddings is the vector-level fortuitous-embedding index of one
// encoding: for every cube, every (seed, window position) whose vector
// matches it. It is independent of the segmentation (S) and the speedup
// (k), so parameter sweeps compute it once per encoding and reuse it.
type VecEmbeddings struct {
	// PerCube[cube] lists the embedding vectors in (seed, position) order.
	PerCube [][]VecRef
}

// ScanEmbeddingsWorkers records, for every cube, every window vector of
// the encoding that embeds it. It reads the vectors from the encoding's
// own expression table (Cfg.Tables, which EncodeCtx always records, built)
// instead of clocking the decompressor again: every bit of a window vector
// is a linear expression of the seed.
//
// workers has no effect: the index is built in the calling goroutine. The
// parameter stays for the callers that still pass it.
//
// The test is bit-sliced over blocks of up to 64 window vectors, numbered
// in (seed, position) order. A block's planes hold one lane word per
// output slot. At L > 1 a block is one window word of one seed, and slot
// s's plane is the XOR of the slot's column block
// (encoder.ExprTable.ColumnBlocks) over the seed's support. At L = 1 a
// block is 64 seeds, and the plane is the XOR of the seeds' column words
// over the support of the slot's expression. A cube ANDs the planes of its
// specified slots, each inverted where the cube's bit is 0, until the word
// is zero; the bits left set are the block's vectors that embed it.
func ScanEmbeddingsWorkers(enc *encoder.Encoding, workers int) *VecEmbeddings {
	// The encode built the tables, so no symbolic cycle runs here, and a
	// context that never fires cannot stop the call.
	table, _ := enc.Cfg.Tables.ExprTableCtx(context.Background())
	L, n, rows := enc.Cfg.WindowLen, table.N, table.Rows()
	cells := newCubeCells(enc.Set, table)
	planes := make([]uint64, rows.Count()/L)
	// found collects the hits of one seed (L > 1) or one block of 64
	// seeds (L = 1), of which perBlock keeps an exactly sized copy.
	var found []hit
	var perBlock [][]hit
	if L == 1 {
		seeds := make([]uint64, 0, len(enc.Seeds)*((n+63)/64))
		for _, seed := range enc.Seeds {
			seeds = append(seeds, seed.Value.Words()...)
		}
		seedRows := gf2.NewRowSet(n, seeds)
		cols := make([]uint64, n)
		for first := 0; first < len(enc.Seeds); first += 64 {
			count := min(64, len(enc.Seeds)-first)
			seedRows.ColumnsInto(first, count, cols)
			for s := range planes {
				planes[s] = gf2.XorColumns(cols, rows.Row(s).Words())
			}
			found = cells.scanBlock(planes, count, int32(first), found[:0])
			perBlock = append(perBlock, slices.Clone(found))
		}
	} else {
		W := (L + 63) / 64
		cols := table.ColumnBlocks()
		for si, seed := range enc.Seeds {
			found = found[:0]
			sw := seed.Value.Words()
			for w := 0; w < W; w++ {
				for s := range planes {
					blk := s*W + w
					planes[s] = gf2.XorColumns(cols[blk*n:(blk+1)*n], sw)
				}
				found = cells.scanBlock(planes, min(64, L-64*w), int32(si*L+64*w), found)
			}
			perBlock = append(perBlock, slices.Clone(found))
		}
	}
	// Gather in (seed, vector) order per cube, into one exactly sized arena.
	counts := make([]int, enc.Set.Len())
	total := 0
	for _, found := range perBlock {
		for _, h := range found {
			counts[h.cube]++
		}
		total += len(found)
	}
	arena := make([]VecRef, total)
	idx := &VecEmbeddings{PerCube: make([][]VecRef, len(counts))}
	for ci, c := range counts {
		if c > 0 {
			idx.PerCube[ci] = arena[:0:c]
			arena = arena[c:]
		}
	}
	for _, found := range perBlock {
		for _, h := range found {
			v := int(h.vec)
			idx.PerCube[h.cube] = append(idx.PerCube[h.cube], VecRef{Seed: v / L, Vec: v % L})
		}
	}
	return idx
}

// hit is one (cube, window vector) embedding; vec counts vectors in
// (seed, position) order from the first seed's first vector.
type hit struct{ cube, vec int32 }

// cubeCells is the bit-sliced form of a cube set for the embedding scan:
// cube ci's specified bits at tests[start[ci]:start[ci+1]], in ascending
// cell order, each packed as slot<<1 | bit, where slot is the output slot
// that loads the cell (encoder.ExprTable.Slot). The cube agrees with a block's
// vectors where plane[slot] ⊕ (bit − 1) is set: the plane itself where the
// cube's bit is 1, its complement where it is 0.
type cubeCells struct {
	tests []int32
	start []int
}

func newCubeCells(set *cube.Set, table *encoder.ExprTable) *cubeCells {
	total := 0
	for _, c := range set.Cubes {
		total += c.SpecifiedCount()
	}
	cc := &cubeCells{tests: make([]int32, 0, total), start: make([]int, 1, set.Len()+1)}
	for _, c := range set.Cubes {
		for pos := c.Mask.FirstSet(); pos >= 0; pos = c.Mask.NextSet(pos + 1) {
			cc.tests = append(cc.tests, int32(table.Slot(pos)<<1)|int32(c.Value.Bit(pos)))
		}
		cc.start = append(cc.start, len(cc.tests))
	}
	return cc
}

// scanBlock appends, cube by cube, a hit for every one of a block's first
// lanes vectors that embeds the cube; planes holds the block's slot
// planes, and start numbers its first vector.
func (cc *cubeCells) scanBlock(planes []uint64, lanes int, start int32, found []hit) []hit {
	valid := ^uint64(0) >> uint(64-lanes)
	for ci := 0; ci+1 < len(cc.start); ci++ {
		acc := valid
		for _, t := range cc.tests[cc.start[ci]:cc.start[ci+1]] {
			if acc &= planes[t>>1] ^ (uint64(t&1) - 1); acc == 0 {
				break
			}
		}
		for ; acc != 0; acc &= acc - 1 {
			found = append(found, hit{cube: int32(ci), vec: start + int32(bits.TrailingZeros64(acc))})
		}
	}
	return found
}

// ReduceWithIndex analyses fortuitous embeddings and selects useful
// segments per the paper's algorithm: segments holding single-option cubes
// (set A) first, then a greedy cover for the multi-option cubes (set B).
// idx is a precomputed vector-level embedding index (nil scans
// internally); sharing one index across an (S, k) sweep avoids rescanning
// seeds × L vectors × cubes for every combination.
func ReduceWithIndex(enc *encoder.Encoding, idx *VecEmbeddings, opt Options) (*Reduction, error) {
	L := enc.Cfg.WindowLen
	if opt.SegmentSize < 1 || opt.SegmentSize > L {
		return nil, fmt.Errorf("stateskip: segment size %d outside [1,%d]", opt.SegmentSize, L)
	}
	if opt.Speedup < 1 {
		return nil, fmt.Errorf("stateskip: speedup factor %d must be ≥ 1", opt.Speedup)
	}
	r := &Reduction{
		Enc:  enc,
		Opt:  opt,
		Segs: (L + opt.SegmentSize - 1) / opt.SegmentSize,
	}
	r.Useful = make([][]bool, len(enc.Seeds))
	for i := range r.Useful {
		r.Useful[i] = make([]bool, r.Segs)
	}
	if opt.NaiveSelection {
		r.selectNaive()
	} else {
		if idx == nil {
			idx = ScanEmbeddingsWorkers(enc, 0)
		}
		r.segmentEmbeddings(idx)
		r.selectUseful()
	}
	r.groupSeeds()
	return r, nil
}

// selectNaive marks exactly the segments holding deliberate encoder
// assignments as useful. No window regeneration, no fortuitous embeddings,
// no covering optimisation — the quality floor the §3.2 procedure is
// measured against.
func (r *Reduction) selectNaive() {
	S := r.Opt.SegmentSize
	nCubes := r.Enc.Set.Len()
	r.Embeddings = make([][]SegRef, nCubes)
	r.CoveredBy = make([]SegRef, nCubes)
	for i := range r.CoveredBy {
		r.CoveredBy[i] = SegRef{Seed: -1, Segment: -1}
	}
	if r.Opt.KeepFirstSegment {
		for si := range r.Useful {
			r.Useful[si][0] = true
		}
	}
	for si, seed := range r.Enc.Seeds {
		for _, a := range seed.Assignments {
			ref := SegRef{Seed: si, Segment: a.Pos / S}
			r.Useful[ref.Seed][ref.Segment] = true
			r.Embeddings[a.Cube] = append(r.Embeddings[a.Cube], ref)
			r.CoveredBy[a.Cube] = ref
		}
	}
}

// segmentEmbeddings folds the vector-level index into per-segment
// embeddings under the current segment size.
func (r *Reduction) segmentEmbeddings(idx *VecEmbeddings) {
	S := r.Opt.SegmentSize
	r.Embeddings = make([][]SegRef, len(idx.PerCube))
	for ci, refs := range idx.PerCube {
		last := SegRef{Seed: -1, Segment: -1}
		for _, ref := range refs {
			sr := SegRef{Seed: ref.Seed, Segment: ref.Vec / S}
			if sr != last {
				r.Embeddings[ci] = append(r.Embeddings[ci], sr)
				last = sr
			}
		}
	}
}

// selectUseful implements §3.2: first-segment pinning (optional), set A
// (cubes with a single embedding), then the greedy cover over set B.
func (r *Reduction) selectUseful() {
	nCubes := len(r.Embeddings)
	covered := make([]bool, nCubes)
	r.CoveredBy = make([]SegRef, nCubes)
	for i := range r.CoveredBy {
		r.CoveredBy[i] = SegRef{Seed: -1, Segment: -1}
	}
	mark := func(ref SegRef) {
		r.Useful[ref.Seed][ref.Segment] = true
	}
	coverAllIn := func(ref SegRef) {
		for ci := 0; ci < nCubes; ci++ {
			if covered[ci] {
				continue
			}
			for _, e := range r.Embeddings[ci] {
				if e == ref {
					covered[ci] = true
					r.CoveredBy[ci] = ref
					break
				}
			}
		}
	}

	if r.Opt.KeepFirstSegment {
		for si := range r.Useful {
			ref := SegRef{Seed: si, Segment: 0}
			mark(ref)
			coverAllIn(ref)
		}
	}

	// Set A: cubes embedded in exactly one segment anywhere. Their segment
	// is forced useful.
	for ci := 0; ci < nCubes; ci++ {
		if covered[ci] || len(r.Embeddings[ci]) != 1 {
			continue
		}
		ref := r.Embeddings[ci][0]
		mark(ref)
		coverAllIn(ref)
	}

	// Set B: greedy cover. Repeatedly pick the segment embedding the most
	// remaining cubes; ties go to the segment closest to the beginning of
	// its window, then to the earliest seed.
	type segKey = SegRef
	for {
		counts := make(map[segKey]int)
		for ci := 0; ci < nCubes; ci++ {
			if covered[ci] {
				continue
			}
			for _, e := range r.Embeddings[ci] {
				counts[e]++
			}
		}
		if len(counts) == 0 {
			break
		}
		var best segKey
		bestCount := -1
		for ref, c := range counts {
			if c > bestCount ||
				(c == bestCount && ref.Segment < best.Segment) ||
				(c == bestCount && ref.Segment == best.Segment && ref.Seed < best.Seed) {
				best = ref
				bestCount = c
			}
		}
		mark(best)
		coverAllIn(best)
	}
}

// groupSeeds orders seeds by ascending useful-segment count (§3.3's seed
// groups). Within a group, original seed order is kept.
func (r *Reduction) groupSeeds() {
	r.GroupOrder = make([]int, len(r.Useful))
	for i := range r.GroupOrder {
		r.GroupOrder[i] = i
	}
	sort.SliceStable(r.GroupOrder, func(a, b int) bool {
		return r.UsefulCount(r.GroupOrder[a]) < r.UsefulCount(r.GroupOrder[b])
	})
}

// UsefulCount returns the number of useful segments of one seed.
func (r *Reduction) UsefulCount(seed int) int {
	n := 0
	for _, u := range r.Useful[seed] {
		if u {
			n++
		}
	}
	return n
}

// TotalUseful returns the number of useful segments over all seeds.
func (r *Reduction) TotalUseful() int {
	n := 0
	for si := range r.Useful {
		n += r.UsefulCount(si)
	}
	return n
}

// segLen returns the vector count of one segment (the last segment of a
// window may be shorter when S does not divide L).
func (r *Reduction) segLen(seg int) int {
	L, S := r.Enc.Cfg.WindowLen, r.Opt.SegmentSize
	if (seg+1)*S <= L {
		return S
	}
	return L - seg*S
}

// lastUseful returns the index of a seed's last useful segment, or -1.
func (r *Reduction) lastUseful(seed int) int {
	for seg := r.Segs - 1; seg >= 0; seg-- {
		if r.Useful[seed][seg] {
			return seg
		}
	}
	return -1
}

// Run is a maximal block of consecutive same-mode segments within one
// seed's window, ending at the last useful segment (§3.3's early
// termination).
type Run struct {
	Useful   bool // Normal mode (true) or State Skip mode (false)
	FirstSeg int  // first segment of the run
	LastSeg  int  // last segment of the run, inclusive
	States   int  // LFSR states the run spans (= segment vectors × r)
	Clocks   int  // shift clocks the decompressor spends on the run
	Vectors  int  // test vectors applied while traversing the run
}

// Runs decomposes one seed's shortened window into mode runs.
//
// Useful runs execute in Normal mode: one clock per state, one vector per
// r clocks, exactly framed like the original window. A useless run of
// `States` states is traversed with floor(States/k) State Skip clocks plus
// States mod k Normal clocks, so the register lands *exactly* on the next
// useful segment's boundary regardless of divisibility.
// The Bit Counter resets at every mode switch, so the garbage vectors of a
// useless run amount to ceil(Clocks/r) — this is why the paper's Fig. 4
// improvements keep growing all the way to k=24: long useless runs keep
// collapsing as k rises, instead of flooring at one vector per segment.
func (r *Reduction) Runs(seed int) []Run {
	last := r.lastUseful(seed)
	rlen := r.Enc.Cfg.Geo.Length
	k := r.Opt.Speedup
	var runs []Run
	for seg := 0; seg <= last; {
		useful := r.Useful[seed][seg]
		run := Run{Useful: useful, FirstSeg: seg, LastSeg: seg}
		states := r.segLen(seg) * rlen
		for seg++; seg <= last && r.Useful[seed][seg] == useful; seg++ {
			run.LastSeg = seg
			states += r.segLen(seg) * rlen
		}
		run.States = states
		if useful {
			run.Clocks = states
			run.Vectors = states / rlen
		} else {
			run.Clocks = states/k + states%k
			run.Vectors = (run.Clocks + rlen - 1) / rlen
		}
		runs = append(runs, run)
	}
	return runs
}

// SeedClocks returns the number of shift clocks the decompressor spends on
// one seed's window. Everything after the last useful segment is never
// generated (the per-group early termination of §3.3).
func (r *Reduction) SeedClocks(seed int) int {
	clocks := 0
	for _, run := range r.Runs(seed) {
		clocks += run.Clocks
	}
	return clocks
}

// SeedTSL returns the number of test vectors one seed's shortened window
// applies to the CUT. Scan shifting continues during skip mode, so useless
// runs still apply (far fewer, garbage) vectors that count toward TSL,
// exactly as in the paper.
func (r *Reduction) SeedTSL(seed int) int {
	vectors := 0
	for _, run := range r.Runs(seed) {
		vectors += run.Vectors
	}
	return vectors
}

// TSL returns the total shortened test sequence length in vectors.
func (r *Reduction) TSL() int {
	total := 0
	for si := range r.Useful {
		total += r.SeedTSL(si)
	}
	return total
}

// Improvement returns the paper's equation (2): the fractional TSL
// reduction relative to the original window-based scheme (full windows).
func (r *Reduction) Improvement() float64 {
	orig := r.Enc.TSL()
	if orig == 0 {
		return 0
	}
	return 1 - float64(r.TSL())/float64(orig)
}

// Verify checks the reduction's coverage invariant: every cube is embedded
// in at least one useful segment, and every chosen cover is really one of
// the cube's embeddings.
func (r *Reduction) Verify() error {
	for ci, ref := range r.CoveredBy {
		if ref.Seed < 0 {
			return fmt.Errorf("stateskip: cube %d not covered by any useful segment", ci)
		}
		if !r.Useful[ref.Seed][ref.Segment] {
			return fmt.Errorf("stateskip: cube %d covered by segment (%d,%d) that is not useful", ci, ref.Seed, ref.Segment)
		}
		found := false
		for _, e := range r.Embeddings[ci] {
			if e == ref {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("stateskip: cube %d cover (%d,%d) is not an embedding", ci, ref.Seed, ref.Segment)
		}
	}
	return nil
}
