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
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	// Workers bounds the embedding-scan parallelism; 0 = GOMAXPROCS.
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

// ScanEmbeddingsWorkers regenerates every window and records, for every
// cube, all vectors that embed it. The scan parallelises over runs of
// seeds, with at most workers goroutines (0 = GOMAXPROCS) for callers that
// already run several scans concurrently.
//
// The test is bit-sliced. The applied vectors, in (seed, position) order
// across seeds, are packed 64 to a lane word: at L = 1 one word holds 64
// seeds. Each block of 64 vectors is transposed into per-cell planes, and a
// cube ANDs the planes of its specified cells, each inverted where the
// cube's bit is 0, until the word is zero; the bits left set are the
// block's vectors that embed it. A worker claims a run of seeds whose
// vectors fill whole blocks, so no block straddles two workers; with fewer
// such runs than workers, the runs shrink to one per worker and end in a
// partial block.
func ScanEmbeddingsWorkers(enc *encoder.Encoding, workers int) *VecEmbeddings {
	nCubes := enc.Set.Len()
	L := enc.Cfg.WindowLen
	cells := newCubeCells(enc)
	words := (enc.Cfg.Geo.Width + 63) / 64
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A run is the fewest seeds whose vectors fill whole blocks,
	// 64/gcd(L, 64), unless that leaves a worker without a run.
	runSeeds := min(64>>bits.TrailingZeros(uint(L|64)), (len(enc.Seeds)+workers-1)/workers)
	runSeeds = max(runSeeds, 1)
	runs := (len(enc.Seeds) + runSeeds - 1) / runSeeds
	perRun := make([][]hit, runs) // block-major, then cube, then vector
	workers = min(workers, runs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker buffers, reused for every run: one window, one
			// block of 64 vectors stored word-major (block[w·64+j] is word w
			// of vector j) so that each word column transposes in place
			// into the planes of its 64 cells, and the run's hits, of which
			// each run keeps an exactly sized copy. Results are
			// index-addressed, hence identical for any worker count.
			window := make([]gf2.Vec, L)
			block := make([]uint64, words*64)
			var found []hit
			for {
				ri := int(next.Add(1)) - 1
				if ri >= runs {
					return
				}
				first := ri * runSeeds
				last := min(first+runSeeds, len(enc.Seeds))
				found = found[:0]
				j, start := 0, int32(first*L)
				for si := first; si < last; si++ {
					encoder.GenerateWindowInto(window, enc.Cfg.LFSR, enc.Cfg.PS, enc.Cfg.Geo, enc.Seeds[si].Value, L)
					for _, vec := range window {
						for w, x := range vec.Words() {
							block[w*64+j] = x
						}
						if j++; j == 64 {
							found = cells.scanBlock(block, ^uint64(0), start, found)
							j, start = 0, start+64
						}
					}
				}
				if j > 0 {
					found = cells.scanBlock(block, 1<<uint(j)-1, start, found)
				}
				perRun[ri] = slices.Clone(found)
			}
		}()
	}
	wg.Wait()
	// Gather in (seed, vector) order per cube, into one exactly sized arena.
	counts := make([]int, nCubes)
	total := 0
	for _, found := range perRun {
		for _, h := range found {
			counts[h.cube]++
		}
		total += len(found)
	}
	arena := make([]VecRef, total)
	idx := &VecEmbeddings{PerCube: make([][]VecRef, nCubes)}
	for ci, c := range counts {
		if c > 0 {
			idx.PerCube[ci] = arena[:0:c]
			arena = arena[c:]
		}
	}
	for _, found := range perRun {
		for _, h := range found {
			v := int(h.vec)
			idx.PerCube[h.cube] = append(idx.PerCube[h.cube], VecRef{Seed: v / L, Vec: v % L})
		}
	}
	return idx
}

// hit is one (cube, applied vector) embedding; vec counts vectors in
// (seed, position) order from the first seed's first vector.
type hit struct{ cube, vec int32 }

// cubeCells is the bit-sliced form of a cube set for the embedding scan:
// cube ci's specified cells at tests[start[ci]:start[ci+1]], in ascending
// cell order, each packed as cell<<1 | bit. The cube agrees with a block's
// vectors where plane[cell] ⊕ (bit − 1) is set: the plane itself where the
// cube's bit is 1, its complement where it is 0.
type cubeCells struct {
	tests []int32
	start []int
}

func newCubeCells(enc *encoder.Encoding) *cubeCells {
	total := 0
	for _, c := range enc.Set.Cubes {
		total += c.SpecifiedCount()
	}
	cc := &cubeCells{tests: make([]int32, 0, total), start: make([]int, 1, enc.Set.Len()+1)}
	for _, c := range enc.Set.Cubes {
		for pos := c.Mask.FirstSet(); pos >= 0; pos = c.Mask.NextSet(pos + 1) {
			cc.tests = append(cc.tests, int32(pos<<1)|int32(c.Value.Bit(pos)))
		}
		cc.start = append(cc.start, len(cc.tests))
	}
	return cc
}

// scanBlock transposes one word-major block of vectors into cell planes
// in place and appends, cube by cube, a hit for every vector under valid
// that embeds the cube; start numbers the block's first vector.
func (cc *cubeCells) scanBlock(block []uint64, valid uint64, start int32, found []hit) []hit {
	for w := 0; w < len(block); w += 64 {
		gf2.Transpose64((*[64]uint64)(block[w : w+64]))
	}
	for ci := 0; ci+1 < len(cc.start); ci++ {
		acc := valid
		for _, t := range cc.tests[cc.start[ci]:cc.start[ci+1]] {
			if acc &= block[t>>1] ^ (uint64(t&1) - 1); acc == 0 {
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
			idx = ScanEmbeddingsWorkers(enc, opt.Workers)
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

// AppliedVectors regenerates, for verification, the exact vector stream the
// shortened schedule applies: for every seed in group order, the vectors of
// segments up to the last useful one, with useless segments reduced to the
// vectors their skip-mode clocks still shift in. The stream is what the
// decompressor simulator must reproduce bit-for-bit.
func (r *Reduction) AppliedVectors() []gf2.Vec {
	var out []gf2.Vec
	for _, si := range r.GroupOrder {
		out = append(out, r.seedApplied(si)...)
	}
	return out
}

// seedApplied simulates one seed's shortened window at clock accuracy.
func (r *Reduction) seedApplied(seed int) []gf2.Vec {
	enc := r.Enc
	geo := enc.Cfg.Geo
	l, ps := enc.Cfg.LFSR, enc.Cfg.PS
	k := r.Opt.Speedup
	skip := l.SkipMatrix(uint64(k))

	state := enc.Seeds[seed].Value.Clone()
	next := gf2.NewVec(l.Size())
	var vecs []gf2.Vec
	cur := gf2.NewVec(geo.Width)
	fill := 0 // Bit Counter: shift clocks since the last segment boundary

	shiftClock := func() {
		ps.ShiftInto(cur, geo, fill%geo.Length, state)
		fill++
		if fill%geo.Length == 0 {
			vecs = append(vecs, cur.Clone())
		}
	}

	for _, run := range r.Runs(seed) {
		// The Bit Counter restarts at each mode switch so useful runs are
		// framed exactly like the original window. Any partial garbage
		// vector left by a useless run is captured once before the reset
		// (the hardware's capture-on-mode-switch).
		if fill%geo.Length != 0 {
			vecs = append(vecs, cur.Clone())
		}
		fill = 0
		if run.Useful {
			for c := 0; c < run.States; c++ {
				shiftClock()
				l.StepInto(next, state)
				state, next = next, state
			}
		} else {
			for c := 0; c < run.States/k; c++ {
				shiftClock()
				skip.MulVecInto(next, state)
				state, next = next, state
			}
			for c := 0; c < run.States%k; c++ {
				shiftClock()
				l.StepInto(next, state)
				state, next = next, state
			}
		}
	}
	if fill%geo.Length != 0 {
		vecs = append(vecs, cur.Clone())
	}
	return vecs
}
