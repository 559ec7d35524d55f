package encoder

// This file keeps the paper's greedy window encoder written plainly, as
// the reference oracle of EncodeCtx. It shares no code with the encoder's
// seed loop: no feasibility rows, tiers as runs of the sorted order, plane
// blocks, projected rows or pruning of work. Every system is read from
// ExprTable.Expr and solved by the small dense eliminator below. The
// differential and fuzz tests require identical seeds, assignments, seed
// values and ChecksPerformed.

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/prng"
)

// refElim is a dense GF(2) eliminator keyed by pivot: bit p of mask is
// set when row p, words[p·w : (p+1)·w], holds a row whose lowest set bit
// is p, with right-hand side rhs[p]. Every row has a different pivot, so
// folding a row into an equation clears the equation's lowest pivot hit
// and changes only higher bits.
type refElim struct {
	n, w  int
	words []uint64
	rhs   []uint8
	mask  []uint64
	v     []uint64 // the equation being reduced
	added []int    // add's result, reused
}

func newRefElim(n int) *refElim {
	w := (n + 63) / 64
	return &refElim{n: n, w: w, words: make([]uint64, n*w), rhs: make([]uint8, n), mask: make([]uint64, w), v: make([]uint64, w)}
}

// row returns row p's words.
func (e *refElim) row(p int) []uint64 { return e.words[p*e.w : (p+1)*e.w] }

// has reports whether row p is present.
func (e *refElim) has(p int) bool { return e.mask[p/64]>>uint(p%64)&1 == 1 }

// add folds cube c's system at window position pos into e, one equation
// per specified cell in ascending order: the cell's expression in window
// vector pos (ExprTable.Expr) equal to its value. It returns the pivots of
// the rows the system added (the rank increase is their count; the slice
// is reused by the next call) and whether every equation was consistent.
// An inconsistent equation stops the fold; the rows added before it stay,
// so a caller that tests undoes with remove.
func (e *refElim) add(table *ExprTable, c refCube, pos int) (added []int, consistent bool) {
	e.added = e.added[:0]
	v := e.v
	for i, cell := range c.cells {
		copy(v, table.Expr(pos, cell).Words())
		r := c.vals[i]
		p := -1
		for wi := range v {
			for m := v[wi] & e.mask[wi]; m != 0; m = v[wi] & e.mask[wi] {
				b := wi*64 + bits.TrailingZeros64(m)
				for j, x := range e.row(b) {
					v[j] ^= x
				}
				r ^= e.rhs[b]
			}
			if p < 0 && v[wi] != 0 {
				p = wi*64 + bits.TrailingZeros64(v[wi])
			}
		}
		if p < 0 {
			if r != 0 {
				return e.added, false
			}
			continue
		}
		copy(e.row(p), v)
		e.rhs[p] = r
		e.mask[p/64] |= 1 << uint(p%64)
		e.added = append(e.added, p)
	}
	return e.added, true
}

// remove deletes the rows at pivots.
func (e *refElim) remove(pivots []int) {
	for _, p := range pivots {
		e.mask[p/64] &^= 1 << uint(p%64)
	}
}

// solution fills the free columns (those that are no row's pivot) from
// fill, one bit each in ascending order, and solves the pivot columns by
// back-substitution, highest pivot first: a row's other bits are above
// its pivot. The pivot set is a property of the row space, so any
// eliminator with lowest-bit pivots fills the same columns.
func (e *refElim) solution(fill *prng.Source) gf2.Vec {
	x := gf2.NewVec(e.n)
	for c := 0; c < e.n; c++ {
		if !e.has(c) {
			x.SetBit(c, fill.Bit())
		}
	}
	for p := e.n - 1; p >= 0; p-- {
		if e.has(p) {
			row, v := e.row(p), e.rhs[p]
			for c := p + 1; c < e.n; c++ {
				v ^= uint8(row[c/64]>>uint(c%64)&1) & x.Bit(c)
			}
			x.SetBit(p, v)
		}
	}
	return x
}

// refCube is one cube's specified cells, ascending, and their values.
type refCube struct {
	cells []int
	vals  []uint8
}

func newRefCube(c cube.Cube) refCube {
	rc := refCube{cells: c.Specified()}
	for _, cell := range rc.cells {
		rc.vals = append(rc.vals, uint8(c.Get(cell)))
	}
	return rc
}

// refResult is what the reference encode produced: seeds, the checks it
// counts with pruning and without (noPruning), the probes of the
// encoder's fresh-window screen, and the cube it could not embed (-1 if
// none).
type refResult struct {
	seeds                     []Seed
	checks, allChecks, screen int64
	failed                    int
}

// refFirst probes cube c at window positions 0, 1, … of a fresh window
// and returns the first position whose system is consistent (-1 if none),
// that system's eliminator, and the probes made.
func refFirst(table *ExprTable, c refCube) (*refElim, int, int64) {
	for p := 0; p < table.L; p++ {
		e := newRefElim(table.N)
		if _, ok := e.add(table, c, p); ok {
			return e, p, int64(p + 1)
		}
	}
	return nil, -1, int64(table.L)
}

// refCandidate is a solvable (cube, position) of one tier, with the rank
// increase its system causes and the cube's solvable positions in the
// tier.
type refCandidate struct {
	cube, pos, inc, count int
}

// less orders candidates by the paper's tie-breaks: least rank increase,
// fewest solvable positions of the cube, nearest position, lowest index.
func (a refCandidate) less(b refCandidate) bool {
	switch {
	case a.inc != b.inc:
		return a.inc < b.inc
	case a.count != b.count:
		return a.count < b.count
	case a.pos != b.pos:
		return a.pos < b.pos
	}
	return a.cube < b.cube
}

// refEncode is the paper's greedy (ARCHITECTURE.md §③) on cfg's
// expression table. Per seed it commits the densest remaining cube at its
// first solvable position in a fresh window, then, while anything fits,
// scans the remaining cubes in descending specified count, one count (a
// tier) at a time: every cube of the tier at every window position, until
// a tier has a solvable candidate. The tier's best candidate is committed.
// A seed's free columns are filled from one PRNG keyed by cfg.FillSeed.
//
// Each probe of a seed's first cube is one check. The probes of the
// encoder's screen, every cube densest first in a fresh window until one
// has no solvable position, are counted apart (screen). In a tier, every
// position is one check under noPruning (allChecks), and otherwise only a
// position not yet seen unsolvable in this seed (checks): constraints only
// grow within a seed, so the encoder need not check those again.
func refEncode(t testing.TB, cfg Config, set *cube.Set) refResult {
	t.Helper()
	table, err := buildExprTable(cfg.LFSR, cfg.PS, cfg.Geo, cfg.WindowLen)
	if err != nil {
		t.Fatal(err)
	}
	L := table.L
	spec := make([]int, set.Len())
	cubes := make([]refCube, set.Len())
	order := make([]int, set.Len())
	remaining := make(map[int]bool, set.Len())
	for ci, c := range set.Cubes {
		cubes[ci] = newRefCube(c)
		spec[ci] = len(cubes[ci].cells)
		order[ci] = ci
		remaining[ci] = true
	}
	sort.SliceStable(order, func(a, b int) bool { return spec[order[a]] > spec[order[b]] })
	res := refResult{failed: -1}
	for _, ci := range order {
		_, pos, probes := refFirst(table, cubes[ci])
		res.screen += probes
		if pos < 0 {
			break
		}
	}
	fill := prng.New(cfg.FillSeed)
	for len(remaining) > 0 {
		first := -1
		for _, ci := range order {
			if remaining[ci] {
				first = ci
				break
			}
		}
		basis, pos, probes := refFirst(table, cubes[first])
		res.checks += probes
		res.allChecks += probes
		if pos < 0 {
			res.failed = first
			return res
		}
		seed := Seed{Assignments: []Assignment{{Cube: first, Pos: pos}}}
		delete(remaining, first)

		unsolvable := make([]bool, set.Len()*L) // cube ci at position p: ci·L+p
		for {
			best := refCandidate{cube: -1}
			for _, tier := range refTiers(spec, remaining) {
				for _, ci := range order {
					if !remaining[ci] || spec[ci] != tier {
						continue
					}
					var solvable []refCandidate
					for p := 0; p < L; p++ {
						res.allChecks++
						if !unsolvable[ci*L+p] {
							res.checks++
						}
						added, ok := basis.add(table, cubes[ci], p)
						basis.remove(added)
						if ok {
							solvable = append(solvable, refCandidate{cube: ci, pos: p, inc: len(added)})
						} else {
							unsolvable[ci*L+p] = true
						}
					}
					for _, c := range solvable {
						c.count = len(solvable)
						if best.cube < 0 || c.less(best) {
							best = c
						}
					}
				}
				if best.cube >= 0 {
					break
				}
			}
			if best.cube < 0 {
				break
			}
			basis.add(table, cubes[best.cube], best.pos)
			seed.Assignments = append(seed.Assignments, Assignment{Cube: best.cube, Pos: best.pos})
			delete(remaining, best.cube)
		}
		seed.Value = basis.solution(fill)
		res.seeds = append(res.seeds, seed)
	}
	return res
}

// refTiers returns the distinct specified counts of the remaining cubes,
// descending.
func refTiers(spec []int, remaining map[int]bool) []int {
	seen := map[int]bool{}
	var tiers []int
	for ci := range remaining {
		if !seen[spec[ci]] {
			seen[spec[ci]] = true
			tiers = append(tiers, spec[ci])
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(tiers)))
	return tiers
}

// assertMatchesReference compares an encode's result with the
// reference's: both fail naming the same cube, or both encode with the
// same seeds, assignments, seed values and ChecksPerformed (the reference's
// count without pruning when full is set).
func assertMatchesReference(t testing.TB, label string, ref refResult, enc *Encoding, err error, full bool) {
	t.Helper()
	if ref.failed >= 0 || err != nil {
		if ref.failed < 0 || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cube %d (", ref.failed)) {
			t.Fatalf("%s: encode error %v, reference fails on cube %d (-1: none)", label, err, ref.failed)
		}
		return
	}
	if len(enc.Seeds) != len(ref.seeds) {
		t.Fatalf("%s: %d seeds, reference %d", label, len(enc.Seeds), len(ref.seeds))
	}
	for i, s := range enc.Seeds {
		r := ref.seeds[i]
		if fmt.Sprint(s.Assignments) != fmt.Sprint(r.Assignments) {
			t.Fatalf("%s: seed %d assignments %v, reference %v", label, i, s.Assignments, r.Assignments)
		}
		if !s.Value.Equal(r.Value) {
			t.Fatalf("%s: seed %d value %v, reference %v", label, i, s.Value, r.Value)
		}
	}
	want := ref.checks
	if full {
		want = ref.allChecks
	}
	if enc.ChecksPerformed != want {
		t.Fatalf("%s: %d checks, reference %d", label, enc.ChecksPerformed, want)
	}
}
