package gf2

import (
	"testing"

	"repro/internal/prng"
)

// randRowSet builds a RowSet of count random n-bit rows plus matching
// Equation values over the same backing words.
func randRowSet(src *prng.Source, n, count int) (RowSet, []Equation) {
	w := wordsFor(n)
	arena := make([]uint64, count*w)
	rs := NewRowSet(n, arena)
	eqs := make([]Equation, count)
	for i := 0; i < count; i++ {
		row := rs.Row(i)
		for b := 0; b < n; b++ {
			row.SetBit(b, src.Bit())
		}
		eqs[i] = Equation{Coeffs: row, RHS: src.Bit()}
	}
	return rs, eqs
}

// TestResidualMatchesFreshReduction pins the one-pass reduction over pivot
// hits (reduceInto, which Add commits through) against
// re-eliminating the source row pivot by pivot until no pivot bit is
// left, at register widths of one, two and three words: the residual and
// the folded RHS must agree.
func TestResidualMatchesFreshReduction(t *testing.T) {
	for _, n := range []int{40, 85, 130} {
		src := prng.New(99)
		rs, _ := randRowSet(src, n, 25)
		s := NewSolver(n)
		got, fresh := NewVec(n), NewVec(n)
		for step := 0; step < 40; step++ {
			s.Add(Equation{Coeffs: randVec(src, n), RHS: src.Bit()})
			for j := 0; j < 3; j++ {
				i := src.Intn(25)
				delta := s.reduceInto(got, Equation{Coeffs: rs.Row(i), RHS: 0})
				fresh.CopyFrom(rs.Row(i))
				var wantDelta uint8
				for b := fresh.firstSetAnd(s.piv); b >= 0; b = fresh.firstSetAnd(s.piv) {
					fresh.Xor(s.row(b))
					wantDelta ^= s.rhs[b]
				}
				if !got.Equal(fresh) {
					t.Fatalf("n=%d step %d row %d: residual mismatch\n got %v\nwant %v", n, step, i, got, fresh)
				}
				// delta is defined by: equation (row, rhs) reduces to RHS rhs ⊕ delta.
				if delta != wantDelta {
					t.Fatalf("n=%d step %d row %d: delta %d, want %d", n, step, i, delta, wantDelta)
				}
			}
		}
	}
}

// TestCheckSystemOffset checks the index-offset addressing used by the
// encoder's per-position probes on projected rows: idx + offset must name
// the same rows as the shifted indices, against the naive Check.
func TestCheckSystemOffset(t *testing.T) {
	src := prng.New(7)
	n := 16
	rs, eqs := randRowSet(src, n, 12)
	s := NewSolver(n)
	s.Add(eqs[0])
	pt := NewProjectedTable(s, rs)
	for off := int32(0); off < 8; off++ {
		idx := []int32{0, 1, 2, 3}
		rhs := []uint8{eqs[off].RHS, eqs[off+1].RHS, eqs[off+2].RHS, eqs[off+3].RHS}
		sys := []Equation{eqs[off], eqs[off+1], eqs[off+2], eqs[off+3]}
		wantInc, wantOK := s.Check(sys)
		gotInc, gotOK := pt.CheckSystem(idx, off, rhs)
		if wantInc != gotInc || wantOK != gotOK {
			t.Fatalf("offset %d: (%d,%v) != (%d,%v)", off, gotInc, gotOK, wantInc, wantOK)
		}
	}
}

func TestRowSetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged arena accepted")
		}
	}()
	NewRowSet(65, make([]uint64, 3)) // 65 bits → 2 words per row; 3 is ragged
}

// TestColumnsMatchRows pins the row-to-column transposition to the rows
// on the one-word (n = 24, 64), two-word (n = 85) and generic (n = 130)
// layouts: every count from 0 to 64, from a nonzero first row, into a
// destination prefilled with ones so uncleared bits show. The XOR of the
// column words over the support of x gives every row's parity against x,
// 64 rows at once. After warm-up a call allocates nothing.
func TestColumnsMatchRows(t *testing.T) {
	for _, n := range []int{24, 64, 85, 130} {
		src := prng.New(uint64(n) * 31)
		rs, _ := randRowSet(src, n, 70)
		x := randVec(src, n)
		dst := make([]uint64, n)
		for count := 0; count <= 64; count++ {
			const first = 3
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			rs.ColumnsInto(first, count, dst)
			var dot uint64
			for _, j := range x.Support() {
				dot ^= dst[j]
			}
			for b := 0; b < 64; b++ {
				var wantDot uint8
				if b < count {
					wantDot = rs.Row(first + b).Dot(x)
				}
				if got := uint8(dot >> uint(b) & 1); got != wantDot {
					t.Fatalf("n=%d count=%d: parity of row %d = %d, want %d", n, count, first+b, got, wantDot)
				}
				for j := 0; j < n; j++ {
					var want uint8
					if b < count {
						want = rs.Row(first + b).Bit(j)
					}
					if got := uint8(dst[j] >> uint(b) & 1); got != want {
						t.Fatalf("n=%d count=%d: column %d bit %d = %d, want %d", n, count, j, b, got, want)
					}
				}
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { rs.ColumnsInto(5, 64, dst) }); allocs != 0 {
			t.Errorf("n=%d: ColumnsInto allocates %.1f times per call", n, allocs)
		}
	}
}
