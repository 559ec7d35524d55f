package gf2

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func randMat(src *prng.Source, r, c int) Mat {
	m := NewMat(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if src.Bit() == 1 {
				m.Set(i, j, 1)
			}
		}
	}
	return m
}

// isIdentity reports whether m is a square identity matrix.
func isIdentity(m Mat) bool {
	if len(m.rows) != m.cols {
		return false
	}
	for i, r := range m.rows {
		if r.PopCount() != 1 || r.Bit(i) != 1 {
			return false
		}
	}
	return true
}

func TestIdentityProperties(t *testing.T) {
	id := Identity(10)
	if !isIdentity(id) {
		t.Fatal("Identity not recognised")
	}
	if id.Rank() != 10 {
		t.Errorf("rank = %d", id.Rank())
	}
	src := prng.New(3)
	m := randMat(src, 10, 10)
	if !id.Mul(m).Equal(m) || !m.Mul(id).Equal(m) {
		t.Error("identity multiplication changed matrix")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	src := prng.New(11)
	m := randMat(src, 17, 23)
	v := randVec(src, 23)
	// m·v as matrix product with 23×1 column.
	col := NewMat(23, 1)
	for i := 0; i < 23; i++ {
		col.Set(i, 0, v.Bit(i))
	}
	prod := m.Mul(col)
	got := m.MulVec(v)
	for i := 0; i < 17; i++ {
		if prod.at(i, 0) != got.Bit(i) {
			t.Fatalf("MulVec mismatch at %d", i)
		}
	}
	// MulVecInto overwrites a dirty destination completely.
	dst := randVec(src, 17)
	m.MulVecInto(dst, v)
	if !dst.Equal(got) {
		t.Fatal("MulVecInto into a dirty vector disagrees with MulVec")
	}
}

func TestMulAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		a := randMat(src, 9, 13)
		b := randMat(src, 13, 7)
		c := randMat(src, 7, 11)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPowAgainstRepeatedMul(t *testing.T) {
	src := prng.New(5)
	m := randMat(src, 12, 12)
	acc := Identity(12)
	for e := uint64(0); e <= 9; e++ {
		if !m.Pow(e).Equal(acc) {
			t.Fatalf("Pow(%d) mismatch", e)
		}
		acc = acc.Mul(m)
	}
}

func TestPowAdditivity(t *testing.T) {
	// T^(a+b) = T^a · T^b — exactly the State Skip composition property.
	f := func(seed uint64, a, b uint8) bool {
		src := prng.New(seed)
		m := randMat(src, 8, 8)
		ea, eb := uint64(a%32), uint64(b%32)
		return m.Pow(ea + eb).Equal(m.Pow(ea).Mul(m.Pow(eb)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRankBounds(t *testing.T) {
	src := prng.New(21)
	m := randMat(src, 20, 35)
	r := m.Rank()
	if r < 0 || r > 20 {
		t.Errorf("rank %d out of bounds", r)
	}
	if NewMat(5, 5).Rank() != 0 {
		t.Error("zero matrix has nonzero rank")
	}
	// Duplicated rows cannot increase rank.
	dup := MatFromRows(append([]Vec{m.Row(0)}, m.rows...))
	if dup.Rank() != r {
		t.Errorf("duplicate row changed rank: %d vs %d", dup.Rank(), r)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	src := prng.New(2)
	found := 0
	for attempt := 0; attempt < 50 && found < 5; attempt++ {
		m := randMat(src, 16, 16)
		inv, ok := m.Inverse()
		if !ok {
			continue
		}
		found++
		if !isIdentity(m.Mul(inv)) || !isIdentity(inv.Mul(m)) {
			t.Fatal("inverse round trip failed")
		}
	}
	if found == 0 {
		t.Fatal("never found an invertible random matrix (suspicious)")
	}
}

func TestInverseSingular(t *testing.T) {
	m := NewMat(4, 4) // zero matrix
	if _, ok := m.Inverse(); ok {
		t.Error("zero matrix reported invertible")
	}
}

func TestMatFromRowsClones(t *testing.T) {
	r0, _ := FromString("101")
	m := MatFromRows([]Vec{r0})
	r0.SetBit(1, 1)
	if m.at(0, 1) != 0 {
		t.Error("MatFromRows shares row storage")
	}
}

func TestMulVecDistributes(t *testing.T) {
	// m·(u ⊕ v) = m·u ⊕ m·v — the linearity every LFSR argument rests on.
	f := func(seed uint64) bool {
		src := prng.New(seed)
		m := randMat(src, 15, 15)
		u := randVec(src, 15)
		v := randVec(src, 15)
		sum := u.Clone()
		sum.Xor(v)
		left := m.MulVec(sum)
		right := m.MulVec(u)
		right.Xor(m.MulVec(v))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// at returns element (i, j).
func (m Mat) at(i, j int) uint8 { return m.rows[i].Bit(j) }
