package cube

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gf2"
	"repro/internal/prng"
)

func TestParseAndString(t *testing.T) {
	c := MustParse("01x_X10")
	if c.Width() != 6 {
		t.Fatalf("width = %d", c.Width())
	}
	if got := c.String(); got != "01xx10" {
		t.Errorf("String = %q", got)
	}
	if c.SpecifiedCount() != 4 {
		t.Errorf("spec = %d", c.SpecifiedCount())
	}
	if c.Get(0) != 0 || c.Get(1) != 1 || c.Get(2) != -1 {
		t.Error("Get values wrong")
	}
	if _, err := Parse("01z"); err == nil {
		t.Error("invalid char accepted")
	}
}

func TestSet(t *testing.T) {
	c := New(10)
	c.Set(3, 1)
	c.Set(7, 0)
	if c.SpecifiedCount() != 2 || c.Get(3) != 1 || c.Get(7) != 0 {
		t.Error("Set failed")
	}
	// Invariant: Value ⊆ Mask.
	for i := 0; i < 10; i++ {
		if c.Value.Bit(i) == 1 && c.Mask.Bit(i) == 0 {
			t.Fatal("Value bit outside Mask")
		}
	}
}

func TestMatches(t *testing.T) {
	c := MustParse("1x0x")
	match, _ := gf2.FromString("1101")
	if !c.Matches(match) {
		t.Error("should match")
	}
	noMatch, _ := gf2.FromString("0100")
	if c.Matches(noMatch) {
		t.Error("should not match (bit 0)")
	}
	// All-X cube matches everything.
	allX := New(4)
	if !allX.Matches(match) || !allX.Matches(noMatch) {
		t.Error("all-X cube must match everything")
	}
}

// compatibleWith reports whether two cubes of equal width can be merged:
// no position is specified in both with opposite values.
func (c Cube) compatibleWith(o Cube) bool {
	if c.Width() != o.Width() {
		return false
	}
	cm, cv := c.Mask.Words(), c.Value.Words()
	om, ov := o.Mask.Words(), o.Value.Words()
	for i := range cm {
		if (cv[i]^ov[i])&cm[i]&om[i] != 0 {
			return false
		}
	}
	return true
}

// merge returns the union of two compatible cubes. It panics if they
// conflict; check compatibleWith first.
func (c Cube) merge(o Cube) Cube {
	if !c.compatibleWith(o) {
		panic("cube: merging incompatible cubes")
	}
	out := c.Clone()
	mw, vw := out.Mask.Words(), out.Value.Words()
	om, ov := o.Mask.Words(), o.Value.Words()
	for i := range mw {
		mw[i] |= om[i]
		vw[i] |= ov[i]
	}
	return out
}

func TestCompatibleAndMerge(t *testing.T) {
	a := MustParse("1x0x")
	b := MustParse("x10x")
	if !a.compatibleWith(b) {
		t.Fatal("compatible cubes reported incompatible")
	}
	m := a.merge(b)
	if m.String() != "110x" {
		t.Errorf("merge = %q", m.String())
	}
	c := MustParse("0xxx")
	if a.compatibleWith(c) {
		t.Error("conflicting cubes reported compatible")
	}
	defer func() {
		if recover() == nil {
			t.Error("merge of incompatible cubes did not panic")
		}
	}()
	a.merge(c)
}

func TestMergePreservesMatches(t *testing.T) {
	// Any vector matching the merge matches both parents and vice versa.
	f := func(seed uint64) bool {
		src := prng.New(seed)
		w := 40
		a, b := randomCompatiblePair(src, w)
		m := a.merge(b)
		for trial := 0; trial < 20; trial++ {
			v := gf2.NewVec(w)
			for i := 0; i < w; i++ {
				v.SetBit(i, src.Bit())
			}
			// Force v to match m for half the trials.
			if trial%2 == 0 {
				for i := 0; i < w; i++ {
					if m.Get(i) >= 0 {
						v.SetBit(i, uint8(m.Get(i)))
					}
				}
			}
			if m.Matches(v) != (a.Matches(v) && b.Matches(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomCompatiblePair(src *prng.Source, w int) (Cube, Cube) {
	a, b := New(w), New(w)
	for i := 0; i < w; i++ {
		switch src.Intn(4) {
		case 0:
			v := src.Bit()
			a.Set(i, v)
			if src.Bit() == 1 {
				b.Set(i, v) // shared position, same value
			}
		case 1:
			b.Set(i, src.Bit())
		}
	}
	return a, b
}

func TestPadTo(t *testing.T) {
	c := MustParse("10")
	p := c.PadTo(5)
	if p.Width() != 5 || p.Get(0) != 1 || p.Get(1) != 0 || p.Get(4) != -1 {
		t.Error("PadTo wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("PadTo truncation did not panic")
		}
	}()
	c.PadTo(1)
}

func TestSetAddAndStats(t *testing.T) {
	s := NewSet(8)
	s.Add(MustParse("1xxxxxx0"))
	s.Add(MustParse("01x"))
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Cubes[1].Width() != 8 {
		t.Error("Add did not pad")
	}
	if err := s.Add(MustParse("111111111")); err == nil {
		t.Error("oversized cube accepted")
	}
	if s.MaxSpecified() != 2 {
		t.Errorf("MaxSpecified = %d", s.MaxSpecified())
	}
	if s.TotalSpecified() != 4 {
		t.Errorf("TotalSpecified = %d", s.TotalSpecified())
	}
	sum := s.Summary()
	if sum.MeanSpecified != 2.0 {
		t.Errorf("mean = %f", sum.MeanSpecified)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSet(6)
	s.Add(MustParse("1x0x10"))
	s.Add(MustParse("xxxxx1"))
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 6 || got.Len() != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range s.Cubes {
		if got.Cubes[i].String() != s.Cubes[i].String() {
			t.Errorf("cube %d: %q vs %q", i, got.Cubes[i], s.Cubes[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"width 0\n",
		"nonsense\n",
		"width 4\n1x\n",   // wrong width
		"width 4\n1xz0\n", // bad char
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	// Comments and blank lines are fine.
	ok := "# hi\n\nwidth 3\n# mid\n1x0\n"
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Errorf("rejected valid input: %v", err)
	}
}
