// Package cube models test cubes: test vectors over {0, 1, X} where X marks
// an unspecified (don't-care) position. Test cubes are the only information
// an IP-core integrator has about the core's tests, and everything the paper
// does — seed computation, window embedding, useful-segment selection —
// consumes cubes and nothing else.
//
// A cube of width W is stored as two W-bit vectors: Mask (1 = specified) and
// Value (the specified bits; zero wherever Mask is zero, an invariant the
// constructors maintain so word-level matching stays branch-free).
package cube

import (
	"fmt"
	"strings"

	"repro/internal/gf2"
)

// Cube is a single test cube. The zero value is an empty cube of width 0.
type Cube struct {
	Mask  gf2.Vec // specified-position mask
	Value gf2.Vec // specified values; Value ⊆ Mask bitwise
}

// New returns an all-X cube of the given width.
func New(width int) Cube {
	return Cube{Mask: gf2.NewVec(width), Value: gf2.NewVec(width)}
}

// Parse reads a cube from a string of '0', '1', 'x'/'X' characters
// (separators '_' and ' ' are ignored). Position 0 is the first character.
func Parse(s string) (Cube, error) {
	var mask, val []uint8
	for _, r := range s {
		switch r {
		case '0':
			mask = append(mask, 1)
			val = append(val, 0)
		case '1':
			mask = append(mask, 1)
			val = append(val, 1)
		case 'x', 'X':
			mask = append(mask, 0)
			val = append(val, 0)
		case '_', ' ':
		default:
			return Cube{}, fmt.Errorf("cube: invalid character %q", r)
		}
	}
	return Cube{Mask: gf2.FromBits(mask), Value: gf2.FromBits(val)}, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Cube {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// Width returns the cube width in bit positions.
func (c Cube) Width() int { return c.Mask.Len() }

// SpecifiedCount returns the number of specified (non-X) positions.
func (c Cube) SpecifiedCount() int { return c.Mask.PopCount() }

// Get returns the value at position i: 0, 1, or X (represented as -1).
func (c Cube) Get(i int) int {
	if c.Mask.Bit(i) == 0 {
		return -1
	}
	return int(c.Value.Bit(i))
}

// Set specifies position i to bit b.
func (c Cube) Set(i int, b uint8) {
	c.Mask.SetBit(i, 1)
	c.Value.SetBit(i, b)
}

// Clone returns an independent copy.
func (c Cube) Clone() Cube {
	return Cube{Mask: c.Mask.Clone(), Value: c.Value.Clone()}
}

// Matches reports whether the fully specified vector v agrees with every
// specified position of the cube: (v ⊕ Value) ∧ Mask = 0. This is the inner
// loop of fortuitous-embedding analysis, so it early-exits per word.
func (c Cube) Matches(v gf2.Vec) bool {
	if v.Len() != c.Width() {
		panic(fmt.Sprintf("cube: Matches width mismatch %d != %d", v.Len(), c.Width()))
	}
	vw, mw, cw := v.Words(), c.Mask.Words(), c.Value.Words()
	for i := range vw {
		if (vw[i]^cw[i])&mw[i] != 0 {
			return false
		}
	}
	return true
}

// String renders the cube as 0/1/x characters.
func (c Cube) String() string {
	var sb strings.Builder
	sb.Grow(c.Width())
	for i := 0; i < c.Width(); i++ {
		switch c.Get(i) {
		case -1:
			sb.WriteByte('x')
		case 0:
			sb.WriteByte('0')
		default:
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// Specified returns the indices of all specified positions, ascending.
func (c Cube) Specified() []int { return c.Mask.Support() }

// PadTo returns a copy widened to the given width with X in the new
// positions. It panics if width is smaller than the cube width.
func (c Cube) PadTo(width int) Cube {
	if width < c.Width() {
		panic(fmt.Sprintf("cube: PadTo(%d) would truncate width %d", width, c.Width()))
	}
	out := New(width)
	copy(out.Mask.Words(), c.Mask.Words())
	copy(out.Value.Words(), c.Value.Words())
	return out
}
