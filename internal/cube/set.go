package cube

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Set is an ordered collection of equal-width test cubes — the pre-computed
// test set a core vendor ships with an IP core.
type Set struct {
	Width int
	Cubes []Cube
}

// NewSet returns an empty set of the given width.
func NewSet(width int) *Set { return &Set{Width: width} }

// Add appends a cube, padding it to the set width if needed.
func (s *Set) Add(c Cube) error {
	if c.Width() > s.Width {
		return fmt.Errorf("cube: cube width %d exceeds set width %d", c.Width(), s.Width)
	}
	if c.Width() < s.Width {
		c = c.PadTo(s.Width)
	}
	s.Cubes = append(s.Cubes, c)
	return nil
}

// Len returns the number of cubes.
func (s *Set) Len() int { return len(s.Cubes) }

// MaxSpecified returns s_max, the largest specified-bit count over all
// cubes — the quantity that lower-bounds the LFSR size in reseeding.
func (s *Set) MaxSpecified() int {
	max := 0
	for _, c := range s.Cubes {
		if n := c.SpecifiedCount(); n > max {
			max = n
		}
	}
	return max
}

// TotalSpecified returns the sum of specified bits over all cubes.
func (s *Set) TotalSpecified() int {
	total := 0
	for _, c := range s.Cubes {
		total += c.SpecifiedCount()
	}
	return total
}

// Histogram returns a map from specified-bit count to number of cubes.
func (s *Set) Histogram() map[int]int {
	h := make(map[int]int)
	for _, c := range s.Cubes {
		h[c.SpecifiedCount()]++
	}
	return h
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{Width: s.Width, Cubes: make([]Cube, len(s.Cubes))}
	for i, c := range s.Cubes {
		out.Cubes[i] = c.Clone()
	}
	return out
}

// Write serialises the set in a simple text format: a header line
// "width W" followed by one cube per line in 0/1/x characters. Lines
// starting with '#' are comments.
func (s *Set) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "width %d\n", s.Width); err != nil {
		return err
	}
	for _, c := range s.Cubes {
		if _, err := bw.WriteString(c.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write.
func Read(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var set *Set
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if set == nil {
			var w int
			if _, err := fmt.Sscanf(text, "width %d", &w); err != nil {
				return nil, fmt.Errorf("cube: line %d: expected \"width W\" header: %v", line, err)
			}
			if w <= 0 {
				return nil, fmt.Errorf("cube: line %d: non-positive width %d", line, w)
			}
			set = NewSet(w)
			continue
		}
		c, err := Parse(text)
		if err != nil {
			return nil, fmt.Errorf("cube: line %d: %v", line, err)
		}
		if c.Width() != set.Width {
			return nil, fmt.Errorf("cube: line %d: cube width %d != set width %d", line, c.Width(), set.Width)
		}
		set.Cubes = append(set.Cubes, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if set == nil {
		return nil, fmt.Errorf("cube: empty input")
	}
	return set, nil
}

// Stats summarises a cube set for reports.
type Stats struct {
	Cubes          int
	Width          int
	MaxSpecified   int
	TotalSpecified int
	MeanSpecified  float64
}

// Summary computes Stats for the set.
func (s *Set) Summary() Stats {
	st := Stats{Cubes: len(s.Cubes), Width: s.Width, MaxSpecified: s.MaxSpecified(), TotalSpecified: s.TotalSpecified()}
	if st.Cubes > 0 {
		st.MeanSpecified = float64(st.TotalSpecified) / float64(st.Cubes)
	}
	return st
}
