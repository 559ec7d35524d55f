package stateskiplfsr

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

const facadeSet = `width 32
1xx0xxxxxxxx1xxxxxxxxxxxxxxxxxx0
x1xxxxxx0xxxxxxxxx1xxxxxxxxxxxxx
xx11xxxxxxxxxxxx0xxxxxxxx1xxxxxx
xxxxx0xxxx1xxxxxxxxxxx0xxxxxxxxx
1xxxxxxxxxxxxxx1xxxxxxxxxxx0xxxx
xxxxxxx1xxxxx0xxxxxxxxxxxxxxx1xx
`

func TestFacadeEndToEnd(t *testing.T) {
	set, err := ReadCubes(strings.NewReader(facadeSet))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	enc, variant, err := EncodeAuto(ctx, 14, set.Width, 4, 8, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Verify(); err != nil {
		t.Fatal(err)
	}
	// A shared cache and an explicit Encode of the same standard
	// decompressor give the same seeds as the private-tables path.
	cached, cachedVariant, err := EncodeAuto(ctx, 14, set.Width, 4, 8, set, NewEncoderTablesCache())
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Encode(ctx, enc.Cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*Encoding{cached, explicit} {
		if len(other.Seeds) != len(enc.Seeds) || other.Seeds[0].Value.String() != enc.Seeds[0].Value.String() {
			t.Fatalf("encodings differ: %d vs %d seeds", len(other.Seeds), len(enc.Seeds))
		}
	}
	if cachedVariant != variant {
		t.Fatalf("cached variant %d != %d", cachedVariant, variant)
	}
	red, err := Reduce(enc, ReduceOptions(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	if red.TSL() > enc.TSL() {
		t.Errorf("reduction did not shorten: %d vs %d", red.TSL(), enc.TSL())
	}
	sched := NewSchedule(red)
	res, err := sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.VerifyCoverage(res); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCubeHelpers(t *testing.T) {
	c, err := ParseCube("1x0")
	if err != nil {
		t.Fatal(err)
	}
	if c.SpecifiedCount() != 2 {
		t.Errorf("spec = %d", c.SpecifiedCount())
	}
	l, err := NewLFSR(24)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 24 {
		t.Errorf("size = %d", l.Size())
	}
	// Round trip through the serialisation format.
	set, _ := ReadCubes(strings.NewReader(facadeSet))
	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ReadCubes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != set.Len() {
		t.Error("round trip lost cubes")
	}
}
