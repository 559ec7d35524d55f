// Package benchprofile supplies the test-set workloads for the paper's
// experiments.
//
// The paper compresses uncompacted stuck-at test sets generated by Atalanta
// for the five largest ISCAS'89 circuits. Those netlists and that ATPG are
// not redistributable here, but every algorithm in the paper consumes only
// the *test cubes* — the positions and values of specified bits — so a
// synthetic cube set with matching statistics exercises identical code
// paths. Each profile pins: the scan width (primary inputs + scan cells of
// the real circuit), the LFSR size the paper's Table 1 reports (which
// equals the maximum specified-bit count the encoding must accommodate),
// a cube count and a specified-bit distribution calibrated so the
// window-based encoder reproduces the paper's TDV/TSL trade-off shape.
//
// The distribution model is a two-population mixture observed in ATPG sets:
// a small dense head (hard faults needing many specified bits, up to
// s_max) and a long sparse tail (most faults need few care bits). See
// ARCHITECTURE.md §④ for the substitution rationale.
package benchprofile

import (
	"fmt"
	"math"

	"repro/internal/cube"
	"repro/internal/gf2"
	"repro/internal/prng"
)

// Profile describes one synthetic circuit workload.
type Profile struct {
	Name     string
	Width    int // scan cells + primary inputs of the real circuit
	Chains   int // scan chains (32 throughout the paper)
	LFSRSize int // n from the paper's Table 1

	NumCubes int // cubes in the uncompacted test set

	// SMax is the maximum specified-bit count of any cube. Koenemann's
	// classic analysis needs head room between s_max and the LFSR size n
	// for the equation systems to stay solvable with high probability;
	// profiles keep SMax a few bits under LFSRSize. 0 means LFSRSize-4.
	SMax int

	// Specified-bit mixture: a fraction DenseFrac of cubes draw their
	// specified count uniformly from [DenseLo·n, n]; the rest draw either
	// 1 + Geometric with mean TailMean (TailSpread = 0) or uniformly from
	// [TailMean-TailSpread, TailMean+TailSpread] (TailSpread > 0). The
	// uniform form models uncompacted ATPG sets, whose care-bit counts
	// concentrate around the typical fault's cone size rather than decaying
	// geometrically.
	DenseFrac  float64
	DenseLo    float64
	TailMean   float64
	TailSpread int

	// Position clustering. ATPG cubes concentrate specified bits on a small
	// set of hot inputs (control/select signals reused by many faults):
	// each specified bit lands in a pool of HotCount hot positions with
	// probability HotFrac, otherwise anywhere. Clustering drives the cube
	// incompatibility that limits classical (L=1) seed packing.
	HotFrac  float64
	HotCount int

	// ValueBias is the probability that a specified hot position takes its
	// position-preferred value. High bias models the correlated values real
	// test sets show (many faults need the same enable/reset polarity),
	// which makes equation systems overlap consistently and pushes encoding
	// utilisation above one specified bit per stored bit, as in the paper's
	// s38417 (93123 specified bits stored in 58225). 0 means 0.5 (no bias).
	ValueBias float64

	Seed uint64 // generation PRNG seed
}

// Generate produces the synthetic cube set deterministically from the
// profile's seed.
func (p Profile) Generate() *cube.Set {
	if p.Width <= 0 || p.NumCubes <= 0 || p.LFSRSize <= 0 {
		panic(fmt.Sprintf("benchprofile: invalid profile %+v", p))
	}
	src := prng.New(p.Seed)
	set := cube.NewSet(p.Width)
	sMax := p.SMax
	if sMax <= 0 {
		sMax = p.LFSRSize - 4
	}
	if sMax > p.Width {
		sMax = p.Width
	}
	if sMax < 1 {
		sMax = 1
	}
	nDense := int(math.Round(p.DenseFrac * float64(p.NumCubes)))
	if nDense < 1 {
		nDense = 1
	}
	lo := int(p.DenseLo * float64(sMax))
	if lo < 1 {
		lo = 1
	}
	gen := &generator{src: src, p: p, sMax: sMax}
	gen.init()
	for i := 0; i < p.NumCubes; i++ {
		var spec int
		if i < nDense {
			spec = lo + src.Intn(sMax-lo+1)
		} else if p.TailSpread > 0 {
			spec = int(p.TailMean) - p.TailSpread + src.Intn(2*p.TailSpread+1)
			if spec < 1 {
				spec = 1
			}
			if spec > sMax {
				spec = sMax
			}
		} else {
			// Geometric tail with the configured mean, clamped to [1, sMax].
			mean := p.TailMean
			if mean < 1 {
				mean = 1
			}
			spec = 1 + src.Geometric(1/mean)
			if spec > sMax {
				spec = sMax
			}
		}
		set.Cubes = append(set.Cubes, gen.cube(spec))
	}
	// Guarantee the head actually reaches s_max so the LFSR size is tight,
	// as in the paper where n is derived from the densest cube.
	gen.widen(&set.Cubes[0], sMax)
	return set
}

// generator holds the clustering state for one synthesis run.
type generator struct {
	src       *prng.Source
	p         Profile
	sMax      int
	hot       []int   // hot position pool
	preferred gf2.Vec // preferred value per position
}

func (g *generator) init() {
	hc := g.p.HotCount
	if hc > g.p.Width {
		hc = g.p.Width
	}
	if hc > 0 {
		perm := g.src.Perm(g.p.Width)
		g.hot = perm[:hc]
	}
	g.preferred = gf2.NewVec(g.p.Width)
	for i := 0; i < g.p.Width; i++ {
		g.preferred.SetBit(i, g.src.Bit())
	}
}

func (g *generator) pickPos() int {
	if len(g.hot) > 0 && g.src.Float64() < g.p.HotFrac {
		return g.hot[g.src.Intn(len(g.hot))]
	}
	return g.src.Intn(g.p.Width)
}

func (g *generator) pickValue(pos int) uint8 {
	bias := g.p.ValueBias
	if bias <= 0 {
		bias = 0.5
	}
	if g.src.Float64() < bias {
		return g.preferred.Bit(pos)
	}
	return 1 - g.preferred.Bit(pos)
}

func (g *generator) cube(spec int) cube.Cube {
	c := cube.New(g.p.Width)
	for c.SpecifiedCount() < spec {
		pos := g.pickPos()
		if c.Mask.Bit(pos) == 0 {
			c.Set(pos, g.pickValue(pos))
		}
	}
	return c
}

func (g *generator) widen(c *cube.Cube, spec int) {
	for c.SpecifiedCount() < spec {
		pos := g.src.Intn(c.Width())
		if c.Mask.Bit(pos) == 0 {
			c.Set(pos, g.pickValue(pos))
		}
	}
}

// Scale selects between the paper-sized workloads and reduced ones that
// keep `go test` fast.
type Scale int

const (
	// ScaleCI is a reduced workload for tests and default benchmarks.
	ScaleCI Scale = iota
	// ScalePaper matches the paper's experiment sizes.
	ScalePaper
)

func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "ci"
}

// Names lists the five ISCAS'89 circuits of the paper, in table order.
func Names() []string {
	return []string{"s9234", "s13207", "s15850", "s38417", "s38584"}
}

// ByName returns the profile for one of the paper's circuits at the given
// scale. CI-scale profiles shrink width, cube count and window sizes but
// keep the mixture shape, so every behaviour (window packing, fortuitous
// embedding, segment selection) still occurs.
func ByName(name string, scale Scale) (Profile, error) {
	ps := profiles(scale)
	for _, p := range ps {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("benchprofile: unknown circuit %q", name)
}

// All returns every profile at the given scale, in the paper's table order.
func All(scale Scale) []Profile {
	return profiles(scale)
}

// profiles holds the calibrated workloads.
//
// Paper-scale calibration targets (Table 1): seed counts 243/369/298/685/405
// at L=1 shrinking to 152/112/159/553/92 at L=500. Achieved (`go run
// ./cmd/stateskip -scale paper table1`): 261/361/267/670/420 at L=1 and
// 182/77/179/679/103 at L=500, within ~35% of the targets. The orderings
// and the steep, conflict-bound fall of s13207 and s38584 match, but
// s38417 does not: its seed count stays flat (670 → 679) where the paper's
// falls by a fifth (685 → 553). Table 2 (`... table2`) shows the same two
// circuits off the paper: at L=500 the State Skip sequence is 1,540
// vectors for s38417 against the paper's 21,865, and 2,650 for s38584
// against 9,054, while s9234, s13207 and s15850 land within ~25%. The
// knobs were tuned against the L∈{1,50,200,500} seed-count targets per
// circuit.
func profiles(scale Scale) []Profile {
	switch scale {
	case ScalePaper:
		return []Profile{
			{Name: "s9234", Width: 247, Chains: 32, LFSRSize: 44, SMax: 30, NumCubes: 450,
				DenseFrac: 0.85, DenseLo: 0.70, TailMean: 10, TailSpread: 4,
				HotCount: 25, HotFrac: 0.80, ValueBias: 0.84, Seed: 0x9234},
			{Name: "s13207", Width: 700, Chains: 32, LFSRSize: 24, SMax: 16, NumCubes: 1150,
				DenseFrac: 0.80, DenseLo: 0.625, TailMean: 4, TailSpread: 2,
				HotCount: 12, HotFrac: 0.88, ValueBias: 0.75, Seed: 0x13207},
			{Name: "s15850", Width: 611, Chains: 32, LFSRSize: 39, SMax: 27, NumCubes: 600,
				DenseFrac: 0.85, DenseLo: 0.60, TailMean: 7, TailSpread: 3,
				HotCount: 22, HotFrac: 0.80, ValueBias: 0.82, Seed: 0x15850},
			{Name: "s38417", Width: 1664, Chains: 32, LFSRSize: 85, SMax: 72, NumCubes: 1350,
				DenseFrac: 0.90, DenseLo: 0.81, TailMean: 30, TailSpread: 10,
				HotCount: 60, HotFrac: 0.90, ValueBias: 0.98, Seed: 0x38417},
			{Name: "s38584", Width: 1464, Chains: 32, LFSRSize: 56, SMax: 20, NumCubes: 1150,
				DenseFrac: 0.80, DenseLo: 0.55, TailMean: 4, TailSpread: 2,
				HotCount: 14, HotFrac: 0.85, ValueBias: 0.75, Seed: 0x38584},
		}
	default:
		return []Profile{
			{Name: "s9234", Width: 96, Chains: 8, LFSRSize: 24, SMax: 15, NumCubes: 60,
				DenseFrac: 0.50, DenseLo: 0.60, TailMean: 4, TailSpread: 2,
				HotCount: 10, HotFrac: 0.60, ValueBias: 0.80, Seed: 0x9234},
			{Name: "s13207", Width: 128, Chains: 8, LFSRSize: 16, SMax: 10, NumCubes: 70,
				DenseFrac: 0.40, DenseLo: 0.60, TailMean: 3, TailSpread: 2,
				HotCount: 8, HotFrac: 0.55, ValueBias: 0.75, Seed: 0x13207},
			{Name: "s15850", Width: 112, Chains: 8, LFSRSize: 20, SMax: 13, NumCubes: 64,
				DenseFrac: 0.45, DenseLo: 0.55, TailMean: 4, TailSpread: 2,
				HotCount: 9, HotFrac: 0.60, ValueBias: 0.80, Seed: 0x15850},
			{Name: "s38417", Width: 160, Chains: 8, LFSRSize: 32, SMax: 22, NumCubes: 110,
				DenseFrac: 0.60, DenseLo: 0.65, TailMean: 6, TailSpread: 3,
				HotCount: 14, HotFrac: 0.70, ValueBias: 0.90, Seed: 0x38417},
			{Name: "s38584", Width: 144, Chains: 8, LFSRSize: 22, SMax: 14, NumCubes: 80,
				DenseFrac: 0.35, DenseLo: 0.55, TailMean: 3, TailSpread: 2,
				HotCount: 9, HotFrac: 0.60, ValueBias: 0.75, Seed: 0x38584},
		}
	}
}
