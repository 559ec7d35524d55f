// Package decompressor simulates the proposed decompression architecture of
// the paper's Fig. 3 at clock accuracy and costs it in gate equivalents.
//
// The architecture wraps the State Skip LFSR + phase shifter with six small
// counters and a combinational Mode Select unit:
//
//	Bit Counter            shift clocks within one vector (0..r-1)
//	Vector Counter         vectors within one segment (0..S-1)
//	Segment Counter        segments within one window
//	Useful Segment Counter useful segments remaining for the current seed
//	Seed Counter           seeds within the current group
//	Group Counter          seed groups (group g: seeds with g useful segments)
//
// Every time a new seed is loaded, the Useful Segment Counter is loaded from
// the Group Counter; each completed useful segment decrements it, and at
// zero the next seed is fetched — that is how windows terminate right after
// their last useful segment without storing per-seed lengths. The Mode
// Select unit decodes (segment, seed, group) and raises Mode=1 (Normal) for
// useful segments; everything else runs in State Skip mode.
//
// The simulator here executes exactly that control flow and is checked
// against stateskip.Reduction's analytical accounting and, end-to-end,
// against the cube coverage invariant.
package decompressor

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/hwcost"
	"repro/internal/stateskip"
)

// Schedule is the per-core programming of the architecture, derived from a
// reduction: the ATE seed stream in group order and the Mode Select truth
// table.
type Schedule struct {
	Red *stateskip.Reduction
	// SeedOrder[i] is the index (into Red.Enc.Seeds) of the i-th seed the
	// ATE delivers.
	SeedOrder []int
	// UsefulOf[i][seg] is the Mode Select output for delivered seed i.
	UsefulOf [][]bool
	// Groups[g] is the number of seeds whose windows have exactly g useful
	// segments (g starts at the minimum observed count).
	Groups map[int]int
}

// NewSchedule derives the architecture programming from a reduction.
func NewSchedule(red *stateskip.Reduction) *Schedule {
	s := &Schedule{Red: red, Groups: make(map[int]int)}
	s.SeedOrder = append(s.SeedOrder, red.GroupOrder...)
	for _, si := range s.SeedOrder {
		s.UsefulOf = append(s.UsefulOf, red.Useful[si])
		s.Groups[red.UsefulCount(si)]++
	}
	return s
}

// Result summarises one simulation run.
type Result struct {
	Vectors      []gf2.Vec // every vector applied to the CUT, in order
	Clocks       int       // total shift clocks
	SkipClocks   int       // clocks spent in State Skip mode
	SeedsLoaded  int
	ModeSwitches int
}

// Run executes the full test session: for every seed in group order it
// generates segments until the Useful Segment Counter hits zero, switching
// between Normal and State Skip mode per the Mode Select table.
func (s *Schedule) Run() (*Result, error) {
	red := s.Red
	enc := red.Enc
	geo := enc.Cfg.Geo
	l, ps := enc.Cfg.LFSR, enc.Cfg.PS
	k := red.Opt.Speedup
	skip := l.SkipMatrix(uint64(k))
	res := &Result{}

	state := gf2.NewVec(l.Size())
	next := gf2.NewVec(l.Size())
	cur := gf2.NewVec(geo.Width)
	lastMode := -1

	for _, si := range s.SeedOrder {
		// Seed load from the ATE.
		state.CopyFrom(enc.Seeds[si].Value)
		res.SeedsLoaded++
		usefulLeft := red.UsefulCount(si)
		if usefulLeft == 0 {
			// A window with no useful segments is never generated; the
			// architecture immediately advances to the next seed. Only
			// possible when first-segment pinning is disabled.
			continue
		}
		for _, run := range red.Runs(si) {
			mode := 0
			if run.Useful {
				mode = 1
			}
			if mode != lastMode {
				res.ModeSwitches++
				lastMode = mode
			}
			bit := 0 // Bit Counter, reset at each mode switch
			shift := func() {
				ps.ShiftInto(cur, geo, bit%geo.Length, state)
				bit++
				res.Clocks++
				if bit%geo.Length == 0 {
					res.Vectors = append(res.Vectors, cur.Clone())
				}
			}
			if run.Useful {
				for c := 0; c < run.States; c++ {
					shift()
					l.StepInto(next, state)
					state, next = next, state
				}
				usefulLeft -= run.LastSeg - run.FirstSeg + 1
			} else {
				for c := 0; c < run.States/k; c++ {
					shift()
					res.SkipClocks++
					skip.MulVecInto(next, state)
					state, next = next, state
				}
				for c := 0; c < run.States%k; c++ {
					shift()
					l.StepInto(next, state)
					state, next = next, state
				}
				if bit%geo.Length != 0 {
					// Capture the partial garbage vector before the mode switch.
					res.Vectors = append(res.Vectors, cur.Clone())
				}
			}
		}
		if usefulLeft != 0 {
			return nil, fmt.Errorf("decompressor: seed %d: useful segment counter ended at %d", si, usefulLeft)
		}
	}
	return res, nil
}

// VerifyCoverage checks that every cube of the encoding matches at least
// one applied vector — the end-to-end guarantee of the whole scheme.
func (s *Schedule) VerifyCoverage(res *Result) error {
	for ci, c := range s.Red.Enc.Set.Cubes {
		found := false
		for _, v := range res.Vectors {
			if c.Matches(v) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("decompressor: cube %d never applied", ci)
		}
	}
	return nil
}

// CostBreakdown itemises the architecture's GE cost (paper §4).
type CostBreakdown struct {
	LFSR         float64 // register cells + 2:1 muxes between the two modes
	SkipCircuit  float64 // the T^k XOR network, after CSE
	PhaseShifter float64
	Counters     float64 // the six counters of Fig. 3
	ModeSelect   float64 // per-core decode of useful segments
}

// SharedGE returns the cost of everything reusable across the cores of a
// SoC (all but Mode Select).
func (c CostBreakdown) SharedGE() float64 {
	return c.LFSR + c.SkipCircuit + c.PhaseShifter + c.Counters
}

// TotalGE includes the per-core Mode Select unit.
func (c CostBreakdown) TotalGE() float64 { return c.SharedGE() + c.ModeSelect }

// Cost computes the breakdown for one programmed core.
func (s *Schedule) Cost() CostBreakdown {
	red := s.Red
	enc := red.Enc
	n := enc.Cfg.LFSR.Size()
	geo := enc.Cfg.Geo

	var c CostBreakdown
	// LFSR: n flip-flops plus a 2:1 mux in front of every cell selecting
	// Normal vs State Skip next-state.
	c.LFSR = hwcost.Register(n) + hwcost.Mux2(n)
	// Feedback network of the characteristic polynomial plus the skip
	// matrix network, both with CSE.
	c.SkipCircuit = hwcost.CostLinear(enc.Cfg.LFSR.SkipMatrix(uint64(red.Opt.Speedup))).GE()
	c.PhaseShifter = float64(enc.Cfg.PS.XORGateCount()) * hwcost.GEXor2

	// Counters: Bit (r), Vector (S), Segment (L/S), Useful Segment (max
	// useful), Seed (max group population), Group (group count).
	maxUseful := 0
	for si := range red.Useful {
		if u := red.UsefulCount(si); u > maxUseful {
			maxUseful = u
		}
	}
	maxGroupPop := 0
	for _, pop := range s.Groups {
		if pop > maxGroupPop {
			maxGroupPop = pop
		}
	}
	c.Counters = hwcost.CounterFor(geo.Length) +
		hwcost.CounterFor(red.Opt.SegmentSize) +
		hwcost.CounterFor(red.Segs) +
		hwcost.Counter(hwcost.BitsFor(maxUseful+1)) +
		hwcost.CounterFor(maxGroupPop+1) +
		hwcost.Counter(hwcost.BitsFor(len(s.Groups)+1))

	c.ModeSelect = s.ModeSelectGE()
	return c
}

// ModeSelectGE models the per-core Mode Select unit. The paper's key
// observation (§3.3): the first segment of every seed is always useful, so
// it needs no decode term; only the useful segments beyond the first
// contribute, and decoding the counters' outputs lets terms share heavily.
// The model charges an amortised shared-decode term per extra useful
// segment plus a fixed OR/collection tree.
func (s *Schedule) ModeSelectGE() float64 {
	red := s.Red
	extra := 0
	for si := range red.Useful {
		u := red.UsefulCount(si)
		if u > 1 {
			extra += u - 1
		}
	}
	segBits := hwcost.BitsFor(red.Segs)
	// Each extra useful segment needs one (shared) AND term over the
	// decoded segment/seed lines; decoded-counter sharing amortises the
	// literals to roughly two gates per term.
	perTerm := 2.0*hwcost.GEAnd2 + 0.25*float64(segBits)
	base := 16.0 // seed-boundary logic, OR tree root, mode flop
	return base + float64(extra)*perTerm
}
