package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/benchprofile"
	"repro/internal/decompressor"
	"repro/internal/hwcost"
	"repro/internal/lfsr"
	"repro/internal/litdata"
)

// SkipCostPoint is one k of the skip-circuit cost sweep.
type SkipCostPoint struct {
	K       int
	NaiveGE float64
	CSEGE   float64
}

// SkipCircuitSweep reproduces the paper's §4 State-Skip-circuit overhead
// trend on the s13207 register (n=24 at paper scale): GE versus k, with and
// without common-subexpression sharing (the CSE ablation).
func (s *Session) SkipCircuitSweep(ctx context.Context, ks []int) ([]SkipCostPoint, error) {
	p, err := benchprofile.ByName("s13207", s.Scale)
	if err != nil {
		return nil, err
	}
	l, err := lfsr.NewStandard(lfsr.Fibonacci, p.LFSRSize)
	if err != nil {
		return nil, err
	}
	var pts []SkipCostPoint
	for _, k := range ks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		net := hwcost.CostLinear(l.SkipMatrix(uint64(k)))
		pts = append(pts, SkipCostPoint{K: k, NaiveGE: net.NaiveGE(), CSEGE: net.GE()})
	}
	return pts, nil
}

// HWReport aggregates the §4 hardware experiments.
type HWReport struct {
	SkipSweep []SkipCostPoint
	// Breakdown of one representative s13207 decompressor.
	Breakdown decompressor.CostBreakdown
	// Mode Select GE range over the (L, S) grid of the paper.
	ModeSelectMin, ModeSelectMax float64
}

// HWOverhead runs the hardware cost experiments on s13207.
func (s *Session) HWOverhead(ctx context.Context) (*HWReport, error) {
	rep := &HWReport{}
	ks := []int{4, 8, 12, 16, 20, 24, 28, 32}
	var err error
	rep.SkipSweep, err = s.SkipCircuitSweep(ctx, ks)
	if err != nil {
		return nil, err
	}

	// Representative decompressor: middle of the paper's parameter space.
	L, S, k := 200, 10, 10
	if s.Scale != benchprofile.ScalePaper {
		L, S, k = 16, 4, 8
	}
	red, err := s.Reduce(ctx, "s13207", L, S, k)
	if err != nil {
		return nil, err
	}
	rep.Breakdown = decompressor.NewSchedule(red).Cost()

	// Mode Select range over the paper's 50 ≤ L ≤ 500, 2 ≤ S ≤ 50 grid
	// (scaled down in CI).
	Ls := []int{50, 200, 500}
	Ss := []int{2, 10, 50}
	if s.Scale != benchprofile.ScalePaper {
		Ls = []int{8, 16, 32}
		Ss = []int{2, 4, 8}
	}
	first := true
	for _, L := range Ls {
		for _, S := range Ss {
			if S > L {
				continue
			}
			red, err := s.Reduce(ctx, "s13207", L, S, k)
			if err != nil {
				return nil, err
			}
			ge := decompressor.NewSchedule(red).ModeSelectGE()
			if first || ge < rep.ModeSelectMin {
				rep.ModeSelectMin = ge
			}
			if first || ge > rep.ModeSelectMax {
				rep.ModeSelectMax = ge
			}
			first = false
		}
	}
	return rep, nil
}

// HWMarkdown renders the hardware report with the paper's §4 numbers for
// comparison.
func (s *Session) HWMarkdown(rep *HWReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hardware overhead (s13207 register, %s scale)\n\n", s.Scale)
	b.WriteString("State Skip circuit GE vs k (CSE ablation):\n\n| k | naive GE | CSE GE |\n|---|---|---|\n")
	for _, p := range rep.SkipSweep {
		fmt.Fprintf(&b, "| %d | %.0f | %.0f |\n", p.K, p.NaiveGE, p.CSEGE)
	}
	if s.Scale == benchprofile.ScalePaper {
		fmt.Fprintf(&b, "\n(paper: %d GE at k=12 rising to %d GE at k=32)\n",
			litdata.HWOverhead.SkipGEAtK12, litdata.HWOverhead.SkipGEAtK32)
	}
	fmt.Fprintf(&b, "\nDecompressor breakdown (GE): LFSR+muxes %.0f, skip circuit %.0f, phase shifter %.0f, counters %.0f, Mode Select %.0f; shared total %.0f\n",
		rep.Breakdown.LFSR, rep.Breakdown.SkipCircuit, rep.Breakdown.PhaseShifter,
		rep.Breakdown.Counters, rep.Breakdown.ModeSelect, rep.Breakdown.SharedGE())
	if s.Scale == benchprofile.ScalePaper {
		fmt.Fprintf(&b, "(paper: rest-of-decompressor ≈ %d GE)\n", litdata.HWOverhead.RestOfDecompressorGE)
	}
	fmt.Fprintf(&b, "\nMode Select GE over the (L,S) grid: %.0f – %.0f\n", rep.ModeSelectMin, rep.ModeSelectMax)
	if s.Scale == benchprofile.ScalePaper {
		fmt.Fprintf(&b, "(paper: %d – %d GE)\n", litdata.HWOverhead.ModeSelectGEMin, litdata.HWOverhead.ModeSelectGEMax)
	}
	return b.String()
}

// SoCCore is one core of the hypothetical multi-core SoC experiment.
type SoCCore struct {
	Circuit      string
	ModeSelectGE float64
	TSL          int
}

// SoCReport is the §4 multi-core synthesis experiment: five cores sharing
// one State Skip decompressor, per-core Mode Select units.
type SoCReport struct {
	Cores       []SoCCore
	SharedGE    float64 // one LFSR + skip circuit + PS + counters
	TotalGE     float64
	SoCGateEst  float64 // rough gate-count estimate of the five cores
	AreaPercent float64
}

// coreGateEstimates are published approximate gate counts of the ISCAS'89
// circuits (combinational gates + 4 GE per flip-flop), used only to put the
// decompressor overhead in proportion, as the paper's 6.6% figure does.
var coreGateEstimates = map[string]float64{
	"s9234":  5597 + 211*4,
	"s13207": 7951 + 638*4,
	"s15850": 9772 + 534*4,
	"s38417": 22179 + 1636*4,
	"s38584": 19253 + 1426*4,
}

// SoC runs the five-core SoC experiment (paper: L=200, S=10, k=10).
func (s *Session) SoC(ctx context.Context) (*SoCReport, error) {
	L, S, k := 200, 10, 10
	if s.Scale != benchprofile.ScalePaper {
		L, S, k = 16, 4, 8
	}
	rep := &SoCReport{}
	var maxShared float64
	for _, name := range benchprofile.Names() {
		red, err := s.Reduce(ctx, name, L, S, k)
		if err != nil {
			return nil, err
		}
		sched := decompressor.NewSchedule(red)
		cost := sched.Cost()
		rep.Cores = append(rep.Cores, SoCCore{
			Circuit:      name,
			ModeSelectGE: cost.ModeSelect,
			TSL:          red.TSL(),
		})
		// The shared datapath must accommodate the largest register and
		// phase shifter among the cores.
		if cost.SharedGE() > maxShared {
			maxShared = cost.SharedGE()
		}
		rep.SoCGateEst += coreGateEstimates[name]
	}
	rep.SharedGE = maxShared
	rep.TotalGE = maxShared
	for _, c := range rep.Cores {
		rep.TotalGE += c.ModeSelectGE
	}
	if rep.SoCGateEst > 0 {
		rep.AreaPercent = 100 * rep.TotalGE / rep.SoCGateEst
	}
	return rep, nil
}

// SoCMarkdown renders the SoC experiment.
func (s *Session) SoCMarkdown(rep *SoCReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hypothetical 5-core SoC (%s scale)\n\n| Core | Mode Select GE | TSL |\n|---|---|---|\n", s.Scale)
	for _, c := range rep.Cores {
		fmt.Fprintf(&b, "| %s | %.0f | %d |\n", c.Circuit, c.ModeSelectGE, c.TSL)
	}
	fmt.Fprintf(&b, "\nShared decompressor: %.0f GE; total with Mode Selects: %.0f GE; ≈ %.1f%% of the SoC gate estimate\n",
		rep.SharedGE, rep.TotalGE, rep.AreaPercent)
	if s.Scale == benchprofile.ScalePaper {
		fmt.Fprintf(&b, "(paper: per-core Mode Select %d–%d GE, decompressor ≈ %.1f%% of SoC area)\n",
			litdata.HWOverhead.SoCModeSelectMin, litdata.HWOverhead.SoCModeSelectMax, litdata.HWOverhead.SoCAreaPercent)
	}
	return b.String()
}
