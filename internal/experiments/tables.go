package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/benchprofile"
	"repro/internal/litdata"
)

// Table1Cell is one (circuit, L) measurement.
type Table1Cell struct {
	L     int
	Seeds int
	TDV   int
	TSL   int
}

// Table1Row is one circuit's row of Table 1.
type Table1Row struct {
	Circuit  string
	LFSRSize int
	Cells    []Table1Cell
}

// Table1 reproduces the paper's Table 1: classical (L=1) vs window-based
// reseeding TDV/TSL per circuit. The (circuit, L) cells are independent and
// run on the session's worker pool.
func (s *Session) Table1(ctx context.Context) ([]Table1Row, error) {
	names := benchprofile.Names()
	Ls := s.Params.Table1Ls
	rows := make([]Table1Row, len(names))
	for i, name := range names {
		p, err := benchprofile.ByName(name, s.Scale)
		if err != nil {
			return nil, err
		}
		rows[i] = Table1Row{Circuit: name, LFSRSize: p.LFSRSize, Cells: make([]Table1Cell, len(Ls))}
	}
	err := s.parallelFor(ctx, len(names)*len(Ls), func(i int) error {
		ci, li := i/len(Ls), i%len(Ls)
		enc, err := s.EncodingCtx(ctx, names[ci], Ls[li])
		if err != nil {
			return err
		}
		rows[ci].Cells[li] = Table1Cell{L: Ls[li], Seeds: len(enc.Seeds), TDV: enc.TDV(), TSL: enc.TSL()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table1Markdown renders Table 1 with the paper's values alongside when the
// session runs at paper scale.
func (s *Session) Table1Markdown(rows []Table1Row) string {
	var b strings.Builder
	paper := s.Scale == benchprofile.ScalePaper
	fmt.Fprintf(&b, "Table 1: Classical vs Window-based LFSR Reseeding (%s scale)\n\n", s.Scale)
	b.WriteString("| Circuit | n |")
	for _, L := range s.Params.Table1Ls {
		fmt.Fprintf(&b, " L=%d TDV | L=%d TSL |", L, L)
	}
	b.WriteString("\n|---|---|")
	for range s.Params.Table1Ls {
		b.WriteString("---|---|")
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "| %s | %d |", row.Circuit, row.LFSRSize)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %d | %d |", c.TDV, c.TSL)
		}
		b.WriteString("\n")
		if paper {
			fmt.Fprintf(&b, "| (paper) | %d |", litdata.LFSRSize[row.Circuit])
			for _, c := range row.Cells {
				if e, ok := litdata.Table1[row.Circuit][c.L]; ok {
					fmt.Fprintf(&b, " %d | %d |", e.TDV, e.TSL)
				} else {
					b.WriteString(" - | - |")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Table2Cell is one (circuit, L) result of the reduction experiment.
type Table2Cell struct {
	L     int
	Orig  int     // full-window TSL
	Prop  int     // shortened TSL (best S, k)
	Impr  float64 // fraction in [0,1]
	BestS int
	BestK int
}

// Table2Row is one circuit's row of Table 2.
type Table2Row struct {
	Circuit string
	Cells   []Table2Cell
}

// Table2 reproduces the paper's Table 2: TSL improvement of the State Skip
// scheme over full windows, best over the (S, k) grid. The (circuit, L)
// cells are independent and run on the session's worker pool.
func (s *Session) Table2(ctx context.Context) ([]Table2Row, error) {
	names := benchprofile.Names()
	Ls := s.Params.Table2Ls
	rows := make([]Table2Row, len(names))
	for i, name := range names {
		rows[i] = Table2Row{Circuit: name, Cells: make([]Table2Cell, len(Ls))}
	}
	err := s.parallelFor(ctx, len(names)*len(Ls), func(i int) error {
		ci, li := i/len(Ls), i%len(Ls)
		best, err := s.BestReduction(ctx, names[ci], Ls[li], s.Params.Table2Ss, s.Params.Table2Ks)
		if err != nil {
			return err
		}
		rows[ci].Cells[li] = Table2Cell{
			L:     Ls[li],
			Orig:  best.Enc.TSL(),
			Prop:  best.TSL(),
			Impr:  best.Improvement(),
			BestS: best.Opt.SegmentSize,
			BestK: best.Opt.Speedup,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table2Markdown renders Table 2 with paper values at paper scale.
func (s *Session) Table2Markdown(rows []Table2Row) string {
	var b strings.Builder
	paper := s.Scale == benchprofile.ScalePaper
	fmt.Fprintf(&b, "Table 2: Test Sequence Length Improvements (%s scale)\n\n", s.Scale)
	b.WriteString("| Circuit |")
	for _, L := range s.Params.Table2Ls {
		fmt.Fprintf(&b, " L=%d Orig | Prop | Impr |", L)
	}
	b.WriteString("\n|---|")
	for range s.Params.Table2Ls {
		b.WriteString("---|---|---|")
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "| %s |", row.Circuit)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %d | %d | %.0f%% |", c.Orig, c.Prop, c.Impr*100)
		}
		b.WriteString("\n")
		if paper {
			b.WriteString("| (paper) |")
			for _, c := range row.Cells {
				if e, ok := litdata.Table2[row.Circuit][c.L]; ok {
					fmt.Fprintf(&b, " %d | %d | %d%% |", e.Orig, e.Prop, e.Impr)
				} else {
					b.WriteString(" - | - | - |")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Fig4Point is one point of a Fig. 4 series.
type Fig4Point struct {
	K    int
	Impr float64
}

// Fig4Series is one bar group or curve of Fig. 4.
type Fig4Series struct {
	Label  string // "S=4 (L=300)" or "L=100 (S=5)"
	Points []Fig4Point
}

// Fig4 reproduces both sweeps of the paper's Fig. 4 on s13207: TSL
// improvement vs k for several segment sizes at fixed L (bars), and for
// several window lengths at fixed S (curves).
func (s *Session) Fig4(ctx context.Context) (bars, curves []Fig4Series, err error) {
	const circuit = "s13207"
	// Flatten both sweeps into one list of (L, S) series so they all run
	// concurrently on the session's worker pool; the k-points of one series
	// share nothing but the cached encoding.
	type spec struct {
		label string
		L, S  int
	}
	var specs []spec
	for _, S := range s.Params.Fig4BarSs {
		specs = append(specs, spec{fmt.Sprintf("S=%d (L=%d)", S, s.Params.Fig4BarL), s.Params.Fig4BarL, S})
	}
	nbars := len(specs)
	for _, L := range s.Params.Fig4CurveLs {
		S := s.Params.Fig4CurveS
		if S > L {
			S = L
		}
		specs = append(specs, spec{fmt.Sprintf("L=%d (S=%d)", L, S), L, S})
	}
	series := make([]Fig4Series, len(specs))
	err = s.parallelFor(ctx, len(specs), func(i int) error {
		serie := Fig4Series{Label: specs[i].label}
		for _, k := range s.Params.Fig4Ks {
			red, err := s.Reduce(ctx, circuit, specs[i].L, specs[i].S, k)
			if err != nil {
				return err
			}
			serie.Points = append(serie.Points, Fig4Point{K: k, Impr: red.Improvement()})
		}
		series[i] = serie
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return series[:nbars], series[nbars:], nil
}

// Fig4Markdown renders both Fig. 4 sweeps as tables.
func (s *Session) Fig4Markdown(bars, curves []Fig4Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: TSL improvement (%%) on s13207 for various k, S, L (%s scale)\n", s.Scale)
	render := func(title string, series []Fig4Series) {
		fmt.Fprintf(&b, "\n%s\n\n| series |", title)
		for _, k := range s.Params.Fig4Ks {
			fmt.Fprintf(&b, " k=%d |", k)
		}
		b.WriteString("\n|---|")
		for range s.Params.Fig4Ks {
			b.WriteString("---|")
		}
		b.WriteString("\n")
		for _, serie := range series {
			fmt.Fprintf(&b, "| %s |", serie.Label)
			for _, p := range serie.Points {
				fmt.Fprintf(&b, " %.1f |", p.Impr*100)
			}
			b.WriteString("\n")
		}
	}
	render("Segment-size sweep (bars)", bars)
	render("Window-length sweep (curves)", curves)
	if s.Scale == benchprofile.ScalePaper {
		b.WriteString("\n(paper: improvements rise from 69–78% at k=3 to 80–93% at k=24 across S=4..20 at L=300,\n and increase with L at fixed S=5)\n")
	}
	return b.String()
}

// Table3Row compares the proposed method against the published test set
// embedding methods at the session's Table-3 window length.
type Table3Row struct {
	Circuit string
	PropTDV int
	PropTSL int
	Lit11   litdata.Table3Entry // Kaseridis et al. [11]
	Lit22   litdata.Table3Entry // Li & Chakrabarty [22]
	Impr11  float64             // TSL improvement vs [11]
	Impr22  float64             // TSL improvement vs [22]
}

// Table3 reproduces the paper's Table 3 comparison (L=300 at paper scale):
// our measured TDV/TSL against the published values of [11] and [22].
func (s *Session) Table3(ctx context.Context) ([]Table3Row, error) {
	names := benchprofile.Names()
	rows := make([]Table3Row, len(names))
	err := s.parallelFor(ctx, len(names), func(i int) error {
		name := names[i]
		best, err := s.BestReduction(ctx, name, s.Params.Table3L, s.Params.Table2Ss, s.Params.Table2Ks)
		if err != nil {
			return err
		}
		row := Table3Row{
			Circuit: name,
			PropTDV: best.Enc.TDV(),
			PropTSL: best.TSL(),
			Lit11:   litdata.Table3[name]["[11]"],
			Lit22:   litdata.Table3[name]["[22]"],
		}
		row.Impr11 = 1 - float64(row.PropTSL)/float64(row.Lit11.TSL)
		row.Impr22 = 1 - float64(row.PropTSL)/float64(row.Lit22.TSL)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3Markdown renders Table 3. Published TSLs of [11] and [22] are from
// the paper; comparisons of our measured TSL against them are only
// meaningful at paper scale.
func (s *Session) Table3Markdown(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: vs Test Set Embedding methods (L=%d, %s scale)\n\n", s.Params.Table3L, s.Scale)
	b.WriteString("| Circuit | TDV [11] | TDV [22] | TDV prop | TSL [11] | TSL [22] | TSL prop | Impr vs [11] | Impr vs [22] |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %.1f%% | %.1f%% |\n",
			r.Circuit, r.Lit11.TDV, r.Lit22.TDV, r.PropTDV, r.Lit11.TSL, r.Lit22.TSL, r.PropTSL,
			r.Impr11*100, r.Impr22*100)
		if s.Scale == benchprofile.ScalePaper {
			p := litdata.Table3[r.Circuit]["prop"]
			fmt.Fprintf(&b, "| (paper prop) |  |  | %d |  |  | %d |  |  |\n", p.TDV, p.TSL)
		}
	}
	return b.String()
}

// Table4Row is one circuit's row of the Table 4 comparison.
type Table4Row struct {
	Circuit      string
	ClassicalTDV int
	ClassicalTSL int
	PropTDV      int
	PropTSL      int
	Compression  map[string]int // method name → published TDV
}

// Table4 reproduces the paper's Table 4: the two options for IP cores —
// test data compression (published TDVs) vs the proposed embedding
// (classical L=1 and State-Skip-shortened L=200, both measured here).
func (s *Session) Table4(ctx context.Context) ([]Table4Row, error) {
	names := benchprofile.Names()
	rows := make([]Table4Row, len(names))
	err := s.parallelFor(ctx, len(names), func(i int) error {
		name := names[i]
		classical, err := s.EncodingCtx(ctx, name, 1)
		if err != nil {
			return err
		}
		best, err := s.BestReduction(ctx, name, s.Params.Table4PropL, s.Params.Table2Ss, s.Params.Table2Ks)
		if err != nil {
			return err
		}
		row := Table4Row{
			Circuit:      name,
			ClassicalTDV: classical.TDV(),
			ClassicalTSL: classical.TSL(),
			PropTDV:      best.Enc.TDV(),
			PropTSL:      best.TSL(),
			Compression:  make(map[string]int),
		}
		for _, m := range litdata.Table4Compression {
			row.Compression[m.Name] = m.TDV[name]
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table4Markdown renders Table 4.
func (s *Session) Table4Markdown(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: vs Test Data Compression methods (prop at L=%d, %s scale)\n\n", s.Params.Table4PropL, s.Scale)
	b.WriteString("| Circuit |")
	for _, m := range litdata.Table4Compression {
		fmt.Fprintf(&b, " %s TDV |", m.Name)
	}
	b.WriteString(" Classical TDV | Classical TSL | Prop TDV | Prop TSL |\n|---|")
	for range litdata.Table4Compression {
		b.WriteString("---|")
	}
	b.WriteString("---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s |", r.Circuit)
		for _, m := range litdata.Table4Compression {
			fmt.Fprintf(&b, " %d |", r.Compression[m.Name])
		}
		fmt.Fprintf(&b, " %d | %d | %d | %d |\n", r.ClassicalTDV, r.ClassicalTSL, r.PropTDV, r.PropTSL)
		if s.Scale == benchprofile.ScalePaper {
			p := litdata.Table4Prop[r.Circuit]
			fmt.Fprintf(&b, "| (paper) |")
			for range litdata.Table4Compression {
				b.WriteString(" |")
			}
			fmt.Fprintf(&b, " %d | %d | %d | %d |\n", p.ClassicalTDV, p.ClassicalTSL, p.PropTDV, p.PropTSL)
		}
	}
	return b.String()
}
