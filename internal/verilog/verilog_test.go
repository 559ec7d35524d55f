package verilog

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchprofile"
	"repro/internal/encoder"
	"repro/internal/lfsr"
	"repro/internal/stateskip"
)

func TestStateSkipLFSRStructure(t *testing.T) {
	l, err := lfsr.NewStandard(lfsr.Fibonacci, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := StateSkipLFSR(l, 3)
	for _, want := range []string{
		"module state_skip_lfsr_n8_k3",
		"input  wire mode",
		"next_normal[7]",
		"next_skip[7]",
		"q <= mode ? next_skip : next_normal;",
		"endmodule",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in:\n%s", want, src)
		}
	}
	// One assign per cell per network.
	if got := strings.Count(src, "assign next_normal["); got != 8 {
		t.Errorf("%d normal assigns, want 8", got)
	}
	if got := strings.Count(src, "assign next_skip["); got != 8 {
		t.Errorf("%d skip assigns, want 8", got)
	}
}

func TestStateSkipNetworksMatchMatrices(t *testing.T) {
	// Every q[i] index in the emitted XOR for next_skip[j] must match the
	// skip matrix row.
	l, _ := lfsr.NewStandard(lfsr.Galois, 12)
	k := 5
	src := StateSkipLFSR(l, k)
	skip := l.SkipMatrix(uint64(k))
	for i := 0; i < 12; i++ {
		line := lineWith(src, "assign next_skip["+strconv.Itoa(i)+"]")
		if line == "" {
			t.Fatalf("no assign for skip cell %d", i)
		}
		row := skip.Row(i)
		rhs := line[strings.Index(line, "=")+1:]
		rhs = strings.TrimSuffix(strings.TrimSpace(rhs), ";")
		present := make(map[string]bool)
		for _, term := range strings.Split(rhs, "^") {
			present[strings.TrimSpace(term)] = true
		}
		for j := 0; j < 12; j++ {
			has := present["q["+strconv.Itoa(j)+"]"]
			if has != (row.Bit(j) == 1) {
				t.Errorf("cell %d: q[%d] presence %v contradicts matrix", i, j, has)
			}
		}
	}
}

func lineWith(src, prefix string) string {
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, strings.TrimSpace(prefix)+" ") || strings.HasPrefix(trimmed, strings.TrimSpace(prefix)+"=") {
			return trimmed
		}
		if strings.HasPrefix(trimmed, strings.TrimSpace(prefix)) {
			return trimmed
		}
	}
	return ""
}

func TestPhaseShifterEmission(t *testing.T) {
	// Four one-cell chains: a 64-vector window is 64 shift clocks.
	cfg, err := encoder.StandardConfigVariant(16, 4, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := cfg.PS
	src := PhaseShifter(ps)
	if !strings.Contains(src, "module phase_shifter_n16_m4") {
		t.Error("module header missing")
	}
	if got := strings.Count(src, "assign scan_in["); got != 4 {
		t.Errorf("%d scan_in assigns, want 4", got)
	}
	for o := 0; o < 4; o++ {
		line := lineWith(src, "assign scan_in["+strconv.Itoa(o)+"]")
		for _, c := range ps.Taps(o) {
			if !strings.Contains(line, "q["+strconv.Itoa(c)+"]") {
				t.Errorf("output %d missing tap q[%d]: %s", o, c, line)
			}
		}
	}
}

func TestModeSelectEmission(t *testing.T) {
	p, err := benchprofile.ByName("s13207", benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	p.NumCubes = 40
	set := p.Generate()
	enc, _, err := encoder.EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, 16, set, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	red, err := stateskip.ReduceWithIndex(enc, nil, stateskip.DefaultOptions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	src := ModeSelect(red, "s13207")
	if !strings.Contains(src, "module mode_select_s13207") {
		t.Error("module header missing")
	}
	if !strings.Contains(src, "if (segment == 0)") {
		t.Error("first-segment shortcut missing")
	}
	// Case items = total useful segments beyond the first per seed.
	extra := 0
	for si := range red.Useful {
		if u := red.UsefulCount(si); u > 1 {
			extra += u - 1
		}
	}
	if got := strings.Count(src, ": mode = 1'b1;"); got != extra {
		t.Errorf("%d case items, want %d", got, extra)
	}
	if !strings.Contains(src, "default: mode = 1'b0;") {
		t.Error("default arm missing")
	}
}

func TestEmissionDeterministic(t *testing.T) {
	l, _ := lfsr.NewStandard(lfsr.Fibonacci, 24)
	if StateSkipLFSR(l, 10) != StateSkipLFSR(l, 10) {
		t.Error("StateSkipLFSR not deterministic")
	}
}

func TestDecompressorTopEmission(t *testing.T) {
	p, err := benchprofile.ByName("s9234", benchprofile.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	p.NumCubes = 30
	set := p.Generate()
	enc, _, err := encoder.EncodeAutoCtx(context.Background(), p.LFSRSize, p.Width, p.Chains, 8, set, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	red, err := stateskip.ReduceWithIndex(enc, nil, stateskip.DefaultOptions(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	src := DecompressorTop(red, "s9234")
	for _, want := range []string{
		"module decompressor_top_s9234",
		"state_skip_lfsr_n24_k6 u_lfsr",
		"phase_shifter_n24_m8 u_ps",
		"mode_select_s9234 u_ms",
		"useful_cnt",
		"endmodule",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q", want)
		}
	}
}
