package netlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildFullAdder(t testing.TB) *Netlist {
	t.Helper()
	n := New()
	for _, in := range []string{"a", "b", "cin"} {
		if _, err := n.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	mustGate := func(name string, typ GateType, fanin ...string) {
		if _, err := n.AddGate(name, typ, fanin...); err != nil {
			t.Fatal(err)
		}
	}
	mustGate("axb", Xor, "a", "b")
	mustGate("sum", Xor, "axb", "cin")
	mustGate("ab", And, "a", "b")
	mustGate("c_axb", And, "axb", "cin")
	mustGate("cout", Or, "ab", "c_axb")
	if err := n.MarkOutput("sum"); err != nil {
		t.Fatal(err)
	}
	if err := n.MarkOutput("cout"); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFullAdderTruthTable(t *testing.T) {
	n := buildFullAdder(t)
	for a := uint8(0); a <= 1; a++ {
		for b := uint8(0); b <= 1; b++ {
			for c := uint8(0); c <= 1; c++ {
				out, err := n.Eval([]uint8{a, b, c})
				if err != nil {
					t.Fatal(err)
				}
				total := a + b + c
				if out[0] != total&1 || out[1] != total>>1 {
					t.Errorf("%d+%d+%d: sum=%d cout=%d", a, b, c, out[0], out[1])
				}
			}
		}
	}
}

// TestGateEvalWordMatchesScalar checks the word-parallel gate kernel
// EvalWords against the scalar Eval, pattern by pattern, for all eight
// gate types (Buf and Not on one fan-in, the rest on three) at lane widths
// 1 and 3.
func TestGateEvalWordMatchesScalar(t *testing.T) {
	types := []GateType{Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, w := range []int{1, 3} {
			for _, typ := range types {
				pins := 3
				if typ == Buf || typ == Not {
					pins = 1
				}
				in := make([][]uint64, pins)
				for p := range in {
					in[p] = make([]uint64, w)
					for k := range in[p] {
						in[p][k] = rng.Uint64()
					}
				}
				dst := make([]uint64, w)
				typ.EvalWords(dst, in)
				bits := make([]uint8, pins)
				for lane := 0; lane < 64*w; lane++ {
					k, bit := lane/64, uint(lane%64)
					for p := range in {
						bits[p] = uint8(in[p][k] >> bit & 1)
					}
					if got, want := uint8(dst[k]>>bit&1), typ.Eval(bits); got != want {
						t.Logf("%v w=%d lane %d: EvalWords %d, Eval %d", typ, w, lane, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateAndUnknownSignals(t *testing.T) {
	n := New()
	n.AddInput("a")
	if _, err := n.AddInput("a"); err == nil {
		t.Error("duplicate input accepted")
	}
	if _, err := n.AddGate("g", And, "a", "nosuch"); err == nil {
		t.Error("unknown fan-in accepted")
	}
	if _, err := n.AddGate("h", Not, "a", "a"); err == nil {
		t.Error("NOT with two fan-ins accepted")
	}
	if err := n.MarkOutput("nosuch"); err == nil {
		t.Error("unknown output accepted")
	}
}

func TestBenchRoundTrip(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
u = NAND(a, b)
v = NOT(u)
y = OR(v, a)
`
	n, err := ReadBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadBench(&buf)
	if err != nil {
		t.Fatalf("re-reading own output: %v\n%s", err, buf.String())
	}
	for a := uint8(0); a <= 1; a++ {
		for b := uint8(0); b <= 1; b++ {
			o1, _ := n.Eval([]uint8{a, b})
			o2, _ := n2.Eval([]uint8{a, b})
			if o1[0] != o2[0] {
				t.Errorf("round trip differs at a=%d b=%d", a, b)
			}
		}
	}
}

func TestBenchDFFScanReplacement(t *testing.T) {
	src := `
INPUT(x)
OUTPUT(z)
q = DFF(d)
d = AND(x, q)
z = NOT(q)
`
	n, err := ReadBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// x and q are inputs (q is the pseudo primary input), z and d outputs.
	if len(n.Inputs) != 2 {
		t.Errorf("inputs = %d, want 2", len(n.Inputs))
	}
	if len(n.Outputs) != 2 {
		t.Errorf("outputs = %d, want 2", len(n.Outputs))
	}
	out, err := n.Eval([]uint8{1, 1}) // x=1, q=1
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 { // z = NOT(q) = 0
		t.Errorf("z = %d", out[0])
	}
	if out[1] != 1 { // d = AND(x,q) = 1
		t.Errorf("d = %d", out[1])
	}
}

func TestBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT()",
		"g = FROB(a)",
		"g = AND(a",
		"whatever",
	}
	for _, src := range cases {
		if _, err := ReadBench(strings.NewReader("INPUT(a)\n" + src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestRandomCircuitWellFormed(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		n, err := Random(RandomConfig{Inputs: 20, Outputs: 6, Gates: 80, MaxFan: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if st.Inputs != 20 || st.Outputs != 6 || st.Gates != 80 {
			t.Errorf("seed %d: stats %+v", seed, st)
		}
		if st.Levels < 2 {
			t.Errorf("seed %d: circuit too shallow (%d levels)", seed, st.Levels)
		}
		// Deterministic in the seed.
		n2, _ := Random(RandomConfig{Inputs: 20, Outputs: 6, Gates: 80, MaxFan: 4, Seed: seed})
		in := make([]uint8, 20)
		for i := range in {
			in[i] = uint8(i % 2)
		}
		o1, _ := n.Eval(in)
		o2, _ := n2.Eval(in)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("seed %d: generation not deterministic", seed)
			}
		}
	}
}

func TestLevelizeDetectsLoop(t *testing.T) {
	n := New()
	n.AddInput("a")
	// Build a loop manually (bypassing AddGate's forward-reference guard).
	n.Gates = append(n.Gates, Gate{Name: "p", Type: And, Fanin: []int{0, 2}})
	n.byName["p"] = 1
	n.Gates = append(n.Gates, Gate{Name: "q", Type: And, Fanin: []int{1}})
	n.byName["q"] = 2
	if _, err := n.Levelize(); err == nil {
		t.Error("combinational loop not detected")
	}
}

// TestAdjacencyMatchesGates checks the flat wiring against the gate array:
// fan-ins in pin order, fan-outs in ascending gate order with one entry
// per reading pin (a gate reading a signal twice lists it twice), and a
// rebuilt adjacency after a structural mutation.
func TestAdjacencyMatchesGates(t *testing.T) {
	n, err := Random(RandomConfig{Inputs: 12, Outputs: 4, Gates: 60, MaxFan: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGate("twice", And, "pi0", "pi0"); err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		adj := n.Adjacency()
		want := make([][]int32, n.NumGates())
		for gi, g := range n.Gates {
			fin := adj.Fanins(gi)
			if len(fin) != len(g.Fanin) {
				t.Fatalf("gate %d: %d fan-ins, want %d", gi, len(fin), len(g.Fanin))
			}
			for pin, f := range g.Fanin {
				if int(fin[pin]) != f {
					t.Fatalf("gate %d pin %d: fan-in %d, want %d", gi, pin, fin[pin], f)
				}
				want[f] = append(want[f], int32(gi))
			}
		}
		for gi := range n.Gates {
			got := adj.Fanouts(gi)
			if len(got) != len(want[gi]) {
				t.Fatalf("gate %d: fan-outs %v, want %v", gi, got, want[gi])
			}
			for i := range got {
				if got[i] != want[gi][i] {
					t.Fatalf("gate %d: fan-outs %v, want %v", gi, got, want[gi])
				}
			}
		}
	}
	check()
	if got := n.Adjacency().Fanouts(0); len(got) < 2 || got[len(got)-1] != got[len(got)-2] {
		t.Fatalf("pi0 fan-outs %v: the two-pin reader should appear twice", got)
	}
	if _, err := n.AddGate("late", Or, "twice", "pi1"); err != nil {
		t.Fatal(err)
	}
	check()
}
