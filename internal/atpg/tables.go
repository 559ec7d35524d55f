package atpg

import (
	"sync/atomic"

	"repro/internal/netlist"
)

// tablesBuilt counts NewTables calls across the process. The regression
// tests use the delta to assert RunAllCtx builds the shared tables exactly
// once per invocation regardless of the worker count.
var tablesBuilt atomic.Uint64

// Tables is the immutable per-netlist half of the PODEM engine: the
// levelized order, per-gate levels, fan-out lists, output/input maps and
// SCOAP-flavoured controllability weights. It is built once per netlist
// (NewTables) and shared read-only by every Generator, mirroring the
// Universe/Simulator split in internal/faultsim — a worker pool pays for
// these structures once, and per-worker Generators are allocation-light
// scratch state. The immutable-after-build contract is enforced by the
// frozentables analyzer (internal/lint) via the marker below.
//
// lint:frozen
type Tables struct {
	net        *netlist.Netlist
	order      []int // topological order (gate indices)
	orderPos   []int // gate index → position in order
	level      []int // longest path from an input; fan-outs are strictly deeper
	numLevels  int
	numOutputs int // len(net.Outputs) at build time, for staleness checks
	fanout     [][]int
	isOutput   []bool
	inputIdx   []int // gate index → position in net.Inputs, -1 otherwise
	// controllability: rough SCOAP-like effort to set a signal to 0/1,
	// used by backtrace to pick the easiest input.
	cc0, cc1 []int
	xfill    []uint8 // all-vX template, copied to reset value arrays fast
}

// NewTables builds the shared tables for a circuit.
func NewTables(n *netlist.Netlist) (*Tables, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	level, numLevels, err := n.Levels()
	if err != nil {
		return nil, err
	}
	tablesBuilt.Add(1)
	t := &Tables{
		net:        n,
		order:      order,
		orderPos:   make([]int, n.NumGates()),
		level:      level,
		numLevels:  numLevels,
		numOutputs: len(n.Outputs),
		fanout:     n.Fanouts(),
		isOutput:   make([]bool, n.NumGates()),
		inputIdx:   make([]int, n.NumGates()),
		xfill:      make([]uint8, n.NumGates()),
	}
	for pos, gi := range order {
		t.orderPos[gi] = pos
	}
	for _, o := range n.Outputs {
		t.isOutput[o] = true
	}
	for gi := range t.inputIdx {
		t.inputIdx[gi] = -1
	}
	for ii, gi := range n.Inputs {
		t.inputIdx[gi] = ii
	}
	for i := range t.xfill {
		t.xfill[i] = vX
	}
	t.computeControllability()
	return t, nil
}

// Netlist returns the circuit the tables were built over.
func (t *Tables) Netlist() *netlist.Netlist { return t.net }

// Valid reports whether the tables still describe n: the same netlist
// object with unchanged gate and output counts. Structural mutations
// (AddInput/AddGate/MarkOutput) after NewTables make tables stale.
func (t *Tables) Valid(n *netlist.Netlist) bool {
	return t.net == n && len(t.level) == n.NumGates() && t.numOutputs == len(n.Outputs)
}

// computeControllability assigns SCOAP-flavoured 0/1 controllability
// weights: inputs cost 1; a gate's cost follows from the cheapest way to
// produce each output value.
func (t *Tables) computeControllability() {
	n := t.net
	t.cc0 = make([]int, n.NumGates())
	t.cc1 = make([]int, n.NumGates())
	const inf = 1 << 28
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	for _, gi := range t.order {
		gate := &n.Gates[gi]
		switch gate.Type {
		case netlist.Input:
			t.cc0[gi], t.cc1[gi] = 1, 1
		case netlist.Buf:
			t.cc0[gi], t.cc1[gi] = t.cc0[gate.Fanin[0]]+1, t.cc1[gate.Fanin[0]]+1
		case netlist.Not:
			t.cc0[gi], t.cc1[gi] = t.cc1[gate.Fanin[0]]+1, t.cc0[gate.Fanin[0]]+1
		case netlist.And, netlist.Nand:
			all1, any0 := 1, inf
			for _, f := range gate.Fanin {
				all1 += t.cc1[f]
				any0 = min(any0, t.cc0[f])
			}
			c1, c0 := all1, any0+1
			if gate.Type == netlist.Nand {
				c0, c1 = c1, c0
			}
			t.cc0[gi], t.cc1[gi] = c0, c1
		case netlist.Or, netlist.Nor:
			all0, any1 := 1, inf
			for _, f := range gate.Fanin {
				all0 += t.cc0[f]
				any1 = min(any1, t.cc1[f])
			}
			c0, c1 := all0, any1+1
			if gate.Type == netlist.Nor {
				c0, c1 = c1, c0
			}
			t.cc0[gi], t.cc1[gi] = c0, c1
		case netlist.Xor, netlist.Xnor:
			// Roughly: parity costs the sum of the cheaper sides.
			sum := 1
			for _, f := range gate.Fanin {
				sum += min(t.cc0[f], t.cc1[f])
			}
			t.cc0[gi], t.cc1[gi] = sum, sum
		}
	}
}

// NewGenerator creates a per-worker generator over the shared tables.
func (t *Tables) NewGenerator() *Generator {
	ng := t.net.NumGates()
	return &Generator{
		t:              t,
		good:           make([]uint8, ng),
		bad:            make([]uint8, ng),
		levels:         make([][]int, t.numLevels),
		queued:         make([]uint32, ng),
		coneMark:       make([]bool, ng),
		inFrontier:     make([]bool, ng),
		inList:         make([]bool, ng),
		dirtyStamp:     make([]uint32, ng),
		seen:           make([]uint32, ng),
		BacktrackLimit: 1000,
	}
}
