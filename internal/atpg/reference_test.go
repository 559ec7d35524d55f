package atpg

// This file keeps the pre-event-driven PODEM engine — full 3-valued
// re-simulation of the whole circuit on every implication, D-frontier
// recomputed by scanning the fault cone — as the reference oracle. The
// differential and fuzz tests assert the event-driven Generator produces
// identical gate-value states after every implication and identical
// Generate results (cube, Status) for every fault.

import (
	"fmt"
	"sort"

	"repro/internal/cube"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// refGenerator is the full-resimulation reference engine. It shares the
// immutable Tables with the event-driven Generator, so levelization,
// SCOAP weights and tie-breaking orders are identical by construction.
type refGenerator struct {
	t *Tables

	good, bad []uint8 // 3-valued good/faulty circuit values

	dfBuf     []int
	dfStack   []int
	seen      []uint32
	seenEpoch uint32
	cone      []int // fault cone, sorted in topological order
	coneMark  []bool

	BacktrackLimit int
}

func newRefGenerator(t *Tables) *refGenerator {
	ng := t.net.NumGates()
	return &refGenerator{
		t:              t,
		good:           make([]uint8, ng),
		bad:            make([]uint8, ng),
		seen:           make([]uint32, ng),
		coneMark:       make([]bool, ng),
		BacktrackLimit: 1000,
	}
}

// Generate runs reference PODEM for one fault: identical decision logic to
// Generator.Generate, but every imply is a full-circuit re-simulation.
func (g *refGenerator) Generate(f faultsim.Fault) (cube.Cube, Status) {
	n := g.t.net
	for i := range g.good {
		g.good[i] = vX
		g.bad[i] = vX
	}
	type refDecision struct {
		input   int // index into n.Inputs
		value   uint8
		flipped bool
	}
	var stack []refDecision
	backtracks := 0

	g.computeCone(f)
	g.simulate(f)

	for {
		if g.detected() {
			c := cube.New(len(n.Inputs))
			for ii, gi := range n.Inputs {
				if g.good[gi] != vX {
					c.Set(ii, g.good[gi])
				}
			}
			return c, StatusDetected
		}
		objGate, objVal, feasible := g.objective(f)
		var piIdx int
		var piVal uint8
		backtraceOK := false
		if feasible {
			piIdx, piVal, backtraceOK = g.backtrace(objGate, objVal)
		}
		if !feasible || !backtraceOK {
			// Conflict or no X-path: chronological backtracking.
			for {
				if len(stack) == 0 {
					return cube.Cube{}, StatusUntestable
				}
				top := &stack[len(stack)-1]
				if !top.flipped {
					top.flipped = true
					top.value ^= 1
					g.good[n.Inputs[top.input]] = top.value
					backtracks++
					if backtracks > g.BacktrackLimit {
						return cube.Cube{}, StatusAborted
					}
					break
				}
				g.good[n.Inputs[top.input]] = vX
				stack = stack[:len(stack)-1]
			}
			g.simulate(f)
			continue
		}
		gi := n.Inputs[piIdx]
		stack = append(stack, refDecision{input: piIdx, value: piVal})
		g.good[gi] = piVal
		g.simulate(f)
	}
}

// simulate performs full 3-valued good+faulty simulation with the fault
// injected. Primary-input good values are the current assignments; all
// other values are derived.
func (g *refGenerator) simulate(f faultsim.Fault) {
	n := g.t.net
	var gbuf, bbuf []uint8
	for _, gi := range g.t.order {
		gate := &n.Gates[gi]
		if gate.Type != netlist.Input {
			gbuf, bbuf = gbuf[:0], bbuf[:0]
			for pin, fi := range gate.Fanin {
				gv, bv := g.good[fi], g.bad[fi]
				if f.Gate == gi && f.Pin == pin {
					bv = f.Stuck
				}
				gbuf = append(gbuf, gv)
				bbuf = append(bbuf, bv)
			}
			g.good[gi] = eval3(gate.Type, gbuf)
			g.bad[gi] = eval3(gate.Type, bbuf)
		} else if f.Gate != gi || f.Pin != -1 {
			g.bad[gi] = g.good[gi]
		}
		if f.Gate == gi && f.Pin == -1 {
			g.bad[gi] = f.Stuck
		}
	}
}

// eval3 is branchy 3-valued gate evaluation over a fan-in value list —
// the oracle gateTable is checked against (TestGateTableMatchesEval3).
func eval3(t netlist.GateType, in []uint8) uint8 {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		if in[0] == vX {
			return vX
		}
		return in[0] ^ 1
	case netlist.And, netlist.Nand:
		v := v1
		for _, b := range in {
			if b == v0 {
				v = v0
				break
			}
			if b == vX {
				v = vX
			}
		}
		if v != vX && t == netlist.Nand {
			v ^= 1
		}
		return v
	case netlist.Or, netlist.Nor:
		v := v0
		for _, b := range in {
			if b == v1 {
				v = v1
				break
			}
			if b == vX {
				v = vX
			}
		}
		if v != vX && t == netlist.Nor {
			v ^= 1
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := v0
		for _, b := range in {
			if b == vX {
				return vX
			}
			v ^= b
		}
		if t == netlist.Xnor {
			v ^= 1
		}
		return v
	default:
		panic(fmt.Sprintf("atpg: eval3 on %v", t))
	}
}

// detected reports whether some primary output shows a definite
// good/faulty difference.
func (g *refGenerator) detected() bool {
	for _, o := range g.t.net.Outputs {
		gv, bv := g.good[o], g.bad[o]
		if gv != vX && bv != vX && gv != bv {
			return true
		}
	}
	return false
}

// objective returns the next signal/value to justify, exactly like the
// event-driven engine but over the scanned D-frontier.
func (g *refGenerator) objective(f faultsim.Fault) (gate int, val uint8, feasible bool) {
	site := f.Gate
	if f.Pin >= 0 {
		site = g.t.net.Gates[f.Gate].Fanin[f.Pin]
	}
	switch g.good[site] {
	case vX:
		return site, f.Stuck ^ 1, true
	case f.Stuck:
		return 0, 0, false // activation impossible under current assignment
	}
	// Mirrors the event engine exactly, including the completeness corners:
	// prefer the deepest gate that still has a good-X fan-in, and fall
	// back to chasing the faulty-side unknowns when none has one.
	best, bestAny := -1, -1
	for _, gi := range g.dFrontier(f) {
		if !g.xPathToOutput(gi) {
			continue
		}
		if bestAny < 0 || g.t.level[gi] > g.t.level[bestAny] {
			bestAny = gi
		}
		hasX := false
		for _, fi := range g.t.net.Gates[gi].Fanin {
			if g.good[fi] == vX {
				hasX = true
				break
			}
		}
		if !hasX {
			continue
		}
		if best < 0 || g.t.level[gi] > g.t.level[best] {
			best = gi
		}
	}
	if bestAny < 0 {
		return 0, 0, false
	}
	if best < 0 {
		return g.badXObjective(bestAny)
	}
	gate2 := &g.t.net.Gates[best]
	nc, ok := nonControlling(gate2.Type)
	if !ok {
		nc = v0
	}
	for _, fi := range gate2.Fanin {
		if g.good[fi] == vX {
			return fi, nc, true
		}
	}
	return 0, 0, false
}

// badXObjective is the reference copy of the event engine's faulty-side
// unknown chase (see Generator.badXObjective).
func (g *refGenerator) badXObjective(gi int) (gate int, val uint8, feasible bool) {
	n := g.t.net
	cur := gi
	for steps := 0; steps < n.NumGates()+1; steps++ {
		if g.good[cur] == vX {
			return cur, v0, true
		}
		next := -1
		for _, fi := range n.Gates[cur].Fanin {
			if g.bad[fi] == vX {
				next = fi
				break
			}
		}
		if next < 0 {
			return 0, 0, false
		}
		cur = next
	}
	return 0, 0, false
}

// computeCone collects the gates reachable from the fault site — the only
// gates a good/faulty difference can ever appear on — sorted in
// topological order so the D-frontier scan visits them exactly as a scan
// of the full order would.
func (g *refGenerator) computeCone(f faultsim.Fault) {
	for _, gi := range g.cone {
		g.coneMark[gi] = false
	}
	g.cone = g.cone[:0]
	stack := g.dfStack[:0]
	g.coneMark[f.Gate] = true
	g.cone = append(g.cone, f.Gate)
	stack = append(stack, f.Gate)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range g.t.adj.Fanouts(cur) {
			if !g.coneMark[fo] {
				g.coneMark[fo] = true
				g.cone = append(g.cone, int(fo))
				stack = append(stack, int(fo))
			}
		}
	}
	g.dfStack = stack[:0]
	sort.Slice(g.cone, func(i, j int) bool { return g.t.orderPos[g.cone[i]] < g.t.orderPos[g.cone[j]] })
}

// dFrontier lists gates whose output is still X (good or faulty) but which
// have a definite good/faulty difference on some input, by scanning the
// fault cone. The returned slice is scratch, valid until the next call.
func (g *refGenerator) dFrontier(f faultsim.Fault) []int {
	out := g.dfBuf[:0]
	for _, gi := range g.cone {
		gate := &g.t.net.Gates[gi]
		if gate.Type == netlist.Input {
			continue
		}
		if g.good[gi] != vX && g.bad[gi] != vX {
			continue
		}
		for pin, fi := range gate.Fanin {
			gv, bv := g.good[fi], g.bad[fi]
			if f.Gate == gi && f.Pin == pin {
				bv = f.Stuck
			}
			if gv != vX && bv != vX && gv != bv {
				out = append(out, gi)
				break
			}
		}
	}
	g.dfBuf = out
	return out
}

// xPathToOutput reports whether a path of X-valued gates leads from gate
// gi to some primary output.
func (g *refGenerator) xPathToOutput(gi int) bool {
	if g.t.isOutput[gi] {
		return true
	}
	g.seenEpoch++
	if g.seenEpoch == 0 {
		clear(g.seen)
		g.seenEpoch = 1
	}
	stack := g.dfStack[:0]
	stack = append(stack, gi)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range g.t.adj.Fanouts(cur) {
			if g.seen[fo] == g.seenEpoch {
				continue
			}
			g.seen[fo] = g.seenEpoch
			if g.good[fo] != vX && g.bad[fo] != vX {
				continue
			}
			if g.t.isOutput[fo] {
				g.dfStack = stack
				return true
			}
			stack = append(stack, int(fo))
		}
	}
	g.dfStack = stack
	return false
}

// backtrace walks an objective (gate, value) backwards to an unassigned
// primary input — identical to the event-driven engine's backtrace.
func (g *refGenerator) backtrace(gate int, val uint8) (piIdx int, piVal uint8, ok bool) {
	n := g.t.net
	cur, want := gate, val
	for steps := 0; steps < n.NumGates()+1; steps++ {
		gt := &n.Gates[cur]
		if gt.Type == netlist.Input {
			if g.good[cur] != vX {
				return 0, 0, false
			}
			if ii := g.t.inputIdx[cur]; ii >= 0 {
				return ii, want, true
			}
			return 0, 0, false
		}
		nextWant := want
		switch gt.Type {
		case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
			nextWant = want ^ 1
		}
		bestFi, bestCost := -1, 1<<30
		for _, fi := range gt.Fanin {
			if g.good[fi] != vX {
				continue
			}
			cost := g.t.cc0[fi]
			if nextWant == v1 {
				cost = g.t.cc1[fi]
			}
			if cost < bestCost {
				bestCost = cost
				bestFi = fi
			}
		}
		if bestFi < 0 {
			return 0, 0, false
		}
		cur, want = bestFi, nextWant
	}
	return 0, 0, false
}

// resimulateFrom computes the reference state for a PI assignment taken
// from another engine's good array: inputs copied, everything else derived
// by a full 3-valued simulation with the fault injected. The differential
// tests call it from the event engine's imply hook.
func (g *refGenerator) resimulateFrom(piGood []uint8, f faultsim.Fault) {
	n := g.t.net
	for i := range g.good {
		g.good[i] = vX
		g.bad[i] = vX
	}
	for _, gi := range n.Inputs {
		g.good[gi] = piGood[gi]
	}
	g.simulate(f)
}
