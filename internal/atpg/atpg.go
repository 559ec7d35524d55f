// Package atpg is a PODEM-style deterministic test pattern generator for
// single stuck-at faults over internal/netlist circuits — the final piece
// of the Atalanta substitute (ARCHITECTURE.md §②). It produces test *cubes*
// (patterns with don't-cares), which is exactly what the paper's encoding
// flow consumes: the fewer bits PODEM needs to specify, the more cubes a
// seed window can absorb.
//
// The implementation is textbook PODEM (Goel 1981): a fault is activated
// by justifying the complement of the stuck value at the fault site and
// propagated by repeatedly advancing the D-frontier, with all value
// decisions made at primary inputs only, found by backtracing objectives
// through easiest-to-control paths, and undone on conflict with
// chronological backtracking under a backtrack limit.
//
// The engine is split in two (mirroring faultsim's Universe/Simulator):
// Tables holds the immutable per-netlist structures, built once and shared;
// Generator is cheap per-worker scratch. Implication is event-driven: a PI
// assignment propagates 3-valued good/faulty values only through the
// changed cone via a levelized event queue, every change is recorded on a
// trail so backtracking undoes exactly the changed gates, and the
// D-frontier is maintained incrementally from the same change events. The
// old full-resimulation engine is kept in reference_test.go as the oracle
// the differential and fuzz tests compare states and results against.
package atpg

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cube"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/prng"
)

// Three-valued logic constants. D ("good 1 / faulty 0") and D' are
// represented as the pair of good/faulty values, not separate constants.
const (
	v0 uint8 = 0
	v1 uint8 = 1
	vX uint8 = 2
)

// trailEntry records one gate's pre-change values so backtracking can
// restore them in O(changed cone) instead of re-simulating the circuit.
type trailEntry struct {
	gate      int32
	good, bad uint8
}

// decision is one PODEM decision-stack frame. mark is the trail length
// before the decision's implication, i.e. the undo point. forced frames
// (multiple backtrace only) hold values proven necessary for activation:
// backtracking pops them without trying the opposite branch.
type decision struct {
	input   int // index into net.Inputs
	value   uint8
	flipped bool
	forced  bool
	mark    int
}

// Generator holds the per-worker scratch of the PODEM engine. Build one
// per goroutine from shared Tables (Tables.NewGenerator); the convenience
// constructor New builds private tables for one-off use.
type Generator struct {
	t *Tables

	good, bad []uint8 // 3-valued good/faulty circuit values

	fault faultsim.Fault // fault of the Generate in progress

	// Levelized event queue of the implication wave in progress: per-level
	// buckets of gates scheduled for re-evaluation, stamped by wave so a
	// gate is queued at most once per wave.
	levels [][]int
	queued []uint32
	minLv  int

	// trail records every value change since begin; decisions store marks
	// into it.
	trail []trailEntry

	// Fault output cone (unordered) — the only gates where good and faulty
	// values can differ, hence the only candidates for the D-frontier and
	// the only gates whose faulty value needs evaluating at all.
	cone     []int
	coneMark []bool

	// detCount tracks how many primary outputs currently show a definite
	// good/faulty difference, maintained incrementally by every value
	// change and undo so detected() is O(1) instead of a full output scan
	// per PODEM iteration.
	detCount int

	// Incremental D-frontier: inFrontier is the membership truth,
	// frontier/inList an insert-only list with lazy deletion (compacted by
	// dFrontier), dirty the cone gates whose membership may have changed in
	// the current wave.
	inFrontier []bool
	inList     []bool
	frontier   []int
	dirty      []int
	dirtyStamp []uint32

	wave uint32 // shared epoch for queued and dirtyStamp

	// Per-objective scratch: the sorted frontier snapshot and the
	// epoch-stamped visit marks of the X-path DFS.
	dfBuf     []int
	dfStack   []int
	seen      []uint32
	seenEpoch uint32

	gbuf, bbuf []uint8
	decisions  []decision

	// mb is the multiple-backtrace scratch (vote counters, forced-chain
	// marks), allocated on the first BacktraceMulti decision.
	mb *multiScratch

	// Ctx, when non-nil, makes Generate cooperatively cancellable: the
	// context is polled once every cancelCheckStride decision-loop
	// iterations (amortized — the overhead is unmeasurable, and an
	// uncancelled run is bit-identical to one without a context). A
	// cancelled Generate abandons its fault with StatusCanceled.
	Ctx context.Context

	// ctxTick counts decision-loop iterations since the last context poll.
	ctxTick int

	// implyHook, when non-nil, runs after every completed implication
	// (begin and each assign). The differential tests install it to compare
	// the incremental good/bad state against a full re-simulation.
	implyHook func()

	// Strategy selects the decision heuristic: the classic single-objective
	// SCOAP backtrace (the zero value) or the FAN/SOCRATES-style multiple
	// backtrace with early conflict detection (see backtrace.go).
	Strategy Backtrace

	// Backtracks counts the chronological backtracks of the most recent
	// Generate call — the decision-quality metric the backtrace strategies
	// compete on.
	Backtracks int

	// BacktrackLimit bounds the backtracks of one Generate call; past it
	// the fault is abandoned as StatusAborted.
	BacktrackLimit int
}

// New prepares a generator with private tables for a circuit. Callers that
// run many generators over one netlist should build Tables once and use
// Tables.NewGenerator instead.
func New(n *netlist.Netlist) (*Generator, error) {
	t, err := NewTables(n)
	if err != nil {
		return nil, err
	}
	return t.NewGenerator(), nil
}

// Status classifies the outcome of one PODEM run.
type Status int

const (
	// StatusDetected: a test cube was found.
	StatusDetected Status = iota
	// StatusUntestable: the full decision space was exhausted — the fault
	// is provably redundant.
	StatusUntestable
	// StatusAborted: the backtrack limit was hit before a proof either way.
	StatusAborted
	// StatusCanceled: the Generator's Ctx was cancelled mid-run; the fault
	// was abandoned without a verdict. Never produced without a context.
	StatusCanceled
)

// String names the status for logs and error messages.
func (s Status) String() string {
	switch s {
	case StatusDetected:
		return "detected"
	case StatusUntestable:
		return "untestable"
	case StatusAborted:
		return "aborted"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Generate runs PODEM for one fault and returns the test cube over the
// circuit's inputs (X = unassigned) together with the run status.
func (g *Generator) Generate(f faultsim.Fault) (cube.Cube, Status) {
	n := g.t.net
	g.begin(f)
	stack := g.decisions[:0]
	g.Backtracks = 0

	for {
		if g.canceled() {
			g.decisions = stack
			return cube.Cube{}, StatusCanceled
		}
		if g.detected() {
			c := cube.New(len(n.Inputs))
			for ii, gi := range n.Inputs {
				if g.good[gi] != vX {
					c.Set(ii, g.good[gi])
				}
			}
			g.decisions = stack
			return c, StatusDetected
		}
		var piIdx int
		var piVal uint8
		var decided, forced bool
		if g.Strategy == BacktraceMulti {
			piIdx, piVal, decided, forced = g.multiDecision()
		} else {
			piIdx, piVal, decided = g.classicDecision()
		}
		if !decided {
			// Conflict or no X-path: chronological backtracking. The trail
			// restores exactly the gates each abandoned decision changed.
			// Forced frames pop without a flip: their opposite branch is
			// provably futile.
			for {
				if len(stack) == 0 {
					g.decisions = stack
					return cube.Cube{}, StatusUntestable
				}
				top := &stack[len(stack)-1]
				if !top.flipped && !top.forced {
					top.flipped = true
					top.value ^= 1
					g.undoTo(top.mark)
					g.assign(top.input, top.value)
					g.Backtracks++
					if g.Backtracks > g.BacktrackLimit {
						g.decisions = stack
						return cube.Cube{}, StatusAborted
					}
					break
				}
				g.undoTo(top.mark)
				stack = stack[:len(stack)-1]
			}
			continue
		}
		stack = append(stack, decision{input: piIdx, value: piVal, forced: forced, mark: len(g.trail)})
		g.assign(piIdx, piVal)
	}
}

// cancelCheckStride is how many decision-loop iterations pass between
// context polls. Each iteration does at least one objective/backtrace walk
// (hundreds of ns), so polling every 256 iterations keeps cancellation
// latency in the tens of microseconds while the amortized poll cost stays
// below measurement noise.
const cancelCheckStride = 256

// canceled polls the generator's context, amortized over
// cancelCheckStride decision-loop iterations.
func (g *Generator) canceled() bool {
	if g.Ctx == nil {
		return false
	}
	g.ctxTick++
	if g.ctxTick < cancelCheckStride {
		return false
	}
	g.ctxTick = 0
	return g.Ctx.Err() != nil
}

// begin resets the engine for one fault: all values X, the fault injected,
// and its constant effects propagated through the fault cone.
func (g *Generator) begin(f faultsim.Fault) {
	g.fault = f
	copy(g.good, g.t.xfill)
	copy(g.bad, g.t.xfill)
	for _, gi := range g.frontier {
		g.inFrontier[gi] = false
		g.inList[gi] = false
	}
	g.frontier = g.frontier[:0]
	g.dirty = g.dirty[:0]
	g.trail = g.trail[:0]
	g.detCount = 0 // all values X: no output can show a difference
	g.computeCone(f)
	g.newWave()
	if f.Pin == -1 {
		// The site's faulty value is the stuck constant from the start —
		// part of the base state, below every undo mark.
		g.bad[f.Gate] = f.Stuck
		g.markDirty(f.Gate)
		for _, fo := range g.t.fanout[f.Gate] {
			g.markDirty(fo)
			g.schedule(fo)
		}
	} else {
		// An input-pin fault only changes how f.Gate evaluates.
		g.markDirty(f.Gate)
		g.schedule(f.Gate)
	}
	g.run()
}

// newWave opens a fresh event epoch for the queue and dirty stamps.
func (g *Generator) newWave() {
	g.wave++
	if g.wave == 0 { // uint32 wrap: every stale stamp would look current
		clear(g.queued)
		clear(g.dirtyStamp)
		g.wave = 1
	}
	g.minLv = len(g.levels)
}

// schedule queues a gate for re-evaluation in the current wave. Fan-outs
// are strictly deeper than their drivers, so buckets at or below the
// cursor are never appended to while run drains the queue.
func (g *Generator) schedule(gi int) {
	if g.queued[gi] == g.wave {
		return
	}
	g.queued[gi] = g.wave
	lv := g.t.level[gi]
	g.levels[lv] = append(g.levels[lv], gi)
	if lv < g.minLv {
		g.minLv = lv
	}
}

// computeCone collects the fault site's output cone — unordered; only
// membership matters here, for confining faulty-value evaluation and
// frontier maintenance.
func (g *Generator) computeCone(f faultsim.Fault) {
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
		for _, fo := range g.t.fanout[cur] {
			if !g.coneMark[fo] {
				g.coneMark[fo] = true
				g.cone = append(g.cone, fo)
				stack = append(stack, fo)
			}
		}
	}
	g.dfStack = stack[:0]
}

// markDirty queues a gate for a D-frontier membership re-check. Gates
// outside the fault cone can never hold a good/faulty difference on a
// fan-in, so they are never candidates and are skipped outright.
func (g *Generator) markDirty(gi int) {
	if !g.coneMark[gi] || g.dirtyStamp[gi] == g.wave {
		return
	}
	g.dirtyStamp[gi] = g.wave
	g.dirty = append(g.dirty, gi)
}

// setValue applies one gate's new 3-valued pair, records the old pair on
// the trail, and wakes the gate's fan-out cone (events + frontier checks).
func (g *Generator) setValue(gi int, ng, nb uint8) {
	g.trail = append(g.trail, trailEntry{gate: int32(gi), good: g.good[gi], bad: g.bad[gi]})
	g.detDelta(gi, g.good[gi], g.bad[gi], ng, nb)
	g.good[gi] = ng
	g.bad[gi] = nb
	g.markDirty(gi)
	for _, fo := range g.t.fanout[gi] {
		g.markDirty(fo)
		g.schedule(fo)
	}
}

// detDelta adjusts the detecting-output count when gate gi's value pair
// moves from (og, ob) to (ng, nb).
func (g *Generator) detDelta(gi int, og, ob, ng, nb uint8) {
	if !g.t.isOutput[gi] {
		return
	}
	if og != vX && ob != vX && og != ob {
		g.detCount--
	}
	if ng != vX && nb != vX && ng != nb {
		g.detCount++
	}
}

// assign sets one primary input and propagates the consequences through
// the changed cone.
func (g *Generator) assign(piIdx int, val uint8) {
	gi := g.t.net.Inputs[piIdx]
	g.newWave()
	nb := val
	if g.fault.Gate == gi && g.fault.Pin == -1 {
		nb = g.bad[gi] // the fault site's faulty value stays stuck
	}
	g.setValue(gi, val, nb)
	g.run()
}

// run drains the event queue level by level. Each gate is re-evaluated at
// most once per wave, with final fan-in values (all drivers are at
// strictly lower levels), so the resulting state is exactly the full
// 3-valued re-simulation of the circuit.
func (g *Generator) run() {
	for lv := g.minLv; lv < len(g.levels); lv++ {
		bucket := g.levels[lv]
		if len(bucket) == 0 {
			continue
		}
		for _, gi := range bucket {
			g.evalGate(gi)
		}
		g.levels[lv] = bucket[:0]
	}
	g.flushFrontier()
	if g.implyHook != nil {
		g.implyHook()
	}
}

// evalGate recomputes one gate's good/faulty pair with the fault injected
// and emits a change event if the pair moved. Outside the fault cone the
// faulty circuit is indistinguishable from the good one (every fan-in has
// bad == good), so only one evaluation is needed there.
func (g *Generator) evalGate(gi int) {
	gate := &g.t.net.Gates[gi]
	f := g.fault
	if !g.coneMark[gi] {
		g.gbuf = g.gbuf[:0]
		for _, fi := range gate.Fanin {
			g.gbuf = append(g.gbuf, g.good[fi])
		}
		ng := eval3(gate.Type, g.gbuf)
		if ng == g.good[gi] {
			return // reconverged: nothing propagates
		}
		g.setValue(gi, ng, ng)
		return
	}
	g.gbuf, g.bbuf = g.gbuf[:0], g.bbuf[:0]
	for pin, fi := range gate.Fanin {
		gv, bv := g.good[fi], g.bad[fi]
		if f.Gate == gi && f.Pin == pin {
			bv = f.Stuck
		}
		g.gbuf = append(g.gbuf, gv)
		g.bbuf = append(g.bbuf, bv)
	}
	ng := eval3(gate.Type, g.gbuf)
	nb := eval3(gate.Type, g.bbuf)
	if f.Gate == gi && f.Pin == -1 {
		nb = f.Stuck
	}
	if ng == g.good[gi] && nb == g.bad[gi] {
		return // reconverged: nothing propagates
	}
	g.setValue(gi, ng, nb)
}

// undoTo rewinds the trail to a decision mark, restoring exactly the gates
// changed since — O(changed cone), no re-simulation — and re-checks the
// frontier membership of everything touched.
func (g *Generator) undoTo(mark int) {
	g.newWave()
	for len(g.trail) > mark {
		e := g.trail[len(g.trail)-1]
		g.trail = g.trail[:len(g.trail)-1]
		gi := int(e.gate)
		g.detDelta(gi, g.good[gi], g.bad[gi], e.good, e.bad)
		g.good[gi] = e.good
		g.bad[gi] = e.bad
		g.markDirty(gi)
		for _, fo := range g.t.fanout[gi] {
			g.markDirty(fo)
		}
	}
	g.flushFrontier()
}

// flushFrontier re-evaluates D-frontier membership for every gate whose
// own or fan-in values changed this wave. Insertions append to the
// frontier list; deletions just clear the truth bit and are compacted
// lazily by dFrontier.
func (g *Generator) flushFrontier() {
	for _, d := range g.dirty {
		if g.isFrontier(d) {
			if !g.inFrontier[d] {
				g.inFrontier[d] = true
				if !g.inList[d] {
					g.inList[d] = true
					g.frontier = append(g.frontier, d)
				}
			}
		} else {
			g.inFrontier[d] = false
		}
	}
	g.dirty = g.dirty[:0]
}

// isFrontier reports whether a gate is on the D-frontier: output still X
// (good or faulty) with a definite good/faulty difference on some input.
func (g *Generator) isFrontier(gi int) bool {
	gate := &g.t.net.Gates[gi]
	if gate.Type == netlist.Input {
		return false
	}
	if g.good[gi] != vX && g.bad[gi] != vX {
		return false
	}
	for pin, fi := range gate.Fanin {
		gv, bv := g.good[fi], g.bad[fi]
		if g.fault.Gate == gi && g.fault.Pin == pin {
			bv = g.fault.Stuck
		}
		if gv != vX && bv != vX && gv != bv {
			return true
		}
	}
	return false
}

// dFrontier returns the current D-frontier sorted in topological order —
// the same order the old full-scan produced, so objective's tie-breaks are
// unchanged. The returned slice is scratch, valid until the next call.
func (g *Generator) dFrontier() []int {
	live := g.frontier[:0]
	for _, gi := range g.frontier {
		if g.inFrontier[gi] {
			live = append(live, gi)
		} else {
			g.inList[gi] = false
		}
	}
	g.frontier = live
	out := append(g.dfBuf[:0], live...)
	// Insertion sort by topological position: the frontier is small and
	// nearly sorted, and this keeps objective allocation-free.
	pos := g.t.orderPos
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && pos[out[j]] < pos[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	g.dfBuf = out
	return out
}

// eval3 is 3-valued gate evaluation.
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
// good/faulty difference, from the incrementally maintained count.
func (g *Generator) detected() bool {
	return g.detCount > 0
}

// objective returns the next signal/value to justify: fault activation
// first, then D-frontier advancement. feasible=false signals a dead end.
func (g *Generator) objective() (gate int, val uint8, feasible bool) {
	f := g.fault
	// Activation: the fault site's good value must be the complement of
	// the stuck value.
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
	// Propagation: pick the D-frontier gate closest to an output — among
	// those with an X-path to some primary output (propagation through
	// gates already set to definite values is impossible, so frontier
	// gates without an X-path are dead ends; pruning them here is the
	// classic X-path check that makes PODEM terminate quickly on blocked
	// faults). Gates whose good-side X fan-ins are all exhausted cannot
	// seed a backtrace, so the deepest gate that still has one wins; if
	// none has one the remaining unknowns ride the faulty circuit only and
	// badXObjective takes over. Declaring a dead end in either corner would
	// be unsound — exhaustion-based untestability proofs rely on every
	// infeasible verdict being a real dead end.
	best, bestAny := -1, -1
	for _, gi := range g.dFrontier() {
		if !g.xPathToOutput(gi) {
			continue
		}
		if bestAny < 0 || g.t.level[gi] > g.t.level[bestAny] {
			bestAny = gi
		}
		if !g.hasGoodXFanin(gi) {
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
		// XOR-ish gate: any X input can take either value; pick 0.
		nc = v0
	}
	for _, fi := range gate2.Fanin {
		if g.good[fi] == vX {
			return fi, nc, true
		}
	}
	return 0, 0, false
}

// hasGoodXFanin reports whether some fan-in of gi is still good-side X —
// the kind of fan-in a backtrace can justify.
func (g *Generator) hasGoodXFanin(gi int) bool {
	for _, fi := range g.t.net.Gates[gi].Fanin {
		if g.good[fi] == vX {
			return true
		}
	}
	return false
}

// badXObjective handles the frontier corner where no gate offers a
// good-side X fan-in: the difference is alive but every unknown sits on
// the faulty side (good values definite, bad values X — possible only
// inside the fault cone). Any bad-X signal's unknown ultimately comes from
// an unassigned primary input, reached by descending bad-X fan-ins until
// the good side turns X again; justifying that signal (either value — both
// get tried) resolves the faulty side and un-sticks the frontier.
func (g *Generator) badXObjective(gi int) (gate int, val uint8, feasible bool) {
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
			return 0, 0, false // defensive: a bad-X gate keeps a bad-X fan-in
		}
		cur = next
	}
	return 0, 0, false
}

// xPathToOutput reports whether a path of X-valued gates leads from gate
// gi to some primary output (gi itself may hold a definite faulty value —
// only the forward path must still be open).
func (g *Generator) xPathToOutput(gi int) bool {
	if g.t.isOutput[gi] {
		return true
	}
	g.seenEpoch++
	if g.seenEpoch == 0 { // uint32 wrap: every stale stamp would look current
		clear(g.seen)
		g.seenEpoch = 1
	}
	stack := g.dfStack[:0]
	stack = append(stack, gi)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range g.t.fanout[cur] {
			if g.seen[fo] == g.seenEpoch {
				continue
			}
			g.seen[fo] = g.seenEpoch
			if g.good[fo] != vX && g.bad[fo] != vX {
				continue // definite value: propagation blocked here
			}
			if g.t.isOutput[fo] {
				g.dfStack = stack
				return true
			}
			stack = append(stack, fo)
		}
	}
	g.dfStack = stack
	return false
}

// nonControlling returns the value that does not decide the gate's output.
func nonControlling(t netlist.GateType) (uint8, bool) {
	switch t {
	case netlist.And, netlist.Nand:
		return v1, true
	case netlist.Or, netlist.Nor:
		return v0, true
	default:
		return vX, false
	}
}

// backtrace walks an objective (gate, value) backwards to an unassigned
// primary input, inverting the target value through inverting gates and
// choosing the easiest-to-control fan-in by the SCOAP weights.
func (g *Generator) backtrace(gate int, val uint8) (piIdx int, piVal uint8, ok bool) {
	n := g.t.net
	cur, want := gate, val
	for steps := 0; steps < n.NumGates()+1; steps++ {
		gt := &n.Gates[cur]
		if gt.Type == netlist.Input {
			if g.good[cur] != vX {
				return 0, 0, false // already assigned; objective unreachable
			}
			if ii := g.t.inputIdx[cur]; ii >= 0 {
				return ii, want, true
			}
			return 0, 0, false
		}
		// Choose the X fan-in that is cheapest for the required value,
		// flipping the wanted value through inverting gates.
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

// Result is the outcome of a full-circuit ATPG run.
type Result struct {
	// Cubes are the generated test cubes, in fault-index commit order.
	Cubes *cube.Set
	// Patterns are the fully specified patterns used for fault dropping
	// (the cubes with X filled pseudorandomly), in cube order. Empty when
	// FaultDrop is off.
	Patterns [][]uint8
	// Detected counts faults covered by the generated cubes (including
	// fault-drop credit).
	Detected int
	// Untestable counts faults PODEM proved redundant (decision space
	// exhausted).
	Untestable int
	// Aborted counts faults abandoned at the backtrack limit — unlike
	// untestables they still count against coverage.
	Aborted int
	// Backtracks totals the chronological backtracks of every committed
	// PODEM run — the decision-quality cost the Backtrace strategies
	// compete on. Like every other counter it is independent of Workers
	// (discarded speculative runs are excluded).
	Backtracks int
	// Coverage is detected / (total - untestable).
	Coverage float64
}

// Options tunes RunAllCtx.
type Options struct {
	// FaultDrop simulates each new cube (X-filled randomly) against the
	// remaining faults and drops everything it detects, like Atalanta.
	FaultDrop bool
	// FillSeed keys the random X-fill used for fault dropping.
	FillSeed uint64
	// BacktrackLimit overrides the generator default when > 0.
	BacktrackLimit int
	// Backtrace selects the decision heuristic of every PODEM worker: the
	// classic single-objective SCOAP backtrace (the zero value,
	// BacktraceSCOAP) or the FAN/SOCRATES-style multiple backtrace
	// (BacktraceMulti). Strategies produce different — but equally valid
	// and fault-simulator-verified — cubes; within one strategy results
	// stay bit-identical for any Workers value.
	Backtrace Backtrace
	// Workers parallelizes RunAllCtx: cube generation runs speculatively
	// on a pool of per-worker Generators over a sliding window of upcoming
	// faults, and the fault-drop sweep of each committed batch is chunked
	// across a pool of fault simulators. 0 or negative means one worker
	// per CPU. Results commit strictly in fault-index order, so
	// the emitted cubes, patterns and counters are bit-identical for any
	// value.
	Workers int
	// LaneWords widens every fault-drop simulator to that many 64-bit
	// pattern words (faultsim.Options.LaneWords), so committed patterns
	// accumulate into 64×LaneWords-wide batches — 256/512 at 4/8 — before
	// each drop sweep. 0 or negative keeps the single-word engine. Cubes,
	// patterns and every counter are bit-identical for any value: a fault
	// reaches PODEM exactly when no earlier committed pattern detects it,
	// regardless of sweep cadence (pending lanes are checked at each
	// fault's commit turn), so widening only trades sweep frequency for
	// sweep width.
	LaneWords int
	// Tables optionally supplies prebuilt shared tables for the universe's
	// netlist, so repeated RunAllCtx calls over one circuit skip rebuilding
	// levelization, fan-out lists and SCOAP weights. When nil, RunAllCtx
	// builds them once per invocation (never once per worker).
	Tables *Tables
	// CheckpointEvery, when > 0 together with Checkpoint, snapshots the
	// run every that-many committed faults. Cadence counts commits (not
	// drops), so the interval between snapshots is bounded by PODEM work,
	// the expensive part.
	CheckpointEvery int
	// Checkpoint receives each snapshot on the committing goroutine. The
	// snapshot aliases live engine state: serialize or deep-copy it before
	// returning, and never retain it (see Checkpoint's doc comment).
	Checkpoint func(*Checkpoint)
	// Resume, when non-nil, starts the run from a prior snapshot instead
	// of from scratch; the final Result is bit-identical to the
	// uninterrupted run's. The checkpoint must Match the universe or
	// RunAllCtx fails before touching any fault.
	Resume *Checkpoint
}

// RunAllCtx generates test cubes for every fault of the universe.
//
// With FaultDrop on, committed patterns accumulate into 64×LaneWords-wide
// batches so every sweep over the remaining universe fills all the
// simulator lanes; between sweeps each PODEM candidate is first checked
// against the pending (not yet swept) lanes with one event-driven
// DetectAny. A fault therefore reaches PODEM exactly when no earlier
// committed pattern detects it — the same rule as the classic
// sweep-after-every-pattern loop, which this replaces bit for bit at a
// fraction of the simulation work.
//
// The context is polled at every fault boundary and, amortized, inside
// each PODEM run and drop sweep, so a cancel or deadline takes effect
// within microseconds of the engines noticing it. A cancelled run returns
// the partial Result accumulated so far (counters and cubes for every
// fault committed before the cancel, coverage computed over the full
// universe) alongside an error wrapping context.Canceled or
// context.DeadlineExceeded. An uncancelled run's Result does not depend on
// the context.
func RunAllCtx(ctx context.Context, u *faultsim.Universe, opt Options) (*Result, error) {
	tables := opt.Tables
	if tables == nil {
		t, err := NewTables(u.Net)
		if err != nil {
			return nil, err
		}
		tables = t
	} else if !tables.Valid(u.Net) {
		// Stale tables would index out of range or silently miss outputs
		// deep in the engine; fail loudly instead.
		return nil, fmt.Errorf("atpg: Options.Tables built over a different netlist (or the netlist was mutated after NewTables)")
	}
	simOpts := faultsim.Options{Workers: opt.Workers, LaneWords: opt.LaneWords}
	workers := simOpts.PoolSize(len(u.Faults))
	sims, err := faultsim.NewSimulatorPoolLanes(u, workers, simOpts.LaneWordCount())
	if err != nil {
		return nil, err
	}
	r := &runner{
		ctx:      ctx,
		u:        u,
		opt:      opt,
		tables:   tables,
		sims:     sims,
		capacity: sims[0].Capacity(),
		src:      prng.New(opt.FillSeed),
		res:      &Result{Cubes: cube.NewSet(len(u.Net.Inputs))},
		done:     make([]bool, len(u.Faults)),
	}
	if opt.Resume != nil {
		if err := r.restore(opt.Resume); err != nil {
			return nil, err
		}
	}
	err = r.runPipelined(workers)
	if den := len(u.Faults) - r.res.Untestable; den > 0 {
		r.res.Coverage = float64(r.res.Detected) / float64(den)
	}
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled or deadline-exceeded: hand back the partial progress
			// with a typed (errors.Is-able) error instead of garbage.
			return r.res, fmt.Errorf("atpg: run stopped after %d/%d faults: %w",
				r.res.Detected+r.res.Untestable+r.res.Aborted, len(u.Faults), ctx.Err())
		}
		return nil, err
	}
	return r.res, nil
}

// runner holds the shared state of one RunAllCtx invocation. All of it is
// owned by the committing goroutine — generation workers only ever touch
// their own job slots — so the done evolution, the FillSeed stream and
// every counter advance in fault-index order regardless of scheduling.
type runner struct {
	ctx    context.Context
	u      *faultsim.Universe
	opt    Options
	tables *Tables
	sims   []*faultsim.Simulator // sims[0] accumulates the pending batch
	// capacity is sims[0].Capacity(): 64×LaneWords patterns per sweep.
	capacity int
	src      *prng.Source
	res      *Result
	done     []bool
	// commits counts committed faults for the checkpoint cadence.
	commits int
}

// newGenerator builds one worker's scratch over the shared tables.
func (r *runner) newGenerator() *Generator {
	g := r.tables.NewGenerator()
	if r.opt.BacktrackLimit > 0 {
		g.BacktrackLimit = r.opt.BacktrackLimit
	}
	g.Strategy = r.opt.Backtrace
	g.Ctx = r.ctx
	return g
}

// specJob is one speculative PODEM run. The owning worker writes c, status
// and backtracks, then closes ready; the committer reads them only after
// <-ready.
type specJob struct {
	fi         int
	c          cube.Cube
	status     Status
	backtracks int
	ready      chan struct{}
}

// runPipelined overlaps PODEM with committing: a pool of per-worker
// Generators speculatively processes a sliding window of upcoming
// not-yet-dropped faults while results commit strictly in fault-index
// order. PODEM for one fault depends only on the fault (never on done), so
// a speculative run is either committed unchanged or — when its target was
// dropped by an earlier committed pattern in the meantime — discarded
// without side effects. Speculation therefore only spends bounded extra
// work; it cannot change the output. It is the only execution path:
// Workers=1 is one speculative worker beside the committing goroutine.
func (r *runner) runPipelined(workers int) error {
	gens := make([]*Generator, workers)
	for i := range gens {
		gens[i] = r.newGenerator()
	}
	depth := 4 * workers // speculation window; bounds wasted PODEM runs
	jobs := make(chan *specJob, depth)
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *Generator) {
			defer wg.Done()
			for j := range jobs {
				j.c, j.status = g.Generate(r.u.Faults[j.fi])
				j.backtracks = g.Backtracks
				close(j.ready)
			}
		}(g)
	}
	window := make([]*specJob, 0, depth)
	next, closed := 0, false
	// dispatch tops the window up with the next faults not already dropped,
	// applying the pending-lane check eagerly: a fault the pending patterns
	// already detect would be dropped at its commit turn anyway (committed
	// patterns only accumulate between now and then), so dropping it here
	// yields the same result and skips a wasted speculative PODEM run.
	// Only the committing goroutine mutates done, so the reads are
	// race-free; a fault dropped after dispatch is discarded at commit.
	dispatch := func() {
		for len(window) < depth && next < len(r.u.Faults) {
			if !r.done[next] && !r.dropPending(next) {
				j := &specJob{fi: next, ready: make(chan struct{})}
				window = append(window, j)
				jobs <- j
			}
			next++
		}
		if next == len(r.u.Faults) && !closed {
			close(jobs)
			closed = true
		}
	}
	defer func() {
		// On an early error return: stop feeding, let the workers drain the
		// queue, and join them so no goroutine outlives the call.
		if !closed {
			close(jobs)
		}
		for _, j := range window {
			<-j.ready
		}
		wg.Wait()
	}()
	for {
		if err := r.ctx.Err(); err != nil {
			// The deferred drain lets every in-flight Generate notice the
			// same context and stop; no goroutine outlives the call.
			return err
		}
		dispatch()
		if len(window) == 0 {
			return nil
		}
		j := window[0]
		window = window[1:]
		<-j.ready
		if j.status == StatusCanceled {
			return r.ctx.Err()
		}
		if r.done[j.fi] || r.dropPending(j.fi) {
			continue // dropped since dispatch: discard the speculation
		}
		if err := r.commit(j.fi, j.c, j.status, j.backtracks); err != nil {
			return err
		}
		r.maybeCheckpoint()
	}
}

// dropPending checks one PODEM candidate against the patterns committed
// since the last full sweep — exactly the faults the per-pattern loop
// would have dropped before reaching this candidate.
func (r *runner) dropPending(fi int) bool {
	if !r.opt.FaultDrop || r.sims[0].PatternCount() == 0 {
		return false
	}
	if !r.sims[0].DetectAny(r.u.Faults[fi]) {
		return false
	}
	r.done[fi] = true
	r.res.Detected++
	return true
}

// commit applies one PODEM outcome in fault-index order.
func (r *runner) commit(fi int, c cube.Cube, status Status, backtracks int) error {
	r.res.Backtracks += backtracks
	switch status {
	case StatusUntestable:
		r.res.Untestable++
		r.done[fi] = true
		return nil
	case StatusAborted:
		r.res.Aborted++
		r.done[fi] = true
		return nil
	}
	r.res.Detected++
	r.done[fi] = true
	if err := r.res.Cubes.Add(c); err != nil {
		return err
	}
	if !r.opt.FaultDrop {
		return nil
	}
	// Random-fill the cube's don't-cares. The fill stream is consumed in
	// commit order, so the patterns are independent of worker count.
	pat := make([]uint8, c.Width())
	for i := 0; i < c.Width(); i++ {
		switch v := c.Get(i); v {
		case -1:
			pat[i] = r.src.Bit()
		default:
			pat[i] = uint8(v)
		}
	}
	r.res.Patterns = append(r.res.Patterns, pat)
	if err := r.sims[0].AppendPattern(pat); err != nil {
		return err
	}
	if r.sims[0].PatternCount() == r.capacity {
		return r.sweep()
	}
	return nil
}

// sweep runs the accumulated full-width batch (64×LaneWords patterns)
// against every remaining fault, chunked across the simulator pool, and
// starts a fresh batch. No flush is needed after the last fault: every
// fault has been committed or dropped by then, so a final sweep could not
// mark anything new. A cancelled sweep returns the context error; its
// partial done marks are all genuine detections, so the partial Result
// stays truthful.
func (r *runner) sweep() error {
	for _, s := range r.sims[1:] {
		s.AdoptPatterns(r.sims[0])
	}
	n, err := faultsim.DetectAllCtx(r.ctx, r.sims, r.u.Faults, r.done)
	r.res.Detected += n
	r.sims[0].ResetPatterns()
	return err
}
