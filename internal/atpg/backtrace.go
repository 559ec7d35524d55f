package atpg

// FAN/SOCRATES-style multiple backtrace. The classic PODEM backtrace
// (atpg.go) serves exactly one objective per decision: it walks a single
// (gate, value) requirement down the cheapest-controllability path and
// assigns whatever primary input it lands on, blind to every other
// justification and propagation goal alive at that moment. Fujiwara's FAN
// (1983) and Schulz's SOCRATES (1988) showed that tracing *all* current
// objectives simultaneously — accumulating weighted 0/1 demand counts
// ("votes") gate by gate from the D-frontier and the justification targets
// down to the decision points — makes conflicts visible before they are
// committed to, and picks decision values that serve the majority of the
// objective set instead of one member of it.
//
// This file adapts that idea to the PODEM skeleton kept by this package
// (decisions at primary inputs only, chronological backtracking, the same
// event-driven implication engine):
//
//   - multiDecision seeds one weighted objective set per decision — the
//     activation requirement while the fault site is unjustified, then one
//     non-controlling-value requirement per X side-input of every live
//     D-frontier gate — and propagates it level by level down the X-valued
//     network in a single sweep over the shared Tables levelization. A
//     requirement for a gate's controlling value follows only the
//     cheapest-SCOAP fan-in (it takes one input to win); a requirement for
//     the non-controlling value fans out to every X fan-in (it needs them
//     all). Primary inputs accumulate the surviving votes and the most
//     contended input is assigned its majority value.
//
//   - forcedConflict is the early conflict detector: starting from a set of
//     requirements that every extension of the current assignment must
//     satisfy, it follows only *forced* steps (all fan-ins of a
//     non-controlling requirement; a controlling requirement with exactly
//     one X fan-in left) and reports when two forced chains demand opposite
//     values of the same gate. Such a clash proves the objective set
//     unsatisfiable under the current assignment, so the engine backtracks
//     immediately instead of burning decisions (and their implications)
//     discovering the same dead end bottom-up.
//
// Correctness note: votes are pure heuristics — any (input, value) choice
// keeps PODEM complete — but conflict pruning must be *sound*, since it
// turns "try more decisions" into "backtrack now" and ultimately into
// untestability proofs. Forced chains walk good values only (good-value
// justification is fault-independent), and frontier side-input requirements
// are only imposed on fan-ins outside the fault cone, where the faulty
// circuit provably equals the good one and a controlling value kills every
// difference at the gate. TestMultiStatusSound and the extended FuzzGenerate
// cross-check both engines' statuses and verdicts on every fuzzed circuit.

import "repro/internal/netlist"

// Backtrace selects the decision heuristic a Generator uses to turn PODEM
// objectives into primary-input assignments.
type Backtrace int

const (
	// BacktraceSCOAP is the classic single-objective PODEM backtrace: one
	// objective per decision, walked down the cheapest SCOAP
	// controllability path. It is the default and the bit-identity
	// reference the differential tests pin.
	BacktraceSCOAP Backtrace = iota
	// BacktraceMulti is the FAN/SOCRATES-style multiple backtrace: all
	// current objectives are traced at once with controllability-weighted
	// votes, and forced-chain conflicts are detected before implication.
	BacktraceMulti
)

// String names the strategy the way the -backtrace CLI flag spells it.
func (b Backtrace) String() string {
	switch b {
	case BacktraceSCOAP:
		return "scoap"
	case BacktraceMulti:
		return "multi"
	default:
		return "unknown"
	}
}

// ParseBacktrace maps a -backtrace flag value to a strategy.
func ParseBacktrace(s string) (Backtrace, bool) {
	switch s {
	case "scoap", "":
		return BacktraceSCOAP, true
	case "multi":
		return BacktraceMulti, true
	default:
		return 0, false
	}
}

// voteClamp bounds the accumulated demand on one gate. Non-controlling
// requirements fan out to every X fan-in, so raw counts can grow
// exponentially with depth; beyond this magnitude the ranking signal is
// saturated anyway.
const voteClamp = int64(1) << 42

// multiScratch is the lazily allocated per-worker scratch of the multiple
// backtrace: vote counters and their levelized buckets, plus the
// epoch-stamped requirement marks of the forced-chain conflict sweep. It
// costs nothing unless the generator actually runs BacktraceMulti.
type multiScratch struct {
	n0, n1 []int64 // accumulated 0/1 demand per gate
	queued []uint32
	wave   uint32
	levels [][]int // per-level vote buckets, drained top level down

	reqVal   []uint8 // forced requirement per gate, valid when stamped
	reqStamp []uint32
	reqEpoch uint32
	reqStack []int64 // encoded (gate << 1 | value) work list

	// forcedPIs collects the primary inputs reached by the current forced
	// sweep, in discovery order. After an activation sweep these are
	// values every test for the fault must set — free assignments whose
	// opposite branch never needs exploring.
	forcedPIs []int

	// liveBuf is the deepest-first list of frontier gates with an open
	// X-path, rebuilt each propagation decision.
	liveBuf []int
}

// ensureMulti allocates the multiple-backtrace scratch on first use.
func (g *Generator) ensureMulti() {
	if g.mb != nil {
		return
	}
	ng := g.t.net.NumGates()
	g.mb = &multiScratch{
		n0:       make([]int64, ng),
		n1:       make([]int64, ng),
		queued:   make([]uint32, ng),
		levels:   make([][]int, g.t.numLevels),
		reqVal:   make([]uint8, ng),
		reqStamp: make([]uint32, ng),
	}
}

// multiDecision is the BacktraceMulti replacement for the
// objective+backtrace pair: it returns the next primary-input assignment,
// or ok=false when the current assignment is a (possibly conflict-pruned)
// dead end and PODEM must backtrack. forced marks an assignment proven
// necessary for fault activation — its opposite branch is futile and the
// backtracking loop skips it.
func (g *Generator) multiDecision() (piIdx int, piVal uint8, ok, forced bool) {
	g.ensureMulti()
	f := g.fault
	site := g.faultSite()
	switch g.good[site] {
	case f.Stuck:
		return 0, 0, false, false // activation impossible under current assignment
	case vX:
		// Justification phase: the activation requirement is mandatory for
		// every extension, so a forced-chain clash proves this branch dead
		// before a single implication runs — and any input the chain
		// reaches holds a value every test must set, assignable without a
		// branch point.
		want := f.Stuck ^ 1
		if g.forcedConflict(site, want) {
			return 0, 0, false, false
		}
		if pis := g.mb.forcedPIs; len(pis) > 0 {
			gi := pis[0]
			return g.t.inputIdx[gi], g.mb.reqVal[gi], true, true
		}
		g.beginVotes()
		g.vote(site, want, 1)
		if pi, v, found := g.runVotes(); found {
			return pi, v, true, false
		}
		pi, v, found := g.classicDecision() // defensive: votes always reach an X input
		return pi, v, found, false
	}
	// Propagation phase: the deepest D-frontier gate with an X-path and no
	// provably conflicting side-input requirements carries the dominant
	// objective — the gate the classic engine would commit to, minus the
	// ones conflict analysis can already refute — and *all* of its
	// side-input requirements are traced together (the classic backtrace
	// follows exactly one of them). The other live gates add lightweight
	// votes so ties break toward inputs that serve several propagation
	// paths at once. Blockage is checked deepest-first and stops at the
	// first unblocked gate: that is enough both to pick the dominant
	// objective and to prove the whole-frontier prune (every gate checked
	// blocked) when it fires.
	m := g.mb
	m.liveBuf = m.liveBuf[:0]
	for _, gi := range g.dFrontier() {
		if g.xPathToOutput(gi) {
			m.liveBuf = append(m.liveBuf, gi)
		}
	}
	if len(m.liveBuf) == 0 {
		return 0, 0, false, false // no X-path anywhere: the classic dead end
	}
	// Stable insertion sort, deepest level first: ties keep their
	// topological order, matching the classic objective's first-of-max
	// preference. The frontier is small.
	lv := g.t.level
	for i := 1; i < len(m.liveBuf); i++ {
		for j := i; j > 0 && lv[m.liveBuf[j]] > lv[m.liveBuf[j-1]]; j-- {
			m.liveBuf[j], m.liveBuf[j-1] = m.liveBuf[j-1], m.liveBuf[j]
		}
	}
	best := -1
	for _, gi := range m.liveBuf {
		if !g.frontierBlocked(gi) {
			best = gi
			break
		}
	}
	if best < 0 {
		// Every propagation path is provably blocked under the current
		// assignment: prune the whole subtree without running implication.
		return 0, 0, false, false
	}
	g.beginVotes()
	// The deepest unblocked gate's own requirements dominate the side
	// votes by a margin that survives the fan-out duplication of realistic
	// cones.
	g.voteFrontier(best, 1<<20)
	for _, gi := range m.liveBuf {
		if gi != best {
			g.voteFrontier(gi, 1)
		}
	}
	if pi, v, found := g.runVotes(); found {
		return pi, v, true, false
	}
	// No unblocked frontier gate exposed an X side-input to vote on (the
	// remaining difference rides fault-cone signals only). Defer to the
	// classic single-objective decision so BacktraceMulti is never stuck in
	// a state the reference engine could decide.
	pi, v, found := g.classicDecision()
	return pi, v, found, false
}

// classicDecision is the single-objective reference decision, used by
// multiDecision as a fallback so the multi engine's dead-end calls are
// never a superset of the classic engine's.
func (g *Generator) classicDecision() (piIdx int, piVal uint8, ok bool) {
	objGate, objVal, feasible := g.objective()
	if !feasible {
		return 0, 0, false
	}
	return g.backtrace(objGate, objVal)
}

// beginVotes opens a fresh vote epoch.
func (g *Generator) beginVotes() {
	m := g.mb
	m.wave++
	if m.wave == 0 { // uint32 wrap: every stale stamp would look current
		clear(m.queued)
		m.wave = 1
	}
}

// vote adds w demand for value v on gate gi and schedules it for the
// levelized sweep. Votes on gates already holding a definite value are
// dropped: their objective is either satisfied or hopeless, and neither
// case should steer the decision.
func (g *Generator) vote(gi int, v uint8, w int64) {
	if w <= 0 || g.good[gi] != vX {
		return
	}
	m := g.mb
	if m.queued[gi] != m.wave {
		m.queued[gi] = m.wave
		m.n0[gi], m.n1[gi] = 0, 0
		lv := g.t.level[gi]
		m.levels[lv] = append(m.levels[lv], gi)
	}
	if v == v0 {
		m.n0[gi] += w
		if m.n0[gi] > voteClamp {
			m.n0[gi] = voteClamp
		}
	} else {
		m.n1[gi] += w
		if m.n1[gi] > voteClamp {
			m.n1[gi] = voteClamp
		}
	}
}

// voteFrontier seeds the propagation objectives of one D-frontier gate
// with weight w each: every X fan-in must settle at the gate's
// non-controlling value for the fault difference to pass. XOR-ish gates
// have no controlling value — any definite side value propagates — so
// their side inputs vote for 0, the same arbitrary preference the classic
// objective uses.
func (g *Generator) voteFrontier(gi int, w int64) {
	nc, hasNC := nonControlling(g.t.gateType(gi))
	if !hasNC {
		nc = v0
	}
	for _, fi := range g.t.adj.Fanins(gi) {
		if g.good[fi] == vX {
			g.vote(int(fi), nc, w)
		}
	}
}

// runVotes drains the vote buckets from the deepest level down to the
// primary inputs, propagating each gate's accumulated demand to its
// fan-ins, and returns the most contended X input with its majority value.
// Fan-ins sit at strictly lower levels than their gates, so every gate is
// processed after all its demand has arrived.
func (g *Generator) runVotes() (piIdx int, piVal uint8, ok bool) {
	m := g.mb
	bestPi, bestTotal := -1, int64(0)
	var bestVal uint8
	for lv := len(m.levels) - 1; lv >= 0; lv-- {
		bucket := m.levels[lv]
		if len(bucket) == 0 {
			continue
		}
		for _, gi := range bucket {
			d0, d1 := m.n0[gi], m.n1[gi]
			if g.t.gateType(gi) == netlist.Input {
				total := d0 + d1
				ii := g.t.inputIdx[gi]
				// Deterministic pick: highest total demand, then the
				// earliest input. Majority value on a tie prefers 1 iff it
				// is the cheaper SCOAP side, mirroring the classic
				// tie-break's cost sensitivity.
				better := total > bestTotal ||
					(total == bestTotal && bestPi >= 0 && ii < bestPi)
				if ii >= 0 && better {
					bestPi, bestTotal = ii, total
					switch {
					case d1 > d0:
						bestVal = v1
					case d0 > d1:
						bestVal = v0
					case g.t.cc1[gi] <= g.t.cc0[gi]:
						bestVal = v1
					default:
						bestVal = v0
					}
				}
				continue
			}
			g.propagateVotes(gi, d0, d1)
		}
		m.levels[lv] = bucket[:0]
	}
	if bestPi < 0 {
		return 0, 0, false
	}
	return bestPi, bestVal, true
}

// propagateVotes pushes one gate's accumulated (d0, d1) demand through its
// function to its X fan-ins: non-controlling demand to all of them,
// controlling demand to the cheapest one only, with inverting gates
// swapping the sides first.
func (g *Generator) propagateVotes(gi int, d0, d1 int64) {
	typ := g.t.gateType(gi)
	fin := g.t.adj.Fanins(gi)
	switch typ {
	case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
		d0, d1 = d1, d0
	}
	switch typ {
	case netlist.Buf, netlist.Not:
		g.vote(int(fin[0]), v0, d0)
		g.vote(int(fin[0]), v1, d1)
	case netlist.And, netlist.Nand:
		// Output 1 needs every fan-in at 1; output 0 takes one fan-in at 0.
		if d1 > 0 {
			for _, fi := range fin {
				g.vote(int(fi), v1, d1)
			}
		}
		if d0 > 0 {
			if fi := g.cheapestXFanin(fin, v0); fi >= 0 {
				g.vote(fi, v0, d0)
			}
		}
	case netlist.Or, netlist.Nor:
		if d0 > 0 {
			for _, fi := range fin {
				g.vote(int(fi), v0, d0)
			}
		}
		if d1 > 0 {
			if fi := g.cheapestXFanin(fin, v1); fi >= 0 {
				g.vote(fi, v1, d1)
			}
		}
	case netlist.Xor, netlist.Xnor:
		// With a single X fan-in left the parity of the definite ones fixes
		// the required value exactly; with several, steer the whole demand
		// to the cheapest X fan-in with both sides intact, so the contention
		// (not a fabricated value) survives to the decision point.
		single, parity := -1, uint8(0)
		for _, fi := range fin {
			if g.good[fi] == vX {
				if single >= 0 {
					single = -2
					break
				}
				single = int(fi)
			} else {
				parity ^= g.good[fi]
			}
		}
		if single >= 0 {
			g.vote(single, parity, d0)
			g.vote(single, parity^1, d1)
		} else if fi := g.cheapestXFaninEither(fin); fi >= 0 {
			g.vote(fi, v0, d0)
			g.vote(fi, v1, d1)
		}
	}
}

// cheapestXFanin returns the X fan-in among fin with the lowest SCOAP cost
// for value v, or -1 when none is left.
func (g *Generator) cheapestXFanin(fin []int32, v uint8) int {
	cc := g.t.cc0
	if v == v1 {
		cc = g.t.cc1
	}
	best, bestCost := -1, int(1)<<30
	for _, fi := range fin {
		if g.good[fi] != vX {
			continue
		}
		if cc[fi] < bestCost {
			best, bestCost = int(fi), cc[fi]
		}
	}
	return best
}

// cheapestXFaninEither is cheapestXFanin with the cost of a gate's easier
// side, for parity gates where either value serves.
func (g *Generator) cheapestXFaninEither(fin []int32) int {
	best, bestCost := -1, int(1)<<30
	for _, fi := range fin {
		if g.good[fi] != vX {
			continue
		}
		c := g.t.cc0[fi]
		if g.t.cc1[fi] < c {
			c = g.t.cc1[fi]
		}
		if c < bestCost {
			best, bestCost = int(fi), c
		}
	}
	return best
}

// frontierBlocked reports whether propagation through D-frontier gate gi is
// provably impossible under the current assignment: some side input outside
// the fault cone is forced (by a chain of unavoidable good-value steps) to
// the gate's controlling value, which kills every good/faulty difference at
// the gate's output. Fault-cone fan-ins are exempt — they can legally carry
// the difference themselves — and parity gates have no controlling value to
// force, so they are never blocked here.
func (g *Generator) frontierBlocked(gi int) bool {
	g.ensureMulti()
	nc, hasNC := nonControlling(g.t.gateType(gi))
	if !hasNC {
		return false
	}
	g.beginForced()
	for _, fi := range g.t.adj.Fanins(gi) {
		if g.good[fi] != vX || g.coneMark[fi] {
			continue
		}
		if !g.require(int(fi), nc) {
			return true
		}
	}
	return g.drainForced()
}

// forcedConflict reports whether the single requirement (gi = v) — which
// every extension of the current assignment must satisfy — is refuted by
// forced-chain analysis.
func (g *Generator) forcedConflict(gi int, v uint8) bool {
	g.ensureMulti()
	g.beginForced()
	if !g.require(gi, v) {
		return true
	}
	return g.drainForced()
}

// beginForced opens a fresh forced-requirement epoch.
func (g *Generator) beginForced() {
	m := g.mb
	m.reqEpoch++
	if m.reqEpoch == 0 { // uint32 wrap: every stale stamp would look current
		clear(m.reqStamp)
		m.reqEpoch = 1
	}
	m.reqStack = m.reqStack[:0]
	m.forcedPIs = m.forcedPIs[:0]
}

// require records one forced requirement and reports false on an immediate
// clash: the same gate already forced to the opposite value this epoch, or
// a definite value contradicting the demand.
func (g *Generator) require(gi int, v uint8) bool {
	m := g.mb
	if m.reqStamp[gi] == m.reqEpoch {
		return m.reqVal[gi] == v
	}
	if g.good[gi] != vX {
		return g.good[gi] == v
	}
	m.reqStamp[gi] = m.reqEpoch
	m.reqVal[gi] = v
	m.reqStack = append(m.reqStack, int64(gi)<<1|int64(v))
	if g.t.gateType(gi) == netlist.Input && g.t.inputIdx[gi] >= 0 {
		m.forcedPIs = append(m.forcedPIs, gi)
	}
	return true
}

// drainForced expands the queued requirements through their forced
// consequences and reports true on a clash (note the inverted sense versus
// require: this is the "conflict found" verdict).
func (g *Generator) drainForced() bool {
	m := g.mb
	for len(m.reqStack) > 0 {
		e := m.reqStack[len(m.reqStack)-1]
		m.reqStack = m.reqStack[:len(m.reqStack)-1]
		gi, want := int(e>>1), uint8(e&1)
		typ := g.t.gateType(gi)
		if typ == netlist.Input {
			continue // an unassigned input satisfies any requirement
		}
		fin := g.t.adj.Fanins(gi)
		switch typ {
		case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
			want ^= 1
		}
		switch typ {
		case netlist.Buf, netlist.Not:
			if !g.require(int(fin[0]), want) {
				return true
			}
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			nc := v1 // non-controlling value of the AND core
			if typ == netlist.Or || typ == netlist.Nor {
				nc = v0
			}
			if want == nc {
				// Every fan-in must be non-controlling: all forced.
				for _, fi := range fin {
					if g.good[fi] == vX && !g.require(int(fi), nc) {
						return true
					}
				}
			} else {
				// One controlling fan-in wins: forced only when a single X
				// candidate remains.
				forced := -1
				for _, fi := range fin {
					if g.good[fi] != vX {
						continue
					}
					if forced >= 0 {
						forced = -2 // two candidates: a free choice, stop here
						break
					}
					forced = int(fi)
				}
				if forced >= 0 && !g.require(forced, nc^1) {
					return true
				}
			}
		case netlist.Xor, netlist.Xnor:
			// Forced only when a single X fan-in fixes the parity.
			forced, parity := -1, want
			for _, fi := range fin {
				switch g.good[fi] {
				case vX:
					if forced >= 0 {
						forced = -2
					} else {
						forced = int(fi)
					}
				default:
					parity ^= g.good[fi]
				}
				if forced == -2 {
					break
				}
			}
			if forced >= 0 && !g.require(forced, parity) {
				return true
			}
		}
	}
	return false
}
