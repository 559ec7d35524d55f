// Package faultsim provides the single stuck-at fault universe and a
// word-sliced bit-parallel fault simulator over internal/netlist circuits —
// the second half of the Atalanta substitute (ARCHITECTURE.md §①). The ATPG
// package uses it to drop detected faults, and tests use it to confirm that
// every cube the flow produces really detects its target fault.
//
// A Simulator evaluates W 64-bit lane words at once (Options.LaneWords;
// CoverageCtx picks up to 8 itself, the ATPG drop loop defaults to 1), so one
// event-driven sweep covers up to 64×W patterns — 256 or 512 at W=4/8. One
// event loop and one gate kernel (netlist.GateType.EvalWords) serve every
// width, and a pattern's detect bit does not depend on the width it is
// simulated at. Its per-gate planes live in contiguous arenas (one slab for
// the whole circuit, indexed gate×W) and the shared topology stores fan-out
// lists in index-based CSR form, so building a 100k-gate simulator costs a
// handful of allocations instead of one per gate.
//
// The simulator is event-driven: injecting a fault only re-evaluates the
// gates inside the fault's output cone (scheduled level by level over the
// levelized netlist), not the whole circuit. Faults whose site cannot reach
// a primary output are rejected without simulating a single gate. CoverageCtx
// sweeps the fault universe across a worker pool (see Options) with one
// Simulator of scratch state per worker: workers claim fixed-size chunks of
// the fault list (DetectAllCtx), the per-universe topology (levels, CSR
// fan-out, output reachability) is computed once and shared, and so is the
// pool's one fault-free plane.
package faultsim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/netlist"
)

// Fault is a single stuck-at fault on a gate output or a gate input pin.
type Fault struct {
	Gate  int   // gate index in the netlist
	Pin   int   // -1 = output fault, otherwise fan-in pin index
	Stuck uint8 // stuck-at value, 0 or 1
}

// String renders the fault in the conventional g<idx>.<site>/sa<v> form.
func (f Fault) String() string {
	loc := "out"
	if f.Pin >= 0 {
		loc = fmt.Sprintf("in%d", f.Pin)
	}
	return fmt.Sprintf("g%d.%s/sa%d", f.Gate, loc, f.Stuck)
}

// Universe lists the faults of a circuit after structural equivalence
// collapsing. It also lazily caches the circuit topology shared by every
// Simulator built over it, so worker pools are cheap to spin up.
type Universe struct {
	// Net is the circuit the faults live on.
	Net *netlist.Netlist
	// Faults is the collapsed stuck-at list in canonical gate order.
	Faults []Fault

	topoOnce sync.Once
	topo     *topology
	topoErr  error
}

// NewUniverse builds the collapsed stuck-at fault list.
//
// Collapsing rules (standard dominance-free structural equivalences):
// every gate output gets sa0+sa1; gate input-pin faults are kept only on
// fan-out stems' branches — an input pin fed by a signal with fan-out 1 is
// equivalent to the driver's output fault and is dropped. For inverters
// and buffers, input faults are always equivalent to output faults and are
// dropped too.
func NewUniverse(n *netlist.Netlist) *Universe {
	// loads counts the readers of every signal: gate fan-in pins plus one
	// per primary-output marking.
	loads := make([]int32, n.NumGates())
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			loads[f]++
		}
	}
	for _, o := range n.Outputs {
		loads[o]++
	}
	// Count first, then fill: the list is one exactly sized allocation.
	nf := 0
	forEachFaultSite(n, loads, func(int, int) { nf += 2 })
	u := &Universe{Net: n, Faults: make([]Fault, 0, nf)}
	forEachFaultSite(n, loads, func(gi, pin int) {
		u.Faults = append(u.Faults, Fault{Gate: gi, Pin: pin, Stuck: 0}, Fault{Gate: gi, Pin: pin, Stuck: 1})
	})
	return u
}

// forEachFaultSite calls site for every collapsed fault site (pin -1 = the
// gate output) in canonical gate order; each site carries sa0 and sa1.
func forEachFaultSite(n *netlist.Netlist, loads []int32, site func(gi, pin int)) {
	for gi, g := range n.Gates {
		if g.Type != netlist.Input || loads[gi] > 0 {
			site(gi, -1)
		}
		if g.Type == netlist.Buf || g.Type == netlist.Not {
			continue
		}
		for pin, f := range g.Fanin {
			if loads[f] > 1 {
				site(gi, pin)
			}
		}
	}
}

// topology holds the per-circuit structures every Simulator shares: the
// topological order, per-gate levels, fan-out lists and output
// reachability. It is immutable once built; order, level and the fan-out
// lists are the netlist's shared caches (netlist.Levelize/Levels/
// Adjacency), never mutated here.
type topology struct {
	order      []int
	level      []int
	numLevels  int
	adj        netlist.Adjacency // a copy of the shared slice headers: no pointer hop per lookup
	isOutput   []bool
	observable []bool // gate has a path to some primary output
}

// topology returns the (lazily computed, cached) circuit topology. Safe for
// concurrent use; the levelization error, if any, is cached too.
func (u *Universe) topology() (*topology, error) {
	u.topoOnce.Do(func() {
		u.topo, u.topoErr = newTopology(u.Net)
	})
	return u.topo, u.topoErr
}

func newTopology(n *netlist.Netlist) (*topology, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	level, numLevels, err := n.Levels()
	if err != nil {
		return nil, err
	}
	ng := n.NumGates()
	t := &topology{
		order:      order,
		level:      level,
		numLevels:  numLevels,
		adj:        *n.Adjacency(),
		isOutput:   make([]bool, ng),
		observable: make([]bool, ng),
	}
	for _, o := range n.Outputs {
		t.isOutput[o] = true
	}
	// Output reachability in reverse topological order: a gate is observable
	// iff it is an output or some fan-out gate is. Events outside this set
	// can never change a primary output, so Detect never schedules them.
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		if t.isOutput[gi] {
			t.observable[gi] = true
			continue
		}
		for _, fo := range t.adj.Fanouts(gi) {
			if t.observable[fo] {
				t.observable[gi] = true
				break
			}
		}
	}
	return t, nil
}

// MaxLaneWords bounds a Simulator's lane width: 64 words = 4096 patterns
// per sweep, far past the point of diminishing returns, and a guard
// against absurd per-simulator arena sizes.
const MaxLaneWords = 64

// ErrLaneOverflow is returned (wrapped) when a pattern batch would exceed
// the simulator's lane capacity — more than Capacity() = 64×LaneWords
// patterns via LoadPatterns or AppendPattern.
var ErrLaneOverflow = errors.New("faultsim: pattern count exceeds lane capacity")

// ErrSharedPlane is returned by the pattern-loading methods of a pool
// follower (see NewSimulatorPoolLanes): its fault-free plane is the pool
// leader's arena, read-only here. Load the leader and AdoptPatterns instead.
var ErrSharedPlane = errors.New("faultsim: simulator shares its pool leader's fault-free plane; load the leader and AdoptPatterns")

// Simulator evaluates up to 64×W test patterns at once against the
// fault-free circuit and, fault by fault, against the faulty one (serial
// fault, parallel pattern — Atalanta's scheme, widened to W lane words).
// All per-gate planes are flat arenas: gate gi's lanes occupy words
// [gi*W, (gi+1)*W), so a simulator is a fixed handful of slab allocations
// regardless of circuit size. It is not safe for concurrent use; build one
// per worker (they share the universe's topology), or a pool with
// NewSimulatorPoolLanes (whose followers also share the leader's
// fault-free plane).
type Simulator struct {
	u    *Universe
	topo *topology
	w    int // lane words per gate; capacity = 64*w patterns

	good   []uint64 // fault-free plane arena, gate gi at [gi*w:(gi+1)*w], bit i of word k = pattern 64k+i
	shared bool     // good is a pool leader's arena: read it, never write it
	bad    []uint64 // faulty plane arena, valid only where stamp == epoch
	stamp  []uint32 // epoch stamp marking gates with a diverged faulty value
	queued []uint32 // epoch stamp marking gates scheduled for evaluation
	epoch  uint32
	levels [][]int    // per-level worklist buckets, reused across faults
	planes [][]uint64 // fan-in plane gather scratch
	dbuf   []uint64   // w-word DetectLanes result scratch
	zeros  []uint64   // constant all-zero stuck plane
	ones   []uint64   // constant all-one stuck plane
	loaded []uint64   // w-word mask of valid pattern lanes
	count  int        // number of loaded pattern lanes
	dirty  bool       // input lanes changed; fault-free evaluation pending
}

// NewSimulatorLanes prepares a simulator with laneWords 64-bit words of
// pattern lanes, for a batch capacity of 64×laneWords patterns per sweep.
// laneWords must be in [1, MaxLaneWords]; every width runs the same event
// loop.
func NewSimulatorLanes(u *Universe, laneWords int) (*Simulator, error) {
	return newSimulator(u, laneWords, nil)
}

// newSimulator builds a simulator over u. A nil good allocates a private
// fault-free arena; otherwise good is a pool leader's arena of the same
// shape, and the simulator only ever reads it.
func newSimulator(u *Universe, laneWords int, good []uint64) (*Simulator, error) {
	if laneWords < 1 || laneWords > MaxLaneWords {
		return nil, fmt.Errorf("faultsim: LaneWords %d (want 1..%d)", laneWords, MaxLaneWords)
	}
	topo, err := u.topology()
	if err != nil {
		return nil, err
	}
	ng := u.Net.NumGates()
	shared := good != nil
	if !shared {
		good = make([]uint64, ng*laneWords)
	}
	return &Simulator{
		u:      u,
		topo:   topo,
		w:      laneWords,
		good:   good,
		shared: shared,
		bad:    make([]uint64, ng*laneWords),
		stamp:  make([]uint32, ng),
		queued: make([]uint32, ng),
		levels: make([][]int, topo.numLevels),
		dbuf:   make([]uint64, laneWords),
		zeros:  make([]uint64, laneWords),
		ones:   newOnes(laneWords),
		loaded: make([]uint64, laneWords),
	}, nil
}

func newOnes(w int) []uint64 {
	ones := make([]uint64, w)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	return ones
}

// LaneWords returns the simulator's lane width W in 64-bit words.
func (s *Simulator) LaneWords() int { return s.w }

// Capacity returns the maximum pattern batch size, 64×LaneWords.
func (s *Simulator) Capacity() int { return 64 * s.w }

// LoadPatterns bit-slices up to Capacity fully specified patterns (each of
// length len(Inputs)) into a fresh batch. The fault-free simulation is
// deferred to the first use (see AppendPattern). A pool follower returns
// ErrSharedPlane.
func (s *Simulator) LoadPatterns(patterns [][]uint8) error {
	if s.shared {
		return ErrSharedPlane
	}
	if len(patterns) > s.Capacity() {
		return fmt.Errorf("%w: %d patterns, capacity %d (LaneWords=%d)",
			ErrLaneOverflow, len(patterns), s.Capacity(), s.w)
	}
	if len(patterns) == 0 {
		return fmt.Errorf("faultsim: %d patterns (want 1..%d)", len(patterns), s.Capacity())
	}
	s.reset()
	for _, p := range patterns {
		if err := s.AppendPattern(p); err != nil {
			return err
		}
	}
	return nil
}

// ResetPatterns empties the pattern batch so AppendPattern can build a new
// one lane by lane. A pool follower returns ErrSharedPlane.
func (s *Simulator) ResetPatterns() error {
	if s.shared {
		return ErrSharedPlane
	}
	s.reset()
	return nil
}

func (s *Simulator) reset() {
	clear(s.good)
	clear(s.loaded)
	s.count = 0
	s.dirty = false
}

// AppendPattern adds one fully specified pattern to the next free lane of
// the current batch (up to Capacity) without re-packing the lanes already
// loaded. The fault-free evaluation is deferred until the next Detect call
// (or AdoptPatterns), so appending k patterns back to back costs one
// circuit evaluation, not k — the primitive RunAllCtx's drop loop builds its
// 64×W-wide batches with. Bit i of the lane is p[i]&1. A pool follower
// returns ErrSharedPlane.
func (s *Simulator) AppendPattern(p []uint8) error {
	if s.shared {
		return ErrSharedPlane
	}
	if s.count >= s.Capacity() {
		return fmt.Errorf("%w: batch already holds %d patterns (LaneWords=%d)",
			ErrLaneOverflow, s.Capacity(), s.w)
	}
	n := s.u.Net
	if len(p) != len(n.Inputs) {
		return fmt.Errorf("faultsim: pattern %d has %d bits, want %d", s.count, len(p), len(n.Inputs))
	}
	word, lane := s.count>>6, uint(s.count&63)
	for ii, gi := range n.Inputs {
		s.good[gi*s.w+word] |= uint64(p[ii]&1) << lane
	}
	s.count++
	s.loaded[word] |= 1 << lane
	s.dirty = true
	return nil
}

// PatternCount returns the number of pattern lanes currently loaded.
func (s *Simulator) PatternCount() int { return s.count }

// ensureEval runs the deferred fault-free evaluation of the loaded batch.
func (s *Simulator) ensureEval() {
	if s.dirty {
		s.evalGood()
		s.dirty = false
	}
}

// AdoptPatterns takes over the fault-free state of src, which must be a
// simulator over the same universe with the same lane width and patterns
// loaded. A worker pool uses it to pay the fault-free simulation once per
// batch. A pool follower adopting from its leader copies only the lane
// mask and count: the plane is already shared. A follower must be
// re-adopted after every new leader batch before it detects again, and it
// may not adopt from a simulator outside its pool (that panics).
func (s *Simulator) AdoptPatterns(src *Simulator) {
	src.ensureEval()
	if !sameArena(s.good, src.good) {
		if s.shared {
			panic("faultsim: AdoptPatterns from a simulator outside the follower's pool")
		}
		copy(s.good, src.good)
	}
	copy(s.loaded, src.loaded)
	s.count = src.count
	s.dirty = false
}

// sameArena reports whether two plane arenas are one slab (an empty arena
// has nothing to copy, so it counts as shared).
func sameArena(a, b []uint64) bool {
	return len(a) == 0 || len(b) > 0 && &a[0] == &b[0]
}

// evalGood evaluates the whole fault-free circuit over the loaded input
// lanes, in topological order, into the good arena.
func (s *Simulator) evalGood() {
	w := s.w
	for _, gi := range s.topo.order {
		g := &s.u.Net.Gates[gi]
		if g.Type != netlist.Input { // inputs hold the pattern values
			g.Type.EvalWords(s.good[gi*w:gi*w+w], s.goodPlanes(g))
		}
	}
}

// goodPlanes gathers the fault-free planes of g's fan-ins, pin by pin, into
// the simulator's scratch list.
func (s *Simulator) goodPlanes(g *netlist.Gate) [][]uint64 {
	w := s.w
	s.planes = s.planes[:0]
	for _, fi := range g.Fanin {
		s.planes = append(s.planes, s.good[fi*w:fi*w+w])
	}
	return s.planes
}

// stuckPlane returns the constant all-0 or all-1 lane plane for a stuck
// value.
func (s *Simulator) stuckPlane(b uint8) []uint64 {
	if b != 0 {
		return s.ones
	}
	return s.zeros
}

// DetectLanes simulates one fault against the loaded patterns and returns
// the per-lane-word detect masks: bit p of word k is set when pattern
// 64k+p detects the fault (differs on some primary output). The returned
// slice is scratch owned by the simulator, valid until the next Detect
// call; copy it to retain it.
//
// The evaluation is event-driven: only gates downstream of the injection
// point are re-evaluated, level by level, and propagation stops wherever
// the faulty value reconverges with the fault-free one. Gates that cannot
// reach a primary output are never scheduled.
func (s *Simulator) DetectLanes(f Fault) []uint64 {
	s.detectLanes(f, false)
	return s.dbuf
}

// DetectAny reports whether any loaded pattern detects the fault —
// DetectLanes != 0 with an early exit: the level-by-level propagation stops
// at the first level where a primary output shows a (lane-masked)
// difference, instead of simulating the rest of the fault cone. The drop
// loops only need the boolean, and detected faults are exactly the ones
// whose cones propagate furthest.
func (s *Simulator) DetectAny(f Fault) bool {
	return s.detectLanes(f, true)
}

// detectLanes is the event-driven engine behind DetectLanes and DetectAny,
// at every lane width: each plane comparison, reconvergence check and
// output diff runs over all W lane words. The per-word detect masks
// accumulate into s.dbuf; with early set it stops at the first level where
// any lane word shows an output difference. It reports whether any lane
// detects the fault.
func (s *Simulator) detectLanes(f Fault, early bool) bool {
	clear(s.dbuf)
	if s.count == 0 || !s.topo.observable[f.Gate] {
		return false // no pattern loaded, or the site reaches no output
	}
	s.ensureEval()
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: every stale stamp would look current
		clear(s.stamp)
		clear(s.queued)
		s.epoch = 1
	}
	// The fault site is the only gate evaluated at its level, so the fault
	// is injected there once and the walk above it reads plain fan-in
	// planes. pending counts the gates scheduled but not yet evaluated: the
	// walk ends when it drains, not at the top level.
	s.evalSite(f)
	hit, pending := s.settle(f.Gate)
	any := hit
	for lv := s.topo.level[f.Gate] + 1; pending > 0; lv++ {
		if early && hit {
			s.dropLevels(lv)
			return true
		}
		bucket := s.levels[lv]
		hit = false
		for _, gi := range bucket {
			s.evalBad(gi)
			h, queued := s.settle(gi)
			hit = hit || h
			pending += queued - 1
		}
		s.levels[lv] = bucket[:0]
		any = any || hit
	}
	return any
}

// dropLevels empties the worklist buckets from level lv up, after an early
// exit left gates scheduled there.
func (s *Simulator) dropLevels(lv int) {
	for ; lv < len(s.levels); lv++ {
		s.levels[lv] = s.levels[lv][:0]
	}
}

// evalSite writes the faulty plane of the fault's own gate: the constant
// stuck plane for an output fault, otherwise the gate function over the
// fault-free fan-in planes with the stuck plane on the faulty pin.
func (s *Simulator) evalSite(f Fault) {
	w := s.w
	dst := s.bad[f.Gate*w : f.Gate*w+w]
	if f.Pin < 0 {
		copy(dst, s.stuckPlane(f.Stuck))
		return
	}
	g := &s.u.Net.Gates[f.Gate]
	in := s.goodPlanes(g)
	in[f.Pin] = s.stuckPlane(f.Stuck)
	g.Type.EvalWords(dst, in)
}

// evalBad evaluates gate gi straight into its faulty plane from the
// current plane of each fan-in: bad where stamped this epoch, good
// otherwise. The plane is only read back if settle stamps the gate.
func (s *Simulator) evalBad(gi int) {
	w := s.w
	g := &s.u.Net.Gates[gi]
	s.planes = s.planes[:0]
	for _, fi := range g.Fanin {
		if s.stamp[fi] == s.epoch {
			s.planes = append(s.planes, s.bad[fi*w:fi*w+w])
		} else {
			s.planes = append(s.planes, s.good[fi*w:fi*w+w])
		}
	}
	g.Type.EvalWords(s.bad[gi*w:gi*w+w], s.planes)
}

// settle finishes gate gi after its faulty plane is written. If the plane
// reconverged with the fault-free one in every lane nothing propagates.
// Otherwise it stamps the gate, adds a primary output's lane-masked
// difference to the detect masks and schedules the observable fan-outs not
// yet queued this epoch (fan-outs always sit at a strictly higher level).
// It reports whether an output lane differs and how many gates it queued.
func (s *Simulator) settle(gi int) (hit bool, queued int) {
	w := s.w
	bp, gp := s.bad[gi*w:gi*w+w], s.good[gi*w:gi*w+w]
	if slices.Equal(bp, gp) {
		return false, 0
	}
	s.stamp[gi] = s.epoch
	t := s.topo
	if t.isOutput[gi] {
		for k, v := range bp {
			if d := (gp[k] ^ v) & s.loaded[k]; d != 0 {
				s.dbuf[k] |= d
				hit = true
			}
		}
	}
	for _, fo := range t.adj.Fanouts(gi) {
		if t.observable[fo] && s.queued[fo] != s.epoch {
			s.queued[fo] = s.epoch
			lv := t.level[fo]
			s.levels[lv] = append(s.levels[lv], int(fo))
			queued++
		}
	}
	return hit, queued
}
