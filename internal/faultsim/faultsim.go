// Package faultsim provides the single stuck-at fault universe and a
// word-sliced bit-parallel fault simulator over internal/netlist circuits —
// the second half of the Atalanta substitute (ARCHITECTURE.md §①). The ATPG
// package uses it to drop detected faults, and tests use it to confirm that
// every cube the flow produces really detects its target fault.
//
// A Simulator evaluates W 64-bit lane words at once (Options.LaneWords,
// default 1), so one event-driven sweep covers up to 64×W patterns — 256 or
// 512 at W=4/8 — while staying bit-identical, lane for lane, to the W=1
// engine. Its per-gate planes live in contiguous arenas (one slab for the
// whole circuit, indexed gate×W) and the shared topology stores fan-out
// lists in index-based CSR form, so building a 100k-gate simulator costs a
// handful of allocations instead of one per gate.
//
// The simulator is event-driven: injecting a fault only re-evaluates the
// gates inside the fault's output cone (scheduled level by level over the
// levelized netlist), not the whole circuit. Faults whose site cannot reach
// a primary output are rejected without simulating a single gate. CoverageCtx
// sweeps the fault universe across a worker pool (see Options) with one
// Simulator of scratch state per worker: workers claim fixed-size chunks of
// the fault list (DetectAllCtx), and the per-universe topology (levels, CSR
// fan-out, output reachability) is computed once and shared.
package faultsim

import (
	"errors"
	"fmt"
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
	u := &Universe{Net: n}
	for gi, g := range n.Gates {
		if g.Type != netlist.Input || loads[gi] > 0 {
			u.Faults = append(u.Faults, Fault{Gate: gi, Pin: -1, Stuck: 0}, Fault{Gate: gi, Pin: -1, Stuck: 1})
		}
		if g.Type == netlist.Buf || g.Type == netlist.Not {
			continue
		}
		for pin, f := range g.Fanin {
			if loads[f] > 1 {
				u.Faults = append(u.Faults, Fault{Gate: gi, Pin: pin, Stuck: 0}, Fault{Gate: gi, Pin: pin, Stuck: 1})
			}
		}
	}
	return u
}

// topology holds the per-circuit structures every Simulator shares: the
// topological order, per-gate levels, CSR fan-out lists and output
// reachability. It is immutable once built; order and level are the
// netlist's shared caches (netlist.Levelize/Levels), never mutated here.
// The fan-out lists are stored index-based — one flat int32 adjacency slab
// plus an offset array — so a 100k-gate topology is two allocations, not
// one slice header per gate.
type topology struct {
	order      []int
	level      []int
	numLevels  int
	fanoutOff  []int32 // CSR offsets; gate gi's fan-outs are fanoutList[fanoutOff[gi]:fanoutOff[gi+1]]
	fanoutList []int32
	isOutput   []bool
	observable []bool // gate has a path to some primary output
}

// fanouts returns gate gi's fan-out list as a view into the CSR slab.
func (t *topology) fanouts(gi int) []int32 {
	return t.fanoutList[t.fanoutOff[gi]:t.fanoutOff[gi+1]]
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
		isOutput:   make([]bool, ng),
		observable: make([]bool, ng),
	}
	// CSR fan-out: count loads per signal, prefix-sum into offsets, then
	// fill in ascending gate order — the same per-gate order the old
	// slice-of-slices build produced.
	t.fanoutOff = make([]int32, ng+1)
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			t.fanoutOff[f+1]++
		}
	}
	for gi := 0; gi < ng; gi++ {
		t.fanoutOff[gi+1] += t.fanoutOff[gi]
	}
	t.fanoutList = make([]int32, t.fanoutOff[ng])
	cur := make([]int32, ng)
	copy(cur, t.fanoutOff[:ng])
	for gi, g := range n.Gates {
		for _, f := range g.Fanin {
			t.fanoutList[cur[f]] = int32(gi)
			cur[f]++
		}
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
		for _, fo := range t.fanouts(gi) {
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
// patterns via LoadPatterns, LoadPacked or AppendPattern.
var ErrLaneOverflow = errors.New("faultsim: pattern count exceeds lane capacity")

// Simulator evaluates up to 64×W test patterns at once against the
// fault-free circuit and, fault by fault, against the faulty one (serial
// fault, parallel pattern — Atalanta's scheme, widened to W lane words).
// All per-gate planes are flat arenas: gate gi's lanes occupy words
// [gi*W, (gi+1)*W), so a simulator is a fixed handful of slab allocations
// regardless of circuit size. It is not safe for concurrent use; build one
// per worker (they share the universe's topology).
type Simulator struct {
	u    *Universe
	topo *topology
	w    int // lane words per gate; capacity = 64*w patterns

	good   []uint64 // fault-free plane arena, gate gi at [gi*w:(gi+1)*w], bit i of word k = pattern 64k+i
	bad    []uint64 // faulty plane arena, valid only where stamp == epoch
	stamp  []uint32 // epoch stamp marking gates with a diverged faulty value
	queued []uint32 // epoch stamp marking gates scheduled for evaluation
	epoch  uint32
	levels [][]int    // per-level worklist buckets, reused across faults
	buf    []uint64   // fan-in word gather scratch (w==1 fast path)
	planes [][]uint64 // fan-in plane gather scratch (lane path)
	fbuf   []uint64   // w-word faulty-value scratch (lane path)
	dbuf   []uint64   // w-word DetectLanes result scratch
	zeros  []uint64   // constant all-zero stuck plane
	ones   []uint64   // constant all-one stuck plane
	loaded []uint64   // w-word mask of valid pattern lanes
	count  int        // number of loaded pattern lanes
	dirty  bool       // input lanes changed; fault-free evaluation pending
}

// NewSimulatorLanes prepares a simulator with laneWords 64-bit words of
// pattern lanes, for a batch capacity of 64×laneWords patterns per sweep.
// laneWords must be in [1, MaxLaneWords]; laneWords = 1 selects the
// single-word engine every wider lane width is tested bit-identical against.
func NewSimulatorLanes(u *Universe, laneWords int) (*Simulator, error) {
	if laneWords < 1 || laneWords > MaxLaneWords {
		return nil, fmt.Errorf("faultsim: LaneWords %d (want 1..%d)", laneWords, MaxLaneWords)
	}
	topo, err := u.topology()
	if err != nil {
		return nil, err
	}
	ng := u.Net.NumGates()
	return &Simulator{
		u:      u,
		topo:   topo,
		w:      laneWords,
		good:   make([]uint64, ng*laneWords),
		bad:    make([]uint64, ng*laneWords),
		stamp:  make([]uint32, ng),
		queued: make([]uint32, ng),
		levels: make([][]int, topo.numLevels),
		fbuf:   make([]uint64, laneWords),
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
// deferred to the first use (see AppendPattern).
func (s *Simulator) LoadPatterns(patterns [][]uint8) error {
	if len(patterns) > s.Capacity() {
		return fmt.Errorf("%w: %d patterns, capacity %d (LaneWords=%d)",
			ErrLaneOverflow, len(patterns), s.Capacity(), s.w)
	}
	if len(patterns) == 0 {
		return fmt.Errorf("faultsim: %d patterns (want 1..%d)", len(patterns), s.Capacity())
	}
	s.ResetPatterns()
	for _, p := range patterns {
		if err := s.AppendPattern(p); err != nil {
			return err
		}
	}
	return nil
}

// ResetPatterns empties the pattern batch so AppendPattern can build a new
// one lane by lane.
func (s *Simulator) ResetPatterns() {
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
// 64×W-wide batches with.
func (s *Simulator) AppendPattern(p []uint8) error {
	if s.count >= s.Capacity() {
		return fmt.Errorf("%w: batch already holds %d patterns (LaneWords=%d)",
			ErrLaneOverflow, s.Capacity(), s.w)
	}
	n := s.u.Net
	if len(p) != len(n.Inputs) {
		return fmt.Errorf("faultsim: pattern %d has %d bits, want %d", s.count, len(p), len(n.Inputs))
	}
	word := s.count >> 6
	bit := uint64(1) << uint(s.count&63)
	for ii, gi := range n.Inputs {
		if p[ii]&1 != 0 {
			s.good[gi*s.w+word] |= bit
		}
	}
	s.count++
	s.loaded[word] |= bit
	s.dirty = true
	return nil
}

// LoadPacked installs an already bit-sliced batch: words[i*W+k] holds lane
// word k of input i (bit p of word k = pattern 64k+p), count the number of
// valid lanes, at most Capacity (ErrLaneOverflow past it). Callers that
// keep patterns packed skip the per-bit slicing of LoadPatterns entirely;
// lanes at or above count are masked off.
func (s *Simulator) LoadPacked(words []uint64, count int) error {
	n := s.u.Net
	if len(words) != len(n.Inputs)*s.w {
		return fmt.Errorf("faultsim: %d packed words, want %d (%d inputs × LaneWords=%d)",
			len(words), len(n.Inputs)*s.w, len(n.Inputs), s.w)
	}
	if count > s.Capacity() {
		return fmt.Errorf("%w: %d patterns, capacity %d (LaneWords=%d)",
			ErrLaneOverflow, count, s.Capacity(), s.w)
	}
	if count < 1 {
		return fmt.Errorf("faultsim: %d patterns (want 1..%d)", count, s.Capacity())
	}
	s.ResetPatterns()
	fillLoadedMask(s.loaded, count)
	for ii, gi := range n.Inputs {
		for k := 0; k < s.w; k++ {
			s.good[gi*s.w+k] = words[ii*s.w+k] & s.loaded[k]
		}
	}
	s.count = count
	s.dirty = true
	return nil
}

// PatternCount returns the number of pattern lanes currently loaded.
func (s *Simulator) PatternCount() int { return s.count }

func laneMask(count int) uint64 {
	if count >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(count) - 1
}

// fillLoadedMask sets the valid-lane mask for count patterns across the
// given lane words: full words below the boundary, a partial mask at it,
// zero above.
func fillLoadedMask(loaded []uint64, count int) {
	for k := range loaded {
		rem := count - 64*k
		switch {
		case rem >= 64:
			loaded[k] = ^uint64(0)
		case rem > 0:
			loaded[k] = laneMask(rem)
		default:
			loaded[k] = 0
		}
	}
}

// ensureEval runs the deferred fault-free evaluation of the loaded batch.
func (s *Simulator) ensureEval() {
	if s.dirty {
		s.evalInto(s.good, -1, Fault{})
		s.dirty = false
	}
}

// AdoptPatterns copies the fault-free state of src, which must be a
// simulator over the same universe with the same lane width and patterns
// loaded. A worker pool uses it to pay the fault-free simulation once per
// batch.
func (s *Simulator) AdoptPatterns(src *Simulator) {
	src.ensureEval()
	copy(s.good, src.good)
	copy(s.loaded, src.loaded)
	s.count = src.count
	s.dirty = false
}

// evalInto evaluates the whole circuit into the dst arena. If faultGate ≥ 0,
// the given fault is injected. It is the full (non-event-driven) evaluation,
// used for the fault-free load and as the reference in differential tests.
func (s *Simulator) evalInto(dst []uint64, faultGate int, f Fault) {
	n := s.u.Net
	w := s.w
	for _, gi := range s.topo.order {
		g := &n.Gates[gi]
		db := dst[gi*w : gi*w+w]
		if g.Type == netlist.Input {
			copy(db, s.good[gi*w:gi*w+w]) // inputs always take the pattern values
		} else {
			s.planes = s.planes[:0]
			for pin, fi := range g.Fanin {
				fp := dst[fi*w : fi*w+w]
				if faultGate == gi && f.Pin == pin {
					fp = s.stuckPlane(f.Stuck)
				}
				s.planes = append(s.planes, fp)
			}
			g.Type.EvalWords(db, s.planes)
		}
		if faultGate == gi && f.Pin == -1 {
			copy(db, s.stuckPlane(f.Stuck))
		}
	}
}

// stuckPlane returns the constant all-0 or all-1 lane plane for a stuck
// value.
func (s *Simulator) stuckPlane(b uint8) []uint64 {
	if b != 0 {
		return s.ones
	}
	return s.zeros
}

func stuckWord(b uint8) uint64 {
	if b != 0 {
		return ^uint64(0)
	}
	return 0
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
	if s.w == 1 {
		s.dbuf[0] = s.detectWord(f, false)
	} else {
		s.detectLanes(f, false)
	}
	return s.dbuf
}

// DetectAny reports whether any loaded pattern detects the fault —
// DetectLanes != 0 with an early exit: the level-by-level propagation stops
// at the first level where a primary output shows a (lane-masked)
// difference, instead of simulating the rest of the fault cone. The drop
// loops only need the boolean, and detected faults are exactly the ones
// whose cones propagate furthest.
func (s *Simulator) DetectAny(f Fault) bool {
	if s.w == 1 {
		return s.detectWord(f, true) != 0
	}
	return s.detectLanes(f, true)
}

// beginFault opens a new epoch for one fault and schedules its site. It
// reports false — nothing to simulate — when no pattern is loaded or the
// site cannot reach a primary output.
func (s *Simulator) beginFault(f Fault) bool {
	if s.count == 0 || !s.topo.observable[f.Gate] {
		return false
	}
	s.ensureEval()
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: every stale stamp would look current
		clear(s.stamp)
		clear(s.queued)
		s.epoch = 1
	}
	s.schedule(f.Gate)
	return true
}

// dropLevels empties the worklist buckets from level lv up, after an early
// exit left gates scheduled there.
func (s *Simulator) dropLevels(lv int) {
	for ; lv < len(s.levels); lv++ {
		s.levels[lv] = s.levels[lv][:0]
	}
}

// detectWord is the W=1 event-driven engine behind DetectLanes and
// DetectAny. It returns the lane-masked detect mask of patterns 0..63;
// with early set it stops at the first level where a primary output shows
// a difference, so the mask is then only meaningful as zero vs non-zero.
// It is a scalar specialisation of detectLanes: a uint64 per gate instead
// of a W-word plane, which PERFORMANCE.md measures as worth keeping.
func (s *Simulator) detectWord(f Fault, early bool) uint64 {
	if !s.beginFault(f) {
		return 0
	}
	t := s.topo
	var diff uint64
	for lv := t.level[f.Gate]; lv < len(s.levels); lv++ {
		bucket := s.levels[lv]
		if len(bucket) == 0 {
			continue
		}
		for _, gi := range bucket {
			v := s.evalFaulty(gi, f)
			if v == s.good[gi] {
				continue // reconverged: nothing propagates
			}
			s.bad[gi] = v
			s.stamp[gi] = s.epoch
			if t.isOutput[gi] {
				diff |= (s.good[gi] ^ v) & s.loaded[0]
			}
			for _, fo := range t.fanouts(gi) {
				if t.observable[fo] {
					s.schedule(int(fo))
				}
			}
		}
		s.levels[lv] = bucket[:0]
		if early && diff != 0 {
			s.dropLevels(lv + 1)
			return diff
		}
	}
	return diff
}

// detectLanes is the W>1 event-driven engine behind DetectLanes and
// DetectAny: identical propagation to detectWord, with every plane
// comparison, reconvergence check and output diff running over all W lane
// words. The per-word detect masks accumulate into s.dbuf; with early set
// it stops at the first level where any lane word shows an output
// difference. It reports whether any lane detects the fault.
func (s *Simulator) detectLanes(f Fault, early bool) bool {
	w := s.w
	diff := s.dbuf
	clear(diff)
	if !s.beginFault(f) {
		return false
	}
	t := s.topo
	any := false
	for lv := t.level[f.Gate]; lv < len(s.levels); lv++ {
		bucket := s.levels[lv]
		if len(bucket) == 0 {
			continue
		}
		levelHit := false
		for _, gi := range bucket {
			s.evalFaultyLanes(gi, f, s.fbuf)
			gp := s.good[gi*w : gi*w+w]
			same := true
			for k, v := range s.fbuf {
				if v != gp[k] {
					same = false
					break
				}
			}
			if same {
				continue // reconverged in every lane: nothing propagates
			}
			copy(s.bad[gi*w:gi*w+w], s.fbuf)
			s.stamp[gi] = s.epoch
			if t.isOutput[gi] {
				for k, v := range s.fbuf {
					if d := (gp[k] ^ v) & s.loaded[k]; d != 0 {
						diff[k] |= d
						levelHit = true
						any = true
					}
				}
			}
			for _, fo := range t.fanouts(gi) {
				if t.observable[fo] {
					s.schedule(int(fo))
				}
			}
		}
		s.levels[lv] = bucket[:0]
		if early && levelHit {
			s.dropLevels(lv + 1)
			return true
		}
	}
	return any
}

// schedule queues a gate for evaluation in the current epoch. Fan-out gates
// are always at a strictly higher level than their driver, so buckets below
// the cursor are never appended to.
func (s *Simulator) schedule(gi int) {
	if s.queued[gi] == s.epoch {
		return
	}
	s.queued[gi] = s.epoch
	lv := s.topo.level[gi]
	s.levels[lv] = append(s.levels[lv], gi)
}

// evalFaulty computes the faulty value of one gate from the current-epoch
// faulty values of its fan-ins (falling back to the fault-free values) with
// the fault injected. W=1 fast path; the lane engine uses evalFaultyLanes.
func (s *Simulator) evalFaulty(gi int, f Fault) uint64 {
	if f.Gate == gi && f.Pin == -1 {
		return stuckWord(f.Stuck)
	}
	g := &s.u.Net.Gates[gi]
	if g.Type == netlist.Input {
		return s.good[gi]
	}
	s.buf = s.buf[:0]
	for pin, fi := range g.Fanin {
		var fv uint64
		switch {
		case f.Gate == gi && f.Pin == pin:
			fv = stuckWord(f.Stuck)
		case s.stamp[fi] == s.epoch:
			fv = s.bad[fi]
		default:
			fv = s.good[fi]
		}
		s.buf = append(s.buf, fv)
	}
	return g.Type.EvalWord(s.buf)
}

// evalFaultyLanes is evalFaulty over W lane words: it gathers each fan-in's
// current plane (bad where stamped this epoch, good otherwise, the constant
// stuck plane on the faulty pin) and evaluates the gate function into dst.
func (s *Simulator) evalFaultyLanes(gi int, f Fault, dst []uint64) {
	w := s.w
	if f.Gate == gi && f.Pin == -1 {
		copy(dst, s.stuckPlane(f.Stuck))
		return
	}
	g := &s.u.Net.Gates[gi]
	if g.Type == netlist.Input {
		copy(dst, s.good[gi*w:gi*w+w])
		return
	}
	s.planes = s.planes[:0]
	for pin, fi := range g.Fanin {
		var fp []uint64
		switch {
		case f.Gate == gi && f.Pin == pin:
			fp = s.stuckPlane(f.Stuck)
		case s.stamp[fi] == s.epoch:
			fp = s.bad[fi*w : fi*w+w]
		default:
			fp = s.good[fi*w : fi*w+w]
		}
		s.planes = append(s.planes, fp)
	}
	g.Type.EvalWords(dst, s.planes)
}
