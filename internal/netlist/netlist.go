// Package netlist models gate-level combinational circuits in the ISCAS
// .bench dialect — the substrate under the ATPG flow (internal/atpg) and
// fault simulator (internal/faultsim) that stand in for Atalanta in this
// reproduction (ARCHITECTURE.md §①).
//
// A netlist is a DAG of single-output gates over named signals. Scan-based
// sequential circuits are handled the standard way: flip-flop outputs
// become pseudo primary inputs and flip-flop inputs become pseudo primary
// outputs, so the test-generation problem is purely combinational, exactly
// as Atalanta treats the ISCAS'89 circuits.
package netlist

import (
	"fmt"
	"sort"
	"sync"
)

// GateType enumerates the supported gate functions.
type GateType int

const (
	Input GateType = iota // primary (or pseudo primary) input, no fan-in
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
)

var gateNames = map[GateType]string{
	Input: "INPUT", Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
}

func (g GateType) String() string {
	if s, ok := gateNames[g]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(g))
}

// Eval computes the gate function over fan-in values (each 0 or 1).
func (g GateType) Eval(in []uint8) uint8 {
	switch g {
	case Buf:
		return in[0]
	case Not:
		return in[0] ^ 1
	case And, Nand:
		v := uint8(1)
		for _, b := range in {
			v &= b
		}
		if g == Nand {
			v ^= 1
		}
		return v
	case Or, Nor:
		v := uint8(0)
		for _, b := range in {
			v |= b
		}
		if g == Nor {
			v ^= 1
		}
		return v
	case Xor, Xnor:
		v := uint8(0)
		for _, b := range in {
			v ^= b
		}
		if g == Xnor {
			v ^= 1
		}
		return v
	default:
		panic(fmt.Sprintf("netlist: Eval on %v", g))
	}
}

// EvalWords is Eval on bit-sliced pattern lanes: it computes the gate
// function across len(dst)×64 patterns at once, reading fan-in pin p's
// lane words from in[p] and writing the result into dst. Every slice must
// have length len(dst); dst must not alias any fan-in plane. It is the one
// gate kernel of the fault simulator, for the fault-free evaluation and
// the event-driven fault loop at every lane width.
func (g GateType) EvalWords(dst []uint64, in [][]uint64) {
	switch g {
	case Buf:
		copy(dst, in[0])
	case Not:
		for w, v := range in[0] {
			dst[w] = ^v
		}
	case And, Nand:
		copy(dst, in[0])
		for _, p := range in[1:] {
			for w, v := range p {
				dst[w] &= v
			}
		}
		if g == Nand {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	case Or, Nor:
		copy(dst, in[0])
		for _, p := range in[1:] {
			for w, v := range p {
				dst[w] |= v
			}
		}
		if g == Nor {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	case Xor, Xnor:
		copy(dst, in[0])
		for _, p := range in[1:] {
			for w, v := range p {
				dst[w] ^= v
			}
		}
		if g == Xnor {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	default:
		panic(fmt.Sprintf("netlist: EvalWords on %v", g))
	}
}

// Gate is one node of the netlist. Fanin holds gate indices.
type Gate struct {
	Name  string
	Type  GateType
	Fanin []int
}

// Netlist is a combinational circuit. Gates are stored in input order
// followed by declaration order; Levelize sorts them topologically.
//
// The derived structures (the flat fan-in/fan-out adjacency, topological
// order, levels) are computed lazily under a mutex, so read-only consumers
// — the ATPG tables and the fault simulator's topology — may read them for
// the same netlist from concurrent goroutines. Building the netlist
// (AddInput/AddGate/MarkOutput) is not concurrency-safe and invalidates the
// caches.
type Netlist struct {
	Gates   []Gate
	Inputs  []int // gate indices of primary inputs
	Outputs []int // gate indices of primary outputs
	byName  map[string]int

	mu        sync.Mutex
	adj       *Adjacency // guarded by mu; flat fan-in/fan-out wiring, nil until Adjacency
	order     []int      // guarded by mu; topological order (gate indices), nil until Levelize
	levels    []int      // guarded by mu; per-gate longest path from an input, nil until Levels
	numLevels int        // guarded by mu
}

// New returns an empty netlist.
func New() *Netlist {
	return &Netlist{byName: make(map[string]int)}
}

// AddInput declares a primary input and returns its gate index.
func (n *Netlist) AddInput(name string) (int, error) {
	if _, dup := n.byName[name]; dup {
		return 0, fmt.Errorf("netlist: duplicate signal %q", name)
	}
	idx := len(n.Gates)
	n.Gates = append(n.Gates, Gate{Name: name, Type: Input})
	n.byName[name] = idx
	n.Inputs = append(n.Inputs, idx)
	n.invalidate()
	return idx, nil
}

// invalidate drops the derived caches after a structural mutation. It
// takes the cache mutex itself (no builder holds it), so a mutation
// racing a concurrent Adjacency/Levelize/Levels reader corrupts nothing —
// the reader sees either the old caches or the cleared ones, never a
// torn mix. Interleaving builds with reads is still a logic error, but
// it now fails loudly (stale-table checks) instead of via data races.
func (n *Netlist) invalidate() {
	n.mu.Lock()
	n.adj = nil
	n.order = nil
	n.levels = nil
	n.numLevels = 0
	n.mu.Unlock()
}

// AddGate declares a gate driven by existing signals and returns its index.
func (n *Netlist) AddGate(name string, t GateType, fanin ...string) (int, error) {
	if _, dup := n.byName[name]; dup {
		return 0, fmt.Errorf("netlist: duplicate signal %q", name)
	}
	if t == Input {
		return 0, fmt.Errorf("netlist: use AddInput for inputs")
	}
	if len(fanin) == 0 {
		return 0, fmt.Errorf("netlist: gate %q has no fan-in", name)
	}
	if (t == Buf || t == Not) && len(fanin) != 1 {
		return 0, fmt.Errorf("netlist: %v gate %q needs exactly one fan-in", t, name)
	}
	g := Gate{Name: name, Type: t}
	for _, f := range fanin {
		fi, ok := n.byName[f]
		if !ok {
			return 0, fmt.Errorf("netlist: gate %q references unknown signal %q", name, f)
		}
		g.Fanin = append(g.Fanin, fi)
	}
	idx := len(n.Gates)
	n.Gates = append(n.Gates, g)
	n.byName[name] = idx
	n.invalidate()
	return idx, nil
}

// MarkOutput declares an existing signal as a primary output. Marking a
// signal that is already an output is a no-op, so n.Outputs never holds
// duplicates — a net can legitimately be requested twice (e.g. declared
// OUTPUT(...) in a .bench file and also feeding a DFF data input), and a
// duplicate entry would double-count the output in WriteBench, Eval and
// the structural Hash.
func (n *Netlist) MarkOutput(name string) error {
	idx, ok := n.byName[name]
	if !ok {
		return fmt.Errorf("netlist: unknown output signal %q", name)
	}
	for _, o := range n.Outputs {
		if o == idx {
			return nil
		}
	}
	n.Outputs = append(n.Outputs, idx)
	n.invalidate()
	return nil
}

// Index returns the gate index of a named signal.
func (n *Netlist) Index(name string) (int, bool) {
	i, ok := n.byName[name]
	return i, ok
}

// NumGates returns the total node count (inputs included).
func (n *Netlist) NumGates() int { return len(n.Gates) }

// Levelize computes (and caches) a topological order. It fails on
// combinational loops. The returned slice is shared and must be treated as
// read-only.
func (n *Netlist) Levelize() ([]int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.levelizeLocked()
}

// levelizeLocked computes the cached topological order; callers must
// hold n.mu (the Locked suffix is the convention the lockcheck analyzer
// trusts).
func (n *Netlist) levelizeLocked() ([]int, error) {
	if n.order != nil {
		return n.order, nil
	}
	adj := n.adjacencyLocked()
	indeg := make([]int, len(n.Gates))
	for gi, g := range n.Gates {
		indeg[gi] = len(g.Fanin)
	}
	queue := make([]int, 0, len(n.Gates))
	for gi, d := range indeg {
		if d == 0 {
			queue = append(queue, gi)
		}
	}
	sort.Ints(queue) // deterministic order
	order := make([]int, 0, len(n.Gates))
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		order = append(order, gi)
		for _, fo := range adj.Fanouts(gi) {
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, int(fo))
			}
		}
	}
	if len(order) != len(n.Gates) {
		return nil, fmt.Errorf("netlist: combinational loop detected (%d of %d gates ordered)", len(order), len(n.Gates))
	}
	n.order = order
	return order, nil
}

// Adjacency is a netlist's wiring in flat compressed-sparse-row form: one
// int32 list per direction plus an offset array, so a 100k-gate circuit is
// four allocations, not one slice header per gate, and an engine walking
// fan-ins or fan-outs reads contiguous memory instead of chasing each
// Gate's Fanin pointer. Fan-ins are in pin order; fan-outs are in
// ascending gate order (a gate reading one signal on two pins appears
// twice). It is shared and must be treated as read-only.
type Adjacency struct {
	faninOff, fanin   []int32
	fanoutOff, fanout []int32
}

// Fanins returns gate gi's fan-in gate indices in pin order. Like Fanouts
// it returns a full-capacity view, so an accidental append cannot
// overwrite the next gate's list.
func (a *Adjacency) Fanins(gi int) []int32 {
	lo, hi := a.faninOff[gi], a.faninOff[gi+1]
	return a.fanin[lo:hi:hi]
}

// Fanouts returns the indices of every gate that reads gi, ascending.
func (a *Adjacency) Fanouts(gi int) []int32 {
	lo, hi := a.fanoutOff[gi], a.fanoutOff[gi+1]
	return a.fanout[lo:hi:hi]
}

// Adjacency returns the (cached) flat fan-in/fan-out wiring of the
// netlist — the one adjacency the ATPG tables and the fault simulator's
// topology share.
func (n *Netlist) Adjacency() *Adjacency {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.adjacencyLocked()
}

// adjacencyLocked builds the cached adjacency; callers must hold n.mu.
func (n *Netlist) adjacencyLocked() *Adjacency {
	if n.adj != nil {
		return n.adj
	}
	ng := len(n.Gates)
	a := &Adjacency{faninOff: make([]int32, ng+1), fanoutOff: make([]int32, ng+1)}
	for gi, g := range n.Gates {
		a.faninOff[gi+1] = a.faninOff[gi] + int32(len(g.Fanin))
		for _, f := range g.Fanin {
			a.fanoutOff[f+1]++
		}
	}
	for gi := 0; gi < ng; gi++ {
		a.fanoutOff[gi+1] += a.fanoutOff[gi]
	}
	a.fanin = make([]int32, a.faninOff[ng])
	a.fanout = make([]int32, a.fanoutOff[ng])
	// Filling in ascending gate order leaves every fan-out list sorted.
	cur := make([]int32, ng)
	copy(cur, a.fanoutOff[:ng])
	for gi, g := range n.Gates {
		for pin, f := range g.Fanin {
			a.fanin[a.faninOff[gi]+int32(pin)] = int32(f)
			a.fanout[cur[f]] = int32(gi)
			cur[f]++
		}
	}
	n.adj = a
	return a
}

// Levels returns the (cached) per-gate level — the longest path from any
// input, inputs at level 0 — and the total level count (max level + 1). A
// gate's level is always strictly greater than each of its fan-ins', which
// is what levelized event queues rely on. The slice is shared and must be
// treated as read-only.
func (n *Netlist) Levels() ([]int, int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.levels == nil {
		order, err := n.levelizeLocked()
		if err != nil {
			return nil, 0, err
		}
		levels := make([]int, len(n.Gates))
		numLevels := 1
		for _, gi := range order {
			for _, f := range n.Gates[gi].Fanin {
				if levels[f]+1 > levels[gi] {
					levels[gi] = levels[f] + 1
				}
			}
			if levels[gi]+1 > numLevels {
				numLevels = levels[gi] + 1
			}
		}
		n.levels = levels
		n.numLevels = numLevels
	}
	return n.levels, n.numLevels, nil
}

// Eval computes all primary outputs for a full input assignment, indexed
// like n.Inputs.
func (n *Netlist) Eval(inputs []uint8) ([]uint8, error) {
	if len(inputs) != len(n.Inputs) {
		return nil, fmt.Errorf("netlist: %d input values for %d inputs", len(inputs), len(n.Inputs))
	}
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	val := make([]uint8, len(n.Gates))
	for i, gi := range n.Inputs {
		val[gi] = inputs[i] & 1
	}
	var buf []uint8
	for _, gi := range order {
		g := &n.Gates[gi]
		if g.Type == Input {
			continue
		}
		buf = buf[:0]
		for _, f := range g.Fanin {
			buf = append(buf, val[f])
		}
		val[gi] = g.Type.Eval(buf)
	}
	out := make([]uint8, len(n.Outputs))
	for i, gi := range n.Outputs {
		out[i] = val[gi]
	}
	return out, nil
}

// Stats summarises the circuit.
type Stats struct {
	Inputs, Outputs, Gates int
	Levels                 int
}

// Summary computes circuit statistics.
func (n *Netlist) Summary() (Stats, error) {
	_, numLevels, err := n.Levels()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Inputs:  len(n.Inputs),
		Outputs: len(n.Outputs),
		Gates:   len(n.Gates) - len(n.Inputs),
		Levels:  numLevels - 1,
	}, nil
}

// Hash returns a content hash of the circuit structure: gate types,
// fan-in wiring, and the input/output maps (names excluded — two
// structurally identical circuits with different signal names hash
// equal). The server layer uses it as the content address of per-netlist
// artefact caches, so identical jobs submitted by different tenants share
// one cache entry. FNV-1a over the structural stream; stable across runs
// and platforms.
func (n *Netlist) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(n.Gates)))
	for gi := range n.Gates {
		g := &n.Gates[gi]
		mix(uint64(g.Type))
		mix(uint64(len(g.Fanin)))
		for _, fi := range g.Fanin {
			mix(uint64(fi))
		}
	}
	mix(uint64(len(n.Inputs)))
	for _, gi := range n.Inputs {
		mix(uint64(gi))
	}
	mix(uint64(len(n.Outputs)))
	for _, gi := range n.Outputs {
		mix(uint64(gi))
	}
	return h
}
