package atpg

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cube"
	"repro/internal/faultsim"
	"repro/internal/gf2"
)

// Checkpoint is a consistent snapshot of a RunAllCtx in progress, taken at a
// commit boundary: every counter, the per-fault done marks, the cubes and
// patterns emitted so far, and the X-fill stream position. Resuming from
// it (Options.Resume) produces final results bit-identical to the
// uninterrupted run, because commits advance in fault-index order and the
// only out-of-order side effects — the pipelined path's eager
// pending-lane drops — mark faults that every continuation is guaranteed
// to drop with the same counter effect and no cube.
//
// The struct handed to Options.Checkpoint aliases live engine state: the
// callback must serialize it (MarshalBinary) or deep-copy before
// returning, and must not retain it.
type Checkpoint struct {
	// NetHash identifies the circuit (netlist.Netlist.Hash) so a stale
	// checkpoint cannot resume against the wrong design.
	NetHash uint64
	// NumFaults is the universe size the Done marks index into.
	NumFaults int
	// NumInputs is the circuit input count (cube and pattern width).
	NumInputs int
	// Detected, Untestable, Aborted and Backtracks mirror the Result
	// counters at the snapshot point.
	Detected, Untestable, Aborted, Backtracks int
	// Done marks faults already committed or dropped.
	Done []bool
	// Cubes are the test cubes committed so far, in commit order.
	Cubes *cube.Set
	// Patterns are the X-filled patterns committed so far. A resume
	// replays all of them through fresh simulator batches (sweeping each
	// time a batch fills), which rebuilds the pending lanes regardless of
	// either run's lane capacity — already-swept patterns re-detect only
	// faults Done marks, so the replay is idempotent and the final result
	// stays bit-identical even when Options.LaneWords differs between the
	// interrupted and the resuming run.
	Patterns [][]uint8
	// FillState is the prng.Source state of the X-fill stream.
	FillState uint64
}

// Matches reports whether the checkpoint was taken over this universe —
// same circuit structure, fault count and input width. Resume refuses a
// mismatch; callers (the daemon) use Matches to fall back to a fresh run
// instead of failing the job.
func (cp *Checkpoint) Matches(u *faultsim.Universe) bool {
	return cp != nil &&
		cp.NetHash == u.Net.Hash() &&
		cp.NumFaults == len(u.Faults) &&
		cp.NumInputs == len(u.Net.Inputs) &&
		cp.NumFaults == len(cp.Done)
}

// checkpointMagic versions the binary layout; bump on any change.
const checkpointMagic = uint32(0x41435031) // "ACP1"

// MarshalBinary encodes the checkpoint in a fixed little-endian layout
// (bit-packed done marks and patterns, word-packed cube vectors) suitable
// for a journal record.
func (cp *Checkpoint) MarshalBinary() ([]byte, error) {
	if cp.Cubes == nil {
		return nil, fmt.Errorf("atpg: checkpoint has nil cube set")
	}
	if cp.Cubes.Width != cp.NumInputs {
		return nil, fmt.Errorf("atpg: checkpoint cube width %d != inputs %d", cp.Cubes.Width, cp.NumInputs)
	}
	buf := make([]byte, 0, 64+len(cp.Done)/8+len(cp.Patterns)*(cp.NumInputs/8+1))
	buf = binary.LittleEndian.AppendUint32(buf, checkpointMagic)
	buf = binary.LittleEndian.AppendUint64(buf, cp.NetHash)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.NumFaults))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.NumInputs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.Detected))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.Untestable))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.Aborted))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Backtracks))
	buf = binary.LittleEndian.AppendUint64(buf, cp.FillState)
	if len(cp.Done) != cp.NumFaults {
		return nil, fmt.Errorf("atpg: checkpoint done length %d != fault count %d", len(cp.Done), cp.NumFaults)
	}
	buf = appendBits(buf, cp.Done)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cp.Cubes.Len()))
	words := (cp.NumInputs + 63) / 64
	for _, c := range cp.Cubes.Cubes {
		if c.Width() != cp.NumInputs {
			return nil, fmt.Errorf("atpg: checkpoint cube width %d != inputs %d", c.Width(), cp.NumInputs)
		}
		for _, w := range c.Mask.Words()[:words] {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		for _, w := range c.Value.Words()[:words] {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cp.Patterns)))
	for _, p := range cp.Patterns {
		if len(p) != cp.NumInputs {
			return nil, fmt.Errorf("atpg: checkpoint pattern width %d != inputs %d", len(p), cp.NumInputs)
		}
		bits := make([]bool, len(p))
		for i, v := range p {
			bits[i] = v != 0
		}
		buf = appendBits(buf, bits)
	}
	return buf, nil
}

// UnmarshalBinary decodes a MarshalBinary payload, validating every
// length so a corrupted or truncated record fails loudly instead of
// resuming from garbage.
func (cp *Checkpoint) UnmarshalBinary(data []byte) error {
	d := &decoder{buf: data}
	if magic := d.u32(); magic != checkpointMagic {
		return fmt.Errorf("atpg: bad checkpoint magic %08x", magic)
	}
	cp.NetHash = d.u64()
	cp.NumFaults = int(d.u32())
	cp.NumInputs = int(d.u32())
	cp.Detected = int(d.u32())
	cp.Untestable = int(d.u32())
	cp.Aborted = int(d.u32())
	cp.Backtracks = int(d.u64())
	cp.FillState = d.u64()
	if d.err != nil {
		return fmt.Errorf("atpg: truncated checkpoint header: %w", d.err)
	}
	const maxDim = 1 << 28 // sanity bound against corrupt length fields
	if cp.NumFaults < 0 || cp.NumFaults > maxDim || cp.NumInputs < 0 || cp.NumInputs > maxDim {
		return fmt.Errorf("atpg: implausible checkpoint dimensions (faults=%d inputs=%d)", cp.NumFaults, cp.NumInputs)
	}
	cp.Done = d.bits(cp.NumFaults)
	numCubes := int(d.u32())
	if d.err != nil {
		return fmt.Errorf("atpg: truncated checkpoint: %w", d.err)
	}
	if numCubes < 0 || numCubes > maxDim {
		return fmt.Errorf("atpg: implausible checkpoint cube count %d", numCubes)
	}
	words := (cp.NumInputs + 63) / 64
	cp.Cubes = cube.NewSet(cp.NumInputs)
	for i := 0; i < numCubes; i++ {
		c := cube.New(cp.NumInputs)
		mw, vw := c.Mask.Words(), c.Value.Words()
		for w := 0; w < words; w++ {
			mw[w] = d.u64()
		}
		for w := 0; w < words; w++ {
			vw[w] = d.u64()
		}
		if err := maskTail(c.Mask, cp.NumInputs); err != nil {
			return err
		}
		if err := maskTail(c.Value, cp.NumInputs); err != nil {
			return err
		}
		cp.Cubes.Cubes = append(cp.Cubes.Cubes, c)
	}
	numPatterns := int(d.u32())
	if d.err != nil {
		return fmt.Errorf("atpg: truncated checkpoint cubes: %w", d.err)
	}
	if numPatterns < 0 || numPatterns > maxDim {
		return fmt.Errorf("atpg: implausible checkpoint pattern count %d", numPatterns)
	}
	cp.Patterns = make([][]uint8, 0, numPatterns)
	for i := 0; i < numPatterns; i++ {
		bits := d.bits(cp.NumInputs)
		p := make([]uint8, cp.NumInputs)
		for j, b := range bits {
			if b {
				p[j] = 1
			}
		}
		cp.Patterns = append(cp.Patterns, p)
	}
	if d.err != nil {
		return fmt.Errorf("atpg: truncated checkpoint patterns: %w", d.err)
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("atpg: %d trailing bytes after checkpoint", len(d.buf)-d.off)
	}
	return nil
}

// maskTail rejects set bits beyond the vector's logical width — a
// corruption symptom that would otherwise poison word-level cube
// operations, which assume clean tail words.
func maskTail(v gf2.Vec, width int) error {
	words := v.Words()
	if rem := width % 64; rem != 0 && len(words) > 0 {
		if words[len(words)-1]&^(^uint64(0)>>(64-rem)) != 0 {
			return fmt.Errorf("atpg: checkpoint vector has bits beyond width %d", width)
		}
	}
	return nil
}

// appendBits packs a bool slice LSB-first into bytes.
func appendBits(buf []byte, bits []bool) []byte {
	var b byte
	for i, v := range bits {
		if v {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, b)
			b = 0
		}
	}
	if len(bits)%8 != 0 {
		buf = append(buf, b)
	}
	return buf
}

// decoder is a bounds-checked little-endian reader; the first overrun
// sticks in err and every later read returns zero.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) bits(n int) []bool {
	b := d.take((n + 7) / 8)
	if b == nil {
		return make([]bool, n)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i/8]&(1<<(i%8)) != 0
	}
	return out
}

// snapshot builds a Checkpoint over the runner's live state (aliased, not
// copied — see the Checkpoint doc comment).
func (r *runner) snapshot() *Checkpoint {
	return &Checkpoint{
		NetHash:    r.u.Net.Hash(),
		NumFaults:  len(r.u.Faults),
		NumInputs:  len(r.u.Net.Inputs),
		Detected:   r.res.Detected,
		Untestable: r.res.Untestable,
		Aborted:    r.res.Aborted,
		Backtracks: r.res.Backtracks,
		Done:       r.done,
		Cubes:      r.res.Cubes,
		Patterns:   r.res.Patterns,
		FillState:  r.src.State(),
	}
}

// restore loads a checkpoint into a fresh runner: counters, done marks,
// cubes, patterns and fill-stream position are deep-copied in, and the
// pending (unswept) simulator lanes are rebuilt by replaying every
// committed pattern, sweeping whenever a batch fills. Patterns the
// interrupted run already swept re-detect only faults its checkpoint
// already marks Done (their sweep effects are part of the snapshot), so
// the replay is idempotent — and replaying everything keeps resume
// bit-identical even when this run's lane capacity (Options.LaneWords)
// differs from the producer's, where replaying only a modulo tail would
// silently drop unswept lanes.
func (r *runner) restore(cp *Checkpoint) error {
	if !cp.Matches(r.u) {
		return fmt.Errorf("atpg: checkpoint does not match universe (hash/faults/inputs)")
	}
	r.res.Detected = cp.Detected
	r.res.Untestable = cp.Untestable
	r.res.Aborted = cp.Aborted
	r.res.Backtracks = cp.Backtracks
	copy(r.done, cp.Done)
	for _, c := range cp.Cubes.Cubes {
		if err := r.res.Cubes.Add(c.Clone()); err != nil {
			return err
		}
	}
	r.res.Patterns = make([][]uint8, 0, len(cp.Patterns))
	for _, p := range cp.Patterns {
		r.res.Patterns = append(r.res.Patterns, append([]uint8(nil), p...))
	}
	r.src.SetState(cp.FillState)
	if !r.opt.FaultDrop {
		return nil
	}
	for _, p := range r.res.Patterns {
		if err := r.sims[0].AppendPattern(p); err != nil {
			return err
		}
		if r.sims[0].PatternCount() == r.capacity {
			if err := r.sweep(); err != nil {
				return err
			}
		}
	}
	return nil
}

// maybeCheckpoint emits a snapshot through Options.Checkpoint every
// CheckpointEvery commits. It runs on the committing goroutine right
// after a commit (and its sweep, if one fired), which is what makes the
// cut consistent.
func (r *runner) maybeCheckpoint() {
	if r.opt.Checkpoint == nil || r.opt.CheckpointEvery <= 0 {
		return
	}
	r.commits++
	if r.commits%r.opt.CheckpointEvery != 0 {
		return
	}
	r.opt.Checkpoint(r.snapshot())
}
