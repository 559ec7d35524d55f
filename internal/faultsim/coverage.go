package faultsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes CoverageCtx and the simulator pools the ATPG drop loop
// builds.
type Options struct {
	// Workers is the number of goroutines a fault sweep is spread across,
	// each with its own Simulator scratch state. 0 or negative
	// means runtime.NumCPU(). Results are bit-identical for any value.
	Workers int
	// LaneWords widens every simulator to that many 64-bit words of
	// pattern lanes, so each sweep covers up to 64×LaneWords patterns
	// (256/512 at 4/8). 0 or negative selects the single-word engine.
	// Results are bit-identical for any value — only the batch cadence
	// changes.
	LaneWords int
}

// WorkerCount resolves the Workers field to an effective pool size.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// LaneWordCount resolves the LaneWords field to an effective lane width.
func (o Options) LaneWordCount() int {
	if o.LaneWords > 0 {
		return o.LaneWords
	}
	return 1
}

// PoolSize is WorkerCount clamped to the fault universe being swept:
// never more workers than faults, never fewer than one.
func (o Options) PoolSize(numFaults int) int {
	w := o.WorkerCount()
	if w > numFaults {
		w = numFaults
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CoverageCtx runs every fault of the universe against the given fully
// specified patterns and returns per-fault detection plus the coverage
// fraction. Patterns are batched 64×LaneWords at a time, and each batch is
// swept over the universe by DetectAllCtx across a pool of Workers
// simulators. The result is bit-identical for any Workers and any
// LaneWords.
//
// The context is polled between pattern batches and once per fault chunk
// inside every sweep, so a cancel or deadline stops the pool within
// microseconds. A cancelled run returns a nil detected slice and an error
// wrapping context.Canceled or context.DeadlineExceeded.
func CoverageCtx(ctx context.Context, u *Universe, patterns [][]uint8, opt Options) (detected []bool, coverage float64, err error) {
	sims, err := NewSimulatorPoolLanes(u, opt.PoolSize(len(u.Faults)), opt.LaneWordCount())
	if err != nil {
		return nil, 0, err
	}
	detected = make([]bool, len(u.Faults))
	batch := sims[0].Capacity()
	for start := 0; start < len(patterns); start += batch {
		end := min(start+batch, len(patterns))
		if err := sims[0].LoadPatterns(patterns[start:end]); err != nil {
			return nil, 0, err
		}
		for _, sim := range sims[1:] {
			sim.AdoptPatterns(sims[0])
		}
		if _, err := DetectAllCtx(ctx, sims, u.Faults, detected); err != nil {
			return nil, 0, fmt.Errorf("faultsim: coverage stopped at pattern %d/%d: %w", start, len(patterns), err)
		}
	}
	nd := 0
	for _, d := range detected {
		if d {
			nd++
		}
	}
	if len(u.Faults) > 0 {
		coverage = float64(nd) / float64(len(u.Faults))
	}
	return detected, coverage, nil
}

// NewSimulatorPoolLanes builds n simulators of the given lane width over
// one universe (see NewSimulatorLanes). The shared topology is computed
// once, so the per-simulator cost is only the scratch arenas.
func NewSimulatorPoolLanes(u *Universe, n, laneWords int) ([]*Simulator, error) {
	sims := make([]*Simulator, n)
	for i := range sims {
		sim, err := NewSimulatorLanes(u, laneWords)
		if err != nil {
			return nil, err
		}
		sims[i] = sim
	}
	return sims, nil
}

// sweepChunk is how many consecutive faults a sweep worker claims at a
// time. The context is polled once per chunk: one DetectAny costs at least
// a microsecond, so 256 faults bound cancellation latency well below a
// millisecond while the amortized poll and claim cost is unmeasurable.
const sweepChunk = 256

// DetectAllCtx sweeps faults against the patterns loaded in the simulator
// pool and marks newly detected ones in detected (indexed like faults;
// entries already true are skipped, the standard fault-drop rule). Every
// simulator must have the same patterns loaded. Workers claim disjoint
// sweepChunk-sized index ranges from an atomic counter, one simulator each
// (inline when the pool has one simulator), so the writes never race and
// the marking does not depend on scheduling. It returns the number of
// faults newly marked.
//
// On cancellation the detected slice holds a valid partial marking (every
// true entry is genuinely detected) and the error wraps context.Canceled
// or context.DeadlineExceeded.
func DetectAllCtx(ctx context.Context, sims []*Simulator, faults []Fault, detected []bool) (int, error) {
	var next atomic.Int64
	counts := make([]int, len(sims))
	work := func(w int) {
		sim, n := sims[w], 0
		for {
			start := int(next.Add(sweepChunk)) - sweepChunk
			if start >= len(faults) || ctx.Err() != nil {
				break
			}
			end := min(start+sweepChunk, len(faults))
			for fi := start; fi < end; fi++ {
				if !detected[fi] && sim.DetectAny(faults[fi]) {
					detected[fi] = true
					n++
				}
			}
		}
		counts[w] = n
	}
	if len(sims) == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := range sims {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, ctx.Err()
}
