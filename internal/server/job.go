package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/benchprofile"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// Kind names a job type the daemon can run.
type Kind string

const (
	// KindEncode encodes a benchmark circuit's cube set at window length L
	// and (optionally) runs State Skip useful-segment reduction over it.
	KindEncode Kind = "encode"
	// KindATPG runs the PODEM + fault-drop flow over a gate-level core
	// (an inline .bench netlist or a generated random core).
	KindATPG Kind = "atpg"
	// KindCoverage fault-simulates pseudorandom patterns against a core
	// and reports the coverage fraction.
	KindCoverage Kind = "coverage"
)

// Request describes one job submission. Unused fields for a kind are
// ignored; zero values select documented defaults.
type Request struct {
	Kind Kind `json:"kind"`

	// Encode jobs.
	Circuit string `json:"circuit,omitempty"` // benchmark profile name (default s13207)
	L       int    `json:"L,omitempty"`       // window length (default 16)
	S       int    `json:"S,omitempty"`       // segment size; with K>0 runs State Skip reduction
	K       int    `json:"k,omitempty"`       // speedup factor

	// ATPG and coverage jobs: either an inline .bench netlist…
	Bench string `json:"bench,omitempty"`
	// …or a generated random core.
	Inputs  int    `json:"inputs,omitempty"`  // default 80
	Outputs int    `json:"outputs,omitempty"` // default 48
	Gates   int    `json:"gates,omitempty"`   // default 260
	Seed    uint64 `json:"seed,omitempty"`    // generation / fill / pattern seed (default 2008)

	Backtrack int    `json:"backtrack,omitempty"` // PODEM backtrack limit (0 = default)
	Backtrace string `json:"backtrace,omitempty"` // "scoap" (default) or "multi"
	Patterns  int    `json:"patterns,omitempty"`  // coverage: pseudorandom patterns (default 256)
	// LaneWords widens the fault simulator to 64×N pattern lanes per sweep
	// (0 = server default; when that is 0 too, the engine chooses: one
	// word for ATPG, up to 8 from the pattern count for coverage). Results
	// are bit-identical for any width; only throughput changes.
	LaneWords int `json:"lane_words,omitempty"`

	// TimeoutMS overrides the server's default per-job deadline in
	// milliseconds; negative disables the deadline for this job.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// IdempotencyKey makes resubmission safe: two submissions carrying the
	// same non-empty key return the same job, so a client that lost the
	// 202 to a crash or timeout can retry without duplicating work. Keys
	// survive restarts when the server runs with a journal.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

func (r *Request) validate() error {
	switch r.Kind {
	case KindEncode:
		if r.Circuit == "" {
			r.Circuit = "s13207"
		}
		if r.L == 0 {
			r.L = 16
		}
		if r.L < 1 {
			return fmt.Errorf("server: encode: window length %d must be ≥ 1", r.L)
		}
		if !slices.Contains(benchprofile.Names(), r.Circuit) {
			return fmt.Errorf("server: encode: unknown circuit %q (want one of %s)", r.Circuit, strings.Join(benchprofile.Names(), ", "))
		}
		if r.S < 0 || r.K < 0 {
			return fmt.Errorf("server: encode: S %d and k %d must not be negative", r.S, r.K)
		}
		if (r.S > 0) != (r.K > 0) {
			return fmt.Errorf("server: encode: S and k must be set together")
		}
		if r.S > r.L {
			return fmt.Errorf("server: encode: segment size S %d exceeds window length L %d", r.S, r.L)
		}
	case KindATPG, KindCoverage:
		if r.Bench == "" {
			if r.Inputs == 0 {
				r.Inputs = 80
			}
			if r.Outputs == 0 {
				r.Outputs = 48
			}
			if r.Gates == 0 {
				r.Gates = 260
			}
		}
		if r.Seed == 0 {
			r.Seed = 2008
		}
		if r.Backtrace == "" {
			r.Backtrace = "scoap"
		}
		if r.Kind == KindCoverage && r.Patterns == 0 {
			r.Patterns = 256
		}
		if r.LaneWords < 0 || r.LaneWords > faultsim.MaxLaneWords {
			return fmt.Errorf("server: lane_words %d out of range (want 0..%d)", r.LaneWords, faultsim.MaxLaneWords)
		}
	case "":
		return errors.New("server: missing job kind")
	default:
		return fmt.Errorf("server: unknown job kind %q", r.Kind)
	}
	return nil
}

// materializeCore parses or generates the request's netlist.
func (r *Request) materializeCore() (*netlist.Netlist, error) {
	if r.Bench != "" {
		return netlist.ReadBench(strings.NewReader(r.Bench))
	}
	return netlist.Random(netlist.RandomConfig{
		Inputs: r.Inputs, Outputs: r.Outputs, Gates: r.Gates, MaxFan: 3, Seed: r.Seed,
	})
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Typed job errors. ErrCanceled and ErrDeadline additionally wrap the
// underlying context error, so errors.Is works against both this package's
// sentinels and context.Canceled / context.DeadlineExceeded.
var (
	// ErrCanceled marks a job stopped by an explicit cancel or shutdown.
	ErrCanceled = errors.New("server: job canceled")
	// ErrDeadline marks a job stopped by its per-job deadline.
	ErrDeadline = errors.New("server: job deadline exceeded")
	// ErrQueueFull rejects a submission when the bounded queue has no
	// room; HTTP maps it to 503 with Retry-After.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("server: no such job")
	// ErrOverCap rejects a submission whose netlist (or generator
	// parameters) exceed the server's configured size caps; HTTP maps it
	// to 422.
	ErrOverCap = errors.New("server: netlist exceeds configured caps")
	// ErrNotReady rejects submissions while the server is still replaying
	// its journal; HTTP maps it to 503 with a short Retry-After.
	ErrNotReady = errors.New("server: not ready (journal replay in progress)")
	// ErrJournal wraps a failure to make an accepted job durable. The job
	// still runs, but the client must treat the submission as unacknowledged
	// and retry with the same idempotency key.
	ErrJournal = errors.New("server: journal append failed")
)

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline — the errors that mark a job canceled rather than failed.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func errorIsDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// Status is the externally visible snapshot of one job.
type Status struct {
	ID       string `json:"id"`
	Kind     Kind   `json:"kind"`
	State    State  `json:"state"`
	Attempts int    `json:"attempts"`
	// Error is set for failed/canceled jobs; panics include the captured
	// stack of the offending attempt.
	Error string `json:"error,omitempty"`
	// Partial marks a canceled/deadlined job that still produced a
	// partial-progress result (see Result).
	Partial bool `json:"partial,omitempty"`
	// Deduped marks a status returned for a resubmission that matched an
	// existing job's idempotency key (no new job was created).
	Deduped bool `json:"deduped,omitempty"`
	// Resumed marks a job that was re-enqueued from the journal after a
	// restart (for ATPG jobs, possibly continuing from a checkpoint).
	Resumed    bool       `json:"resumed,omitempty"`
	Submitted  time.Time  `json:"submitted"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	QueueDepth int        `json:"queue_depth,omitempty"` // jobs ahead at snapshot time (queued only)
}

// EncodeResult reports an encode job.
type EncodeResult struct {
	Circuit     string  `json:"circuit"`
	L           int     `json:"L"`
	Seeds       int     `json:"seeds"`
	TDV         int     `json:"tdv_bits"`
	TSL         int     `json:"tsl_vectors"`
	Checks      int64   `json:"consistency_checks"`
	S           int     `json:"S,omitempty"`
	K           int     `json:"k,omitempty"`
	ReducedTSL  int     `json:"reduced_tsl,omitempty"`
	Improvement float64 `json:"improvement,omitempty"`
}

// ATPGResult reports an ATPG job; on a canceled/deadlined job it carries
// the partial progress made before the stop (Partial=true in Status).
type ATPGResult struct {
	Inputs     int     `json:"inputs"`
	Outputs    int     `json:"outputs"`
	Gates      int     `json:"gates"`
	Faults     int     `json:"faults"`
	Detected   int     `json:"detected"`
	Untestable int     `json:"untestable"`
	Aborted    int     `json:"aborted"`
	Cubes      int     `json:"cubes"`
	Backtracks int     `json:"backtracks"`
	Coverage   float64 `json:"coverage"`
}

// CoverageResult reports a coverage job.
type CoverageResult struct {
	Faults   int     `json:"faults"`
	Detected int     `json:"detected"`
	Patterns int     `json:"patterns"`
	Coverage float64 `json:"coverage"`
}

// Result is a completed job's payload; exactly one field is set.
type Result struct {
	Encode   *EncodeResult   `json:"encode,omitempty"`
	ATPG     *ATPGResult     `json:"atpg,omitempty"`
	Coverage *CoverageResult `json:"coverage,omitempty"`
}

// job is the server-internal record of one submission. All mutable fields
// are guarded by the owning Server's mu; the context pair is written once
// at submit time and safe to read without the lock.
type job struct {
	id     string
	seq    uint64
	req    Request
	ctx    context.Context
	cancel context.CancelFunc
	// key is the request's idempotency key; resumed/resumeCkpt are set
	// during journal replay. All three are written once before the job
	// becomes visible to other goroutines and read-only afterwards.
	key        string
	resumed    bool
	resumeCkpt []byte

	state     State      // guarded by mu
	attempts  int        // guarded by mu
	err       error      // guarded by mu
	partial   bool       // guarded by mu
	result    *Result    // guarded by mu
	submitted time.Time  // guarded by mu
	started   *time.Time // guarded by mu
	finished  *time.Time // guarded by mu
}

// statusLocked snapshots the job; the caller holds the server's mu.
func (j *job) statusLocked() *Status {
	st := &Status{
		ID:        j.id,
		Kind:      j.req.Kind,
		State:     j.state,
		Attempts:  j.attempts,
		Partial:   j.partial,
		Resumed:   j.resumed,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
