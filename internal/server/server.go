// Package server implements stateskipd's job service: a bounded-queue,
// worker-pool daemon running the repository's encode / ATPG / coverage
// flows over one shared experiments.Session. Jobs are submitted, polled,
// fetched and cancelled over HTTP (see Handler); every job runs under its
// own context with a per-job deadline, cooperative cancellation threaded
// through the engines, retry with exponential backoff and jitter, and
// per-attempt panic recovery that fails only the offending job.
//
// The package sits outside the deterministic pipeline boundary (see
// ARCHITECTURE.md): it may read wall clocks and schedule freely, because
// everything it runs goes through the pipeline packages, whose results
// are bit-identical regardless of timing.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/benchprofile"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/journal"
	"repro/internal/lru"
	"repro/internal/netlist"
	"repro/internal/prng"
	"repro/internal/stateskip"
)

// Stage names a job-lifecycle boundary where the chaos hook fires.
type Stage string

const (
	// StageDequeue fires when a worker picks a job off the queue.
	StageDequeue Stage = "dequeue"
	// StageAttempt fires at the start of every run attempt.
	StageAttempt Stage = "attempt"
	// StageFinish fires after a job reaches a terminal state.
	StageFinish Stage = "finish"
)

// Hook is a fault-injection point for the chaos tests: it may return an
// error (fails the attempt, subject to retry), panic (exercises panic
// recovery), or block on the context (exercises deadlines and shutdown).
// A nil hook is never called. Hooks run on worker goroutines and must be
// safe for concurrent use.
type Hook func(ctx context.Context, jobID string, stage Stage) error

// Config tunes a Server. The zero value is usable: CI scale, one job
// worker per CPU, a 64-entry queue, no default deadline, no retries.
type Config struct {
	// Scale selects the benchmark profile scale (CI or paper).
	Scale benchprofile.Scale
	// JobWorkers is the number of jobs run concurrently (0 = 2).
	JobWorkers int
	// EngineWorkers bounds each job's internal parallelism
	// (experiments.Session.Workers); 0 = all CPUs.
	EngineWorkers int
	// LaneWords is the default fault-simulator lane width in 64-bit words
	// (experiments.Session.LaneWords); requests override it per job via
	// lane_words. 0 = single-word; results are bit-identical for any width.
	// New rejects values outside 0..faultsim.MaxLaneWords.
	LaneWords int
	// QueueSize bounds the backlog of queued jobs (0 = 64). A full queue
	// rejects submissions with ErrQueueFull (HTTP 503 + Retry-After).
	QueueSize int
	// DefaultTimeout is the per-job deadline applied when a request does
	// not set TimeoutMS (0 = none).
	DefaultTimeout time.Duration
	// MaxRetries is how many times a failed (non-context) attempt is
	// retried before the job fails.
	MaxRetries int
	// Backoff shapes the delay between retries.
	Backoff Backoff
	// RetrySeed keys the deterministic jitter stream; each job derives
	// its own stream from RetrySeed and its sequence number.
	RetrySeed uint64
	// Sleeper performs the backoff delays (nil = real timers). Tests
	// inject a recording Sleeper to assert exact schedules.
	Sleeper Sleeper
	// Clock supplies job timestamps (nil = time.Now). Tests inject a
	// fixed clock for deterministic Status assertions.
	Clock func() time.Time
	// MaxCores bounds the content-addressed netlist cache (0 = 128).
	MaxCores int
	// MaxCached bounds the session's artefact memo maps
	// (experiments.Session.SetMaxCached); 0 leaves them unbounded.
	MaxCached int
	// Hook is the chaos-test fault-injection point; nil in production.
	Hook Hook

	// JournalDir enables the durable job journal: every acknowledged
	// submission is fsynced there before the 202, and New replays the
	// directory on startup, re-enqueueing interrupted jobs. Empty disables
	// journaling (the pre-journal in-memory behaviour, bit-identical
	// results).
	JournalDir string
	// JournalOptions tunes the underlying write-ahead log (tests set
	// NoSync to keep fsync out of hot loops).
	JournalOptions journal.Options
	// CheckpointEvery is the ATPG checkpoint cadence in committed faults
	// (0 = 25). Only meaningful with a journal.
	CheckpointEvery int
	// MaxBodyBytes caps POST /jobs request bodies (0 = 8 MiB); larger
	// bodies get a typed 413.
	MaxBodyBytes int64
	// MaxGates / MaxInputs / MaxLevels cap client-supplied netlists,
	// enforced at admission after parse and before any table build
	// (0 = unlimited). Violations return ErrOverCap (HTTP 422).
	MaxGates  int
	MaxInputs int
	MaxLevels int
}

func (c *Config) fill() {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Sleeper == nil {
		c.Sleeper = realSleeper{}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.MaxCores <= 0 {
		c.MaxCores = 128
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
}

// Server is the stateskipd job service. Construct with New, serve its
// Handler, and stop it with Shutdown.
type Server struct {
	cfg     Config
	session *experiments.Session

	// baseCtx parents every job context; baseCancel is the hard-stop
	// lever Shutdown pulls when the drain deadline passes.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// journal is the durable job log (nil when Config.JournalDir is
	// empty). Set once in New; safe to read without the lock. journalOnce
	// guards the compact-and-close at shutdown.
	journal     *journal.Journal
	journalOnce sync.Once

	mu   sync.Mutex
	jobs map[string]*job // guarded by mu
	// queue carries accepted jobs to the workers. Channel operations are
	// self-synchronized, so receives take no lock; sends and the close in
	// Shutdown happen under mu so a Submit can never race the close.
	queue    chan *job
	draining bool                                 // guarded by mu
	ready    bool                                 // guarded by mu; false until journal replay finishes
	nextSeq  uint64                               // guarded by mu
	idem     map[string]string                    // guarded by mu; idempotency key → job ID
	cores    *lru.Cache[uint64, *netlist.Netlist] // guarded by mu; content-addressed by netlist.Hash

	wg      sync.WaitGroup
	started time.Time

	metrics struct {
		submitted, rejected    atomic.Int64
		done, failed, canceled atomic.Int64
		retries, panics        atomic.Int64
		replayed, checkpoints  atomic.Int64
		resumed, shed          atomic.Int64
	}
}

// New starts a Server with cfg.JobWorkers worker goroutines. When
// cfg.JournalDir is set it opens (creating if needed) the durable job
// journal there, replays it, re-enqueues every job that was acknowledged
// but not yet terminal when the previous process died, and compacts the
// log — then starts accepting work. The caller must eventually call
// Shutdown (or Close) to stop the workers and close the journal.
func New(cfg Config) (*Server, error) {
	if cfg.LaneWords < 0 || cfg.LaneWords > faultsim.MaxLaneWords {
		return nil, fmt.Errorf("server: Config.LaneWords %d out of range (want 0..%d)", cfg.LaneWords, faultsim.MaxLaneWords)
	}
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		session:    experiments.NewSession(cfg.Scale),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		idem:       make(map[string]string),
		cores:      lru.New[uint64, *netlist.Netlist](cfg.MaxCores),
		started:    cfg.Clock(),
	}
	s.session.Workers = cfg.EngineWorkers
	s.session.LaneWords = cfg.LaneWords
	if cfg.MaxCached > 0 {
		s.session.SetMaxCached(cfg.MaxCached)
		s.session.EncTables.SetMax(cfg.MaxCached)
	}

	var requeue []*job
	if cfg.JournalDir != "" {
		jn, recs, err := journal.Open(cfg.JournalDir, cfg.JournalOptions)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("server: opening journal: %w", err)
		}
		s.journal = jn
		requeue, err = s.replay(recs)
		if err != nil {
			jn.Close() //nolint:errcheck // the replay error is the one that matters
			cancel()
			return nil, err
		}
	}

	// The queue must hold every interrupted job on top of the configured
	// backlog, or a journal fuller than QueueSize would deadlock startup.
	s.mu.Lock()
	s.queue = make(chan *job, cfg.QueueSize+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	s.ready = true
	s.mu.Unlock()

	if s.journal != nil {
		// Startup is the one moment compaction is trivially safe: no
		// workers are running, so no appends race the rewrite.
		live, err := s.liveRecords()
		if err == nil {
			err = s.journal.Compact(live)
		}
		if err != nil {
			s.journal.Close() //nolint:errcheck
			cancel()
			return nil, fmt.Errorf("server: compacting journal: %w", err)
		}
	}

	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay folds the journal's record stream back into the job table:
// terminal jobs are restored as finished history (their results survive
// the crash), interrupted-but-acknowledged jobs are returned for
// re-enqueueing, and unacknowledged non-terminal records are dropped.
func (s *Server) replay(recs []journal.Record) ([]*job, error) {
	rjobs, err := replayRecords(recs)
	if err != nil {
		return nil, err
	}
	// No workers exist yet, but the guarded fields keep their invariant:
	// all writes happen under mu.
	s.mu.Lock()
	defer s.mu.Unlock()
	var requeue []*job
	for _, rj := range rjobs {
		if rj.terminal == nil && !rj.hasSubmit {
			// The client never received a 202 for this job; recreating it
			// would violate at-most-once. Its records die with the compact.
			continue
		}
		jctx, cancel := context.WithCancel(s.baseCtx)
		j := &job{
			id:        rj.id,
			seq:       rj.seq,
			req:       rj.req,
			key:       rj.key,
			ctx:       jctx,
			cancel:    cancel,
			attempts:  rj.attempts,
			submitted: rj.submitted,
		}
		if rj.terminal != nil {
			tr := rj.terminal
			j.state = tr.State
			j.partial = tr.Partial
			j.result = tr.Result
			if tr.Error != "" {
				j.err = errors.New(tr.Error)
			}
			fin := tr.Finished
			j.finished = &fin
			cancel()
		} else {
			j.state = StateQueued
			j.resumed = true
			j.resumeCkpt = rj.checkpoint
			requeue = append(requeue, j)
			s.metrics.replayed.Add(1)
		}
		s.jobs[j.id] = j
		if j.key != "" {
			s.idem[j.key] = j.id
		}
		if rj.seq > s.nextSeq {
			s.nextSeq = rj.seq
		}
	}
	return requeue, nil
}

// Journal exposes the underlying journal (nil when disabled). The crash
// tests use it to sever the log underneath a live server, simulating a
// dying disk or a SIGKILL between append and ack.
func (s *Server) Journal() *journal.Journal { return s.journal }

// Session exposes the shared session for tests and metrics.
func (s *Server) Session() *experiments.Session { return s.session }

func (s *Server) now() time.Time { return s.cfg.Clock() }

// Submit validates a request, enforces the untrusted-input caps, and
// enqueues a job, returning its initial status. A full queue returns
// ErrQueueFull; a draining server ErrDraining; a replaying one
// ErrNotReady. A request whose IdempotencyKey matches an existing job
// returns that job's status with Deduped set instead of creating a new
// one. With a journal, the 202 contract holds: a nil error means the
// submission is durable; ErrJournal means the job was accepted in memory
// but durability failed, and the client should retry with the same key.
func (s *Server) Submit(req Request) (*Status, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	core, err := s.admitCore(&req)
	if err != nil {
		s.metrics.rejected.Add(1)
		return nil, err
	}
	var coreHash uint64
	if core != nil {
		coreHash = core.Hash()
	}
	s.mu.Lock()
	if !s.ready {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		s.metrics.shed.Add(1)
		return nil, ErrNotReady
	}
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		s.metrics.shed.Add(1)
		return nil, ErrDraining
	}
	if req.IdempotencyKey != "" {
		if id, ok := s.idem[req.IdempotencyKey]; ok {
			if j, ok := s.jobs[id]; ok {
				st := j.statusLocked()
				st.Deduped = true
				s.mu.Unlock()
				return st, nil
			}
		}
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		s.metrics.shed.Add(1)
		return nil, ErrQueueFull
	}
	if core != nil {
		// Seed the content-addressed cache with the already-parsed core so
		// the worker never re-parses what admission just validated.
		s.cores.Add(coreHash, core)
	}
	s.nextSeq++
	jctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:        fmt.Sprintf("j%06d", s.nextSeq),
		seq:       s.nextSeq,
		req:       req,
		key:       req.IdempotencyKey,
		ctx:       jctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: s.now(),
	}
	s.jobs[j.id] = j
	if j.key != "" {
		s.idem[j.key] = j.id
	}
	// Cannot block: len < cap was verified above and sends only happen
	// under mu.
	s.queue <- j
	st := j.statusLocked()
	st.QueueDepth = len(s.queue)
	s.mu.Unlock()
	s.metrics.submitted.Add(1)
	if err := s.journalSubmit(j); err != nil {
		return st, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return st, nil
}

// admitCore is the admission-control gate for client-supplied circuits:
// parse (typed .bench errors surface as 400s), then enforce the size caps
// before any table build can amplify the input. Generated-core requests
// are cap-checked on their parameters without generating. Returns the
// parsed netlist for bench requests so Submit can seed the core cache.
func (s *Server) admitCore(req *Request) (*netlist.Netlist, error) {
	switch req.Kind {
	case KindATPG, KindCoverage:
	default:
		return nil, nil // encode jobs name baked-in benchmark profiles
	}
	if req.Bench == "" {
		return nil, s.checkCaps(req.Gates, req.Inputs, 0)
	}
	core, err := netlist.ReadBench(strings.NewReader(req.Bench))
	if err != nil {
		return nil, err
	}
	st, err := core.Summary()
	if err != nil {
		return nil, err
	}
	if err := s.checkCaps(st.Gates, st.Inputs, st.Levels); err != nil {
		return nil, err
	}
	return core, nil
}

func (s *Server) checkCaps(gates, inputs, levels int) error {
	if s.cfg.MaxGates > 0 && gates > s.cfg.MaxGates {
		return fmt.Errorf("%w: %d gates > %d", ErrOverCap, gates, s.cfg.MaxGates)
	}
	if s.cfg.MaxInputs > 0 && inputs > s.cfg.MaxInputs {
		return fmt.Errorf("%w: %d inputs > %d", ErrOverCap, inputs, s.cfg.MaxInputs)
	}
	if s.cfg.MaxLevels > 0 && levels > s.cfg.MaxLevels {
		return fmt.Errorf("%w: %d levels > %d", ErrOverCap, levels, s.cfg.MaxLevels)
	}
	return nil
}

// Status snapshots one job.
func (s *Server) Status(id string) (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.statusLocked(), nil
}

// Result returns a terminal job's result and status. For a job that is
// still queued or running it returns the status and a nil Result, so
// callers can distinguish "not done yet" from "done without payload".
func (s *Server) Result(id string) (*Result, *Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	return j.result, j.statusLocked(), nil
}

// Cancel stops a job: a queued job is finalised immediately (the worker
// later skips its carcass), a running one has its context cancelled and
// finalises itself within the engines' cancellation latency. Cancelling a
// terminal job is a no-op returning its final status.
func (s *Server) Cancel(id string) (*Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	canceledNow := false
	if j.state == StateQueued {
		now := s.now()
		j.state = StateCanceled
		j.err = fmt.Errorf("%w: canceled while queued", ErrCanceled)
		j.finished = &now
		s.metrics.canceled.Add(1)
		canceledNow = true
	}
	st := j.statusLocked()
	var fin time.Time
	if j.finished != nil {
		fin = *j.finished
	}
	s.mu.Unlock()
	if canceledNow {
		// Durably record the queued-job cancel so a restart replays it as
		// terminal instead of resurrecting and re-running it.
		s.journalTerminal(j, StateCanceled, st.Error, false, fin, nil)
	}
	j.cancel()
	return st, nil
}

// Jobs lists every job's status, newest first.
func (s *Server) Jobs() []*Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.statusLocked())
	}
	for i := 0; i < len(out); i++ { // insertion sort by ID desc (IDs are zero-padded)
		for k := i; k > 0 && out[k].ID > out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Shutdown gracefully stops the server: new submissions are rejected with
// ErrDraining, queued and running jobs drain normally until ctx fires,
// then every outstanding job is cancelled and Shutdown waits for the
// workers to observe it. Returns nil on a clean drain, otherwise ctx's
// error. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Clean drain: every job is terminal, so the journal compacts to
		// its minimal history before closing.
		s.closeJournal(true)
		return nil
	case <-ctx.Done():
		// Drain deadline passed: hard-cancel everything still in flight.
		// The engines poll their contexts cooperatively, so the workers
		// exit within microseconds of this. No compaction — interrupted
		// jobs keep their checkpoints for the next replay.
		s.baseCancel()
		<-done
		s.closeJournal(false)
		return ctx.Err()
	}
}

// Close is Shutdown with an immediate drain deadline: cancel everything
// and wait for the workers.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx) //nolint:errcheck // the forced-drain error is expected here
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) hook(ctx context.Context, id string, stage Stage) error {
	if s.cfg.Hook == nil {
		return nil
	}
	return s.cfg.Hook(ctx, id, stage)
}

// runJob drives one job through its attempt/retry loop and finalises it.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	now := s.now()
	j.state = StateRunning
	j.started = &now
	// Attempts survive restarts: a replayed job resumes its count rather
	// than restarting at 1.
	baseAttempts := j.attempts
	s.mu.Unlock()
	s.journalAdvisory(journal.OpStarted, j.id, nil)

	ctx := j.ctx
	timeout := s.cfg.DefaultTimeout
	if j.req.TimeoutMS != 0 {
		timeout = time.Duration(j.req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	if err := s.hook(ctx, j.id, StageDequeue); err != nil {
		s.finalize(j, nil, err)
		return
	}

	rnd := prng.New(s.cfg.RetrySeed ^ j.seq)
	var res *Result
	var err error
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		j.attempts = baseAttempts + attempt + 1
		s.mu.Unlock()
		s.journalAttempt(j.id, baseAttempts+attempt)
		res, err = s.attempt(ctx, j, attempt)
		if err == nil || ctx.Err() != nil || attempt >= s.cfg.MaxRetries {
			break
		}
		s.metrics.retries.Add(1)
		if serr := s.cfg.Sleeper.Sleep(ctx, s.cfg.Backoff.Delay(attempt, rnd)); serr != nil {
			err = serr
			break
		}
	}
	s.finalize(j, res, err)
}

// finalize records a job's terminal state, translating context errors into
// the package's typed sentinels.
func (s *Server) finalize(j *job, res *Result, err error) {
	s.mu.Lock()
	now := s.now()
	j.finished = &now
	j.result = res
	switch {
	case err == nil:
		j.state = StateDone
		s.metrics.done.Add(1)
	case isCtxErr(err):
		j.state = StateCanceled
		j.partial = res != nil
		sentinel := ErrCanceled
		if errorIsDeadline(err) {
			sentinel = ErrDeadline
		}
		j.err = fmt.Errorf("%w: %w", sentinel, err)
		s.metrics.canceled.Add(1)
	default:
		j.state = StateFailed
		j.err = err
		s.metrics.failed.Add(1)
	}
	state := j.state
	partial := j.partial
	var errText string
	if j.err != nil {
		errText = j.err.Error()
	}
	s.mu.Unlock()
	s.journalTerminal(j, state, errText, partial, now, res)
	j.cancel()
	s.hook(context.Background(), j.id, StageFinish) //nolint:errcheck // finish hooks are observational
}

// attempt runs one try of a job with panic containment: a panicking
// attempt fails only this job, with the stack captured into its error.
func (s *Server) attempt(ctx context.Context, j *job, attempt int) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			err = fmt.Errorf("server: job %s attempt %d panicked: %v\n%s", j.id, attempt, r, debug.Stack())
		}
	}()
	if err := s.hook(ctx, j.id, StageAttempt); err != nil {
		return nil, err
	}
	switch j.req.Kind {
	case KindEncode:
		return s.runEncode(ctx, &j.req)
	case KindATPG:
		return s.runATPG(ctx, j)
	case KindCoverage:
		return s.runCoverage(ctx, &j.req)
	}
	return nil, fmt.Errorf("server: unknown job kind %q", j.req.Kind)
}

func (s *Server) runEncode(ctx context.Context, req *Request) (*Result, error) {
	enc, err := s.session.EncodingCtx(ctx, req.Circuit, req.L)
	if err != nil {
		return nil, err
	}
	r := &EncodeResult{
		Circuit: req.Circuit, L: req.L,
		Seeds: len(enc.Seeds), TDV: enc.TDV(), TSL: enc.TSL(),
		Checks: enc.ChecksPerformed,
	}
	if req.S > 0 && req.K > 0 {
		idx, err := s.session.IndexCtx(ctx, req.Circuit, req.L)
		if err != nil {
			return nil, err
		}
		opt := stateskip.DefaultOptions(req.S, req.K)
		opt.Workers = s.cfg.EngineWorkers
		red, err := stateskip.ReduceWithIndex(enc, idx, opt)
		if err != nil {
			return nil, err
		}
		r.S, r.K = req.S, req.K
		r.ReducedTSL = red.TSL()
		r.Improvement = red.Improvement()
	}
	return &Result{Encode: r}, nil
}

// coreFor materialises the request's netlist through the content-addressed
// cache: two requests describing the same circuit — byte-identical bench
// text or the same generator parameters — share one *Netlist, so the
// session's per-netlist ATPG tables are levelized once across tenants.
func (s *Server) coreFor(req *Request) (*netlist.Netlist, error) {
	core, err := req.materializeCore()
	if err != nil {
		return nil, err
	}
	h := core.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.cores.Get(h); ok {
		return cached, nil
	}
	s.cores.Add(h, core)
	return core, nil
}

func (s *Server) runATPG(ctx context.Context, j *job) (*Result, error) {
	req := &j.req
	strategy, ok := atpg.ParseBacktrace(req.Backtrace)
	if !ok {
		return nil, fmt.Errorf("server: unknown backtrace %q (want scoap or multi)", req.Backtrace)
	}
	core, err := s.coreFor(req)
	if err != nil {
		return nil, err
	}
	st, err := core.Summary()
	if err != nil {
		return nil, err
	}
	opt := atpg.Options{
		FaultDrop: true, FillSeed: req.Seed,
		BacktrackLimit: req.Backtrack, Backtrace: strategy,
		// 0 lets the session inject the server-wide Config.LaneWords default.
		LaneWords: req.LaneWords,
	}
	if s.journal != nil {
		// Periodic checkpoints ride the buffered journal path; losing the
		// latest one in a crash only costs re-deriving a few faults.
		id := j.id
		opt.CheckpointEvery = s.cfg.CheckpointEvery
		opt.Checkpoint = func(cp *atpg.Checkpoint) {
			b, err := cp.MarshalBinary()
			if err != nil {
				return
			}
			if s.journal.Append(journal.Record{Op: journal.OpCheckpoint, ID: id, Data: b}) == nil {
				s.metrics.checkpoints.Add(1)
			}
		}
	}
	if len(j.resumeCkpt) > 0 {
		// Resume from the replayed checkpoint when it provably belongs to
		// this circuit; anything suspect falls back to a fresh run — the
		// engines are deterministic, so the result is identical either way,
		// just slower.
		var cp atpg.Checkpoint
		if err := cp.UnmarshalBinary(j.resumeCkpt); err == nil &&
			cp.NetHash == core.Hash() && cp.NumInputs == len(core.Inputs) {
			opt.Resume = &cp
			s.metrics.resumed.Add(1)
		}
	}
	u, res, err := s.session.ATPGOptsCtx(ctx, core, opt)
	if err != nil {
		if res != nil { // partial progress from a cancelled/deadlined run
			return &Result{ATPG: atpgResult(st, u, res)}, err
		}
		return nil, err
	}
	return &Result{ATPG: atpgResult(st, u, res)}, nil
}

func atpgResult(st netlist.Stats, u *faultsim.Universe, res *atpg.Result) *ATPGResult {
	return &ATPGResult{
		Inputs: st.Inputs, Outputs: st.Outputs, Gates: st.Gates,
		Faults: len(u.Faults), Detected: res.Detected,
		Untestable: res.Untestable, Aborted: res.Aborted,
		Cubes: res.Cubes.Len(), Backtracks: res.Backtracks,
		Coverage: res.Coverage,
	}
}

func (s *Server) runCoverage(ctx context.Context, req *Request) (*Result, error) {
	core, err := s.coreFor(req)
	if err != nil {
		return nil, err
	}
	u := faultsim.NewUniverse(core)
	rnd := prng.New(req.Seed)
	patterns := make([][]uint8, req.Patterns)
	for i := range patterns {
		p := make([]uint8, len(core.Inputs))
		for b := range p {
			p[b] = rnd.Bit()
		}
		patterns[i] = p
	}
	lanes := req.LaneWords
	if lanes == 0 {
		lanes = s.cfg.LaneWords
	}
	detected, cov, err := faultsim.CoverageCtx(ctx, u, patterns, faultsim.Options{Workers: s.cfg.EngineWorkers, LaneWords: lanes})
	if err != nil {
		return nil, err
	}
	nd := 0
	for _, d := range detected {
		if d {
			nd++
		}
	}
	return &Result{Coverage: &CoverageResult{
		Faults: len(u.Faults), Detected: nd,
		Patterns: req.Patterns, Coverage: cov,
	}}, nil
}
