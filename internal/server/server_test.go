package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/prng"
)

// newTest constructs a Server, failing the test on a startup error
// (journal-less configs never produce one).
func newTest(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// waitState polls a job until it reaches one of the wanted states.
func waitState(t *testing.T, s *Server, id string, states ...State) *Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		for _, want := range states {
			if st.State == want {
				return st
			}
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("job %s never reached %v; last status %+v", id, states, st)
	return nil
}

// jobErr reads a job's terminal error (white-box, for typed assertions).
func jobErr(s *Server, id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.err
	}
	return nil
}

// recordSleeper captures every backoff delay instead of sleeping.
type recordSleeper struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *recordSleeper) Sleep(ctx context.Context, d time.Duration) error {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
	return ctx.Err()
}

func (r *recordSleeper) recorded() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.delays...)
}

func TestEncodeJobLifecycle(t *testing.T) {
	s := newTest(t, Config{JobWorkers: 1})
	defer s.Close()
	st, err := s.Submit(Request{Kind: KindEncode, Circuit: "s13207", L: 8, S: 4, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("initial state = %s, want queued", st.State)
	}
	final := waitState(t, s, st.ID, StateDone, StateFailed)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	res, _, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Encode == nil {
		t.Fatal("missing encode result")
	}
	if res.Encode.Seeds == 0 || res.Encode.TSL == 0 {
		t.Fatalf("degenerate encode result: %+v", res.Encode)
	}
	if res.Encode.ReducedTSL == 0 || res.Encode.ReducedTSL > res.Encode.TSL {
		t.Fatalf("reduction did not shorten TSL: %+v", res.Encode)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := newTest(t, Config{JobWorkers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Request{Kind: KindATPG, Gates: 260})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitState(t, s, st.ID, StateDone, StateFailed)
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %d, want 200", resp.StatusCode)
	}
	var rr resultResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status.State != StateDone {
		t.Fatalf("job state %s: %s", rr.Status.State, rr.Status.Error)
	}
	if rr.Result == nil || rr.Result.ATPG == nil || rr.Result.ATPG.Coverage <= 0 {
		t.Fatalf("degenerate ATPG result: %+v", rr.Result)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs.Submitted != 1 || m.Jobs.Done != 1 {
		t.Fatalf("metrics: %+v", m.Jobs)
	}

	if resp, err = http.Get(ts.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestMetricsEncTableBuilds checks that /metrics enc_table_builds
// reports the session's encoder table builds: one per phase-shifter
// variant the encode job tried. CI s38584 at L = 24 settles on variant 1.
func TestMetricsEncTableBuilds(t *testing.T) {
	s := newTest(t, Config{JobWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit(Request{Kind: KindEncode, Circuit: "s38584", L: 24, S: 4, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, s, st.ID, StateDone, StateFailed); final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Session map[string]any `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	got := m.Session["enc_table_builds"]
	if got != 2.0 || s.session.Stats().EncTableBuilds != 2 {
		t.Fatalf("enc_table_builds = %v, session %d, want 2 (variants 0 and 1)", got, s.session.Stats().EncTableBuilds)
	}
	if _, ok := m.Session["enc_table_cached"]; ok {
		t.Fatal("/metrics still reports enc_table_cached")
	}
}

// TestQueueBackpressure fills the bounded queue behind a stalled worker
// and asserts the typed rejection plus the HTTP 503 + Retry-After
// contract.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	s := newTest(t, Config{
		JobWorkers: 1,
		QueueSize:  1,
		Hook: func(ctx context.Context, id string, stage Stage) error {
			if stage != StageAttempt {
				return nil
			}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	defer s.Close()

	first, err := s.Submit(Request{Kind: KindEncode, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning)
	if _, err := s.Submit(Request{Kind: KindEncode, L: 6}); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	if _, err := s.Submit(Request{Kind: KindEncode, L: 8}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(Request{Kind: KindEncode, L: 10})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue POST = %d, want 503", resp.StatusCode)
	}
	// One job queued behind one worker: Retry-After must reflect the
	// backlog (1s grace + depth/workers), not a hardcoded constant.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs != 2 {
		t.Fatalf("Retry-After = %q, want 2 (1 + depth 1 / workers 1)", ra)
	}
	close(release)
}

// TestDrainingSubmitNoRetryAfter asserts the other half of the 503
// contract: a draining server rejects submissions without any Retry-After
// header — shutdown is not transient, clients should fail over rather
// than retry against a dying endpoint — while a full queue (above) does
// advertise a wait.
func TestDrainingSubmitNoRetryAfter(t *testing.T) {
	release := make(chan struct{})
	s := newTest(t, Config{
		JobWorkers: 1,
		Hook: func(ctx context.Context, id string, stage Stage) error {
			if stage != StageAttempt {
				return nil
			}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	st, err := s.Submit(Request{Kind: KindEncode, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() { shutdownDone <- s.Shutdown(ctx) }()
	// Wait for the drain flag: submissions flip from ErrQueueFull-style
	// acceptance to ErrDraining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Submit(Request{Kind: KindEncode, L: 6}); errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(Request{Kind: KindEncode, L: 8})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("draining 503 carries Retry-After %q, want none", ra)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(envelope.Error, "draining") {
		t.Fatalf("draining 503 body %q does not name the reason", envelope.Error)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestCancelRunningJob cancels an in-flight ATPG job and requires the
// typed ErrCanceled, partial progress, and terminal state within the
// 100ms cancellation budget.
func TestCancelRunningJob(t *testing.T) {
	s := newTest(t, Config{JobWorkers: 1})
	defer s.Close()
	st, err := s.Submit(Request{Kind: KindATPG, Gates: 4000, Inputs: 120, Outputs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if pre := waitState(t, s, st.ID, StateRunning, StateDone); pre.State == StateDone {
		t.Skip("job finished before it could be cancelled; nothing to assert")
	}
	t0 := time.Now()
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateCanceled, StateDone, StateFailed)
	lat := time.Since(t0)
	if final.State == StateDone {
		return // finished before the cancel landed; legal on a fast machine
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", final.State, final.Error)
	}
	if lat > 100*time.Millisecond {
		t.Fatalf("cancel-to-terminal latency %v exceeds 100ms", lat)
	}
	if err := jobErr(s, st.ID); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("job error %v must wrap ErrCanceled and context.Canceled", err)
	}
	res, fst, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !fst.Partial || res == nil || res.ATPG == nil {
		t.Fatalf("want partial ATPG progress on cancel; status %+v result %+v", fst, res)
	}
}

// TestJobDeadline gives a long job a 10ms deadline and expects the typed
// ErrDeadline within the latency budget.
func TestJobDeadline(t *testing.T) {
	s := newTest(t, Config{JobWorkers: 1})
	defer s.Close()
	st, err := s.Submit(Request{Kind: KindATPG, Gates: 4000, Inputs: 120, Outputs: 60, TimeoutMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateCanceled, StateDone, StateFailed)
	if final.State == StateDone {
		return // outran the deadline; legal
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", final.State, final.Error)
	}
	if err := jobErr(s, st.ID); !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job error %v must wrap ErrDeadline and context.DeadlineExceeded", err)
	}
}

// TestRetryBackoffScheduleExact injects two failing attempts and asserts
// the recorded backoff delays equal the deterministic jittered schedule,
// bit for bit.
func TestRetryBackoffScheduleExact(t *testing.T) {
	var attempts int32
	var mu sync.Mutex
	sleeper := &recordSleeper{}
	backoff := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Factor: 2, Jitter: 0.5}
	const retrySeed = 7
	s := newTest(t, Config{
		JobWorkers: 1,
		MaxRetries: 3,
		Backoff:    backoff,
		RetrySeed:  retrySeed,
		Sleeper:    sleeper,
		Hook: func(ctx context.Context, id string, stage Stage) error {
			if stage != StageAttempt {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			attempts++
			if attempts <= 2 {
				return errors.New("injected transient failure")
			}
			return nil
		},
	})
	defer s.Close()
	st, err := s.Submit(Request{Kind: KindEncode, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone, StateFailed)
	if final.State != StateDone {
		t.Fatalf("job should succeed on third attempt: %s", final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", final.Attempts)
	}
	// The job was seq 1, so its jitter stream is prng.New(retrySeed ^ 1).
	rnd := prng.New(retrySeed ^ 1)
	want := []time.Duration{backoff.Delay(0, rnd), backoff.Delay(1, rnd)}
	got := sleeper.recorded()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("backoff schedule %v, want exactly %v", got, want)
	}
	if m := s.MetricsSnapshot(); m.Jobs.Retries != 2 {
		t.Fatalf("retries metric = %d, want 2", m.Jobs.Retries)
	}
}

// TestGracefulShutdownDrains submits work, shuts down with a generous
// deadline, and expects every job to finish normally.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTest(t, Config{JobWorkers: 2})
	var ids []string
	for _, L := range []int{4, 6, 8} {
		st, err := s.Submit(Request{Kind: KindEncode, L: L})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s drained to %s (%s), want done", id, st.State, st.Error)
		}
	}
	if _, err := s.Submit(Request{Kind: KindEncode, L: 4}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown err = %v, want ErrDraining", err)
	}
}

// TestShutdownDeadlineCancelsStragglers stalls a job forever and expects
// the drain deadline to force-cancel it.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s := newTest(t, Config{
		JobWorkers: 1,
		Hook: func(ctx context.Context, id string, stage Stage) error {
			if stage != StageAttempt {
				return nil
			}
			<-ctx.Done() // stall until cancelled
			return ctx.Err()
		},
	})
	st, err := s.Submit(Request{Kind: KindEncode, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown err = %v, want DeadlineExceeded", err)
	}
	fst, err := s.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fst.State != StateCanceled {
		t.Fatalf("straggler state = %s, want canceled", fst.State)
	}
}

// TestCoreCacheSharesTables submits two identical ATPG jobs and asserts
// the content-addressed core cache let the session levelize the netlist
// once: same hash → same *Netlist → one Tables build.
func TestCoreCacheSharesTables(t *testing.T) {
	s := newTest(t, Config{JobWorkers: 1})
	defer s.Close()
	for i := 0; i < 2; i++ {
		st, err := s.Submit(Request{Kind: KindATPG, Gates: 260})
		if err != nil {
			t.Fatal(err)
		}
		if final := waitState(t, s, st.ID, StateDone, StateFailed); final.State != StateDone {
			t.Fatalf("job %d failed: %s", i, final.Error)
		}
	}
	if got := s.Session().Stats().TableBuilds; got != 1 {
		t.Fatalf("TableBuilds = %d, want 1 (shared via content-addressed cores)", got)
	}
	if m := s.MetricsSnapshot(); m.Cores.Cached != 1 {
		t.Fatalf("cores cached = %d, want 1", m.Cores.Cached)
	}
}

// TestClockInjection pins job timestamps to an injected clock.
func TestClockInjection(t *testing.T) {
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s := newTest(t, Config{JobWorkers: 1, Clock: func() time.Time { return fixed }})
	defer s.Close()
	st, err := s.Submit(Request{Kind: KindEncode, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone, StateFailed)
	if !final.Submitted.Equal(fixed) || final.Started == nil || !final.Started.Equal(fixed) ||
		final.Finished == nil || !final.Finished.Equal(fixed) {
		t.Fatalf("timestamps not from the injected clock: %+v", final)
	}
}
