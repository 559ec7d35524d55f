package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Metrics is the point-in-time snapshot served by GET /metrics.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queue         struct {
		Depth    int  `json:"depth"`
		Capacity int  `json:"capacity"`
		Draining bool `json:"draining"`
	} `json:"queue"`
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Rejected  int64 `json:"rejected"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
		Retries   int64 `json:"retries"`
		Panics    int64 `json:"panics"`
	} `json:"jobs"`
	Session struct {
		SetBuilds       int64 `json:"set_builds"`
		EncodingBuilds  int64 `json:"encoding_builds"`
		IndexBuilds     int64 `json:"index_builds"`
		TableBuilds     int64 `json:"table_builds"`
		Hits            int64 `json:"hits"`
		Evictions       int64 `json:"evictions"`
		Cached          int   `json:"cached"`
		EncTableBuilds  int64 `json:"enc_table_builds"`
		SetBuildNS      int64 `json:"set_build_ns"`
		EncodingBuildNS int64 `json:"encoding_build_ns"`
		IndexBuildNS    int64 `json:"index_build_ns"`
		TableBuildNS    int64 `json:"table_build_ns"`
	} `json:"session"`
	Cores struct {
		Cached    int `json:"cached"`
		Evictions int `json:"evictions"`
	} `json:"cores"`
	Journal struct {
		Enabled bool `json:"enabled"`
		// Depth is the number of records appended since the last
		// compaction — a proxy for replay cost at next startup.
		Depth int `json:"depth"`
		// Replayed counts jobs re-enqueued from the journal at startup.
		Replayed int64 `json:"replayed_jobs"`
		// Checkpoints counts ATPG checkpoints durably recorded.
		Checkpoints int64 `json:"checkpoints"`
		// Resumed counts ATPG attempts that continued from a checkpoint.
		Resumed int64 `json:"resumed"`
	} `json:"journal"`
	// Shed counts requests refused to protect the daemon: oversized
	// bodies (413), full-queue, draining and not-ready rejections.
	Shed int64 `json:"shed_requests"`
}

// MetricsSnapshot assembles the current metrics.
func (s *Server) MetricsSnapshot() Metrics {
	var m Metrics
	m.UptimeSeconds = s.now().Sub(s.started).Seconds()
	s.mu.Lock()
	m.Queue.Depth = len(s.queue)
	m.Queue.Capacity = cap(s.queue)
	m.Queue.Draining = s.draining
	m.Cores.Cached = s.cores.Len()
	m.Cores.Evictions = s.cores.Evictions()
	s.mu.Unlock()
	m.Jobs.Submitted = s.metrics.submitted.Load()
	m.Jobs.Rejected = s.metrics.rejected.Load()
	m.Jobs.Done = s.metrics.done.Load()
	m.Jobs.Failed = s.metrics.failed.Load()
	m.Jobs.Canceled = s.metrics.canceled.Load()
	m.Jobs.Retries = s.metrics.retries.Load()
	m.Jobs.Panics = s.metrics.panics.Load()
	st := s.session.Stats()
	m.Session.SetBuilds = st.SetBuilds
	m.Session.EncodingBuilds = st.EncodingBuilds
	m.Session.IndexBuilds = st.IndexBuilds
	m.Session.TableBuilds = st.TableBuilds
	m.Session.Hits = st.Hits
	m.Session.Evictions = st.Evictions
	m.Session.Cached = st.Cached
	m.Session.EncTableBuilds = st.EncTableBuilds
	m.Session.SetBuildNS = st.SetBuildNS
	m.Session.EncodingBuildNS = st.EncodingBuildNS
	m.Session.IndexBuildNS = st.IndexBuildNS
	m.Session.TableBuildNS = st.TableBuildNS
	if s.journal != nil {
		m.Journal.Enabled = true
		m.Journal.Depth = s.journal.Depth()
		m.Journal.Replayed = s.metrics.replayed.Load()
		m.Journal.Checkpoints = s.metrics.checkpoints.Load()
		m.Journal.Resumed = s.metrics.resumed.Load()
	}
	m.Shed = s.metrics.shed.Load()
	return m
}

// httpError is the JSON error envelope of every non-2xx response.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hung up; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, httpError{Error: err.Error()})
}

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs           submit a job (Request JSON) → 202 Status
//	GET    /jobs           list all jobs, newest first
//	GET    /jobs/{id}      poll one job's Status
//	GET    /jobs/{id}/result  fetch a terminal job's Result (+Status)
//	DELETE /jobs/{id}      cancel a job
//	GET    /metrics        queue/job/cache/journal counters
//	GET    /healthz        liveness (always 200 while the process serves)
//	GET    /readyz         readiness (503 while replaying or draining)
//
// A full queue answers POST /jobs with 503 plus a Retry-After header
// derived from the backlog (queue depth over worker count, so a deeper
// queue advertises a longer wait). A draining server also answers 503 but
// sends no Retry-After at all: shutdown is not transient from this
// process's point of view, and a short retry hint would herd clients into
// hammering an endpoint that is going away — they should fail over
// instead. The error body distinguishes the two cases.
//
// Untrusted-input guards: request bodies are capped at
// Config.MaxBodyBytes (413 past it), netlists past the configured
// gate/input/level caps get 422, and structurally bad .bench text gets a
// 400 naming the offending line — all decided at admission, before any
// table build can amplify the input.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.shed.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("server: request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrNotReady):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrDraining):
		// Deliberately no Retry-After: see Handler's doc comment.
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrOverCap):
		writeError(w, http.StatusUnprocessableEntity, err)
	case errors.Is(err, ErrJournal):
		// The job was accepted in memory but not made durable; the client
		// must treat the submission as unacknowledged and retry with the
		// same idempotency key.
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// retryAfterSeconds estimates how long a submitter rejected by a full
// queue should wait: one second of grace plus the backlog spread over the
// worker pool, capped so a pathological queue never advertises waits a
// client would interpret as "down".
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	secs := 1 + depth/s.cfg.JobWorkers
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultResponse pairs a job's status with its payload; Result is null
// until the job is terminal, and stays null for jobs canceled before
// producing partial progress.
type resultResponse struct {
	Status *Status `json:"status"`
	Result *Result `json:"result"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !st.State.Terminal() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, resultResponse{Status: st})
		return
	}
	writeJSON(w, http.StatusOK, resultResponse{Status: st, Result: res})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// handleHealth is pure liveness: as long as the process can serve this
// request it answers 200, even while draining — restarting a daemon
// because it is shutting down cleanly would be counterproductive.
// Traffic-steering decisions belong to /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "uptime": time.Duration(s.MetricsSnapshot().UptimeSeconds * float64(time.Second)).String()})
}

// handleReady is readiness: 503 while the server is replaying its journal
// or draining, so load balancers shed traffic to peers during recovery
// and shutdown windows.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready := s.ready && !s.draining
	draining := s.draining
	s.mu.Unlock()
	if !ready {
		err := ErrNotReady
		if draining {
			err = ErrDraining
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
