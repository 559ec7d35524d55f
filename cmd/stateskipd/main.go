// Command stateskipd serves the repository's encode / ATPG / coverage
// flows as an HTTP job service: submit jobs, poll their status, fetch
// results, cancel them — all over one shared artefact cache, so
// concurrent tenants asking for the same circuit pay for it once.
//
// Usage:
//
//	stateskipd [-addr :8351] [-scale ci|paper] [-job-workers N]
//	           [-workers N] [-queue N] [-timeout 5m] [-retries N]
//	           [-max-cached N] [-drain 10s] [-journal DIR]
//	           [-max-body BYTES] [-max-gates N] [-max-inputs N]
//
// API (see internal/server for the JSON shapes):
//
//	POST   /jobs            submit  {"kind":"encode","circuit":"s13207","L":16}
//	GET    /jobs/{id}       poll status
//	GET    /jobs/{id}/result fetch result (202 + Retry-After until terminal)
//	DELETE /jobs/{id}       cancel
//	GET    /metrics         queue, job, cache and journal counters
//	GET    /healthz         liveness (200 while the process serves)
//	GET    /readyz          readiness (503 while replaying or draining)
//
// With -journal DIR every acknowledged submission is fsynced to an
// append-only log before the 202; after a crash (SIGKILL, OOM, power
// loss) the next start replays the directory, restores finished jobs'
// results and re-runs interrupted ones — ATPG jobs continue from their
// last durable checkpoint. Requests may carry an "idempotency_key" so a
// client that lost its 202 can resubmit without duplicating work.
//
// A full queue answers 503 with Retry-After — clients are expected to
// back off and resubmit. Bodies over -max-body get 413; netlists over
// the -max-* caps get 422. SIGINT/SIGTERM starts a graceful shutdown:
// the listener and queue close, running jobs drain until -drain expires,
// then everything still in flight is cancelled cooperatively.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/benchprofile"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stateskipd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stateskipd", flag.ContinueOnError)
	addr := fs.String("addr", ":8351", "listen address (use :0 for an ephemeral port)")
	scaleFlag := fs.String("scale", "ci", "benchmark scale: ci or paper")
	jobWorkers := fs.Int("job-workers", 2, "jobs run concurrently")
	workers := fs.Int("workers", 0, "engine goroutines per job (0 = all CPUs)")
	laneWords := fs.Int("lanewords", 0, "default fault-simulator lane words: 64×N patterns per sweep (0 = engine default: 1 word for ATPG, up to 8 chosen from the pattern count for coverage; jobs override via lane_words)")
	queue := fs.Int("queue", 64, "queued-job backlog bound")
	timeout := fs.Duration("timeout", 0, "default per-job deadline (0 = none)")
	retries := fs.Int("retries", 2, "retries per failed job attempt")
	maxCached := fs.Int("max-cached", 256, "artefact-cache entries per cache (0 = unbounded)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	journalDir := fs.String("journal", "", "durable job-journal directory (empty = no journal)")
	maxBody := fs.Int64("max-body", 8<<20, "request-body byte cap (413 past it)")
	maxGates := fs.Int("max-gates", 0, "client-netlist gate cap (0 = unlimited)")
	maxInputs := fs.Int("max-inputs", 0, "client-netlist input cap (0 = unlimited)")
	maxLevels := fs.Int("max-levels", 0, "client-netlist level cap (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := benchprofile.ScaleCI
	if *scaleFlag == "paper" {
		scale = benchprofile.ScalePaper
	}

	srv, err := server.New(server.Config{
		Scale:          scale,
		JobWorkers:     *jobWorkers,
		EngineWorkers:  *workers,
		LaneWords:      *laneWords,
		QueueSize:      *queue,
		DefaultTimeout: *timeout,
		MaxRetries:     *retries,
		MaxCached:      *maxCached,
		JournalDir:     *journalDir,
		MaxBodyBytes:   *maxBody,
		MaxGates:       *maxGates,
		MaxInputs:      *maxInputs,
		MaxLevels:      *maxLevels,
		Backoff:        server.Backoff{Base: 100 * time.Millisecond, Cap: 5 * time.Second, Factor: 2, Jitter: 0.5},
	})
	if err != nil {
		return err
	}

	// Listen explicitly (rather than ListenAndServe) so -addr :0 works and
	// the real address is printed — the crash-recovery integration test
	// parses it to find the daemon.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// SIGINT/SIGTERM trigger the graceful path; a second signal after
	// stop() has run falls through to the default handler (hard exit).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "stateskipd: listening on %s (scale=%s, queue=%d, job-workers=%d, journal=%q)\n",
			ln.Addr(), *scaleFlag, *queue, *jobWorkers, *journalDir)
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C hard-exits
		fmt.Fprintf(os.Stderr, "stateskipd: shutting down (drain %s; ^C again to force)\n", *drain)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	jobErr := srv.Shutdown(drainCtx)
	if jobErr != nil {
		fmt.Fprintln(os.Stderr, "stateskipd: drain deadline passed, jobs cancelled")
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	return nil
}
