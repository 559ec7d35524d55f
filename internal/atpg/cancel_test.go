package atpg

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

func cancelTestCore(t *testing.T) *netlist.Netlist {
	t.Helper()
	core, err := netlist.Random(netlist.RandomConfig{
		Inputs: 80, Outputs: 48, Gates: 2008, MaxFan: 3, Seed: 2008,
	})
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// TestRunAllCtxPreCanceled asserts the fast path: a context that is
// already dead stops the run almost immediately with a typed error and a
// partial (near-empty) result.
func TestRunAllCtxPreCanceled(t *testing.T) {
	u := faultsim.NewUniverse(cancelTestCore(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunAllCtx(ctx, u, Options{FaultDrop: true, FillSeed: 2008})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("want a partial result alongside the cancellation error")
	}
	if done := res.Detected + res.Untestable + res.Aborted; done >= len(u.Faults) {
		t.Fatalf("pre-cancelled run processed %d/%d faults, expected an early stop", done, len(u.Faults))
	}
}

// TestRunAllCtxCancelLatency cancels a long run mid-flight, with one
// speculative worker and with a pool, and requires it to return well
// inside the 100ms latency budget with partial progress recorded. Every
// goroutine the run started — the speculative workers and the sweep pool —
// must have exited once RunAllCtx returns.
func TestRunAllCtxCancelLatency(t *testing.T) {
	u := faultsim.NewUniverse(cancelTestCore(t))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := RunAllCtx(ctx, u, Options{FaultDrop: true, FillSeed: 2008, Workers: workers})
				done <- outcome{res, err}
			}()
			time.Sleep(5 * time.Millisecond)
			cancel()
			t0 := time.Now()
			select {
			case o := <-done:
				if lat := time.Since(t0); lat > 100*time.Millisecond {
					t.Fatalf("cancellation latency %v exceeds 100ms", lat)
				}
				// o.err == nil means the run won the race and finished
				// before the cancel landed — legal, nothing to assert.
				if o.err != nil && !errors.Is(o.err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", o.err)
				}
				if o.err != nil && o.res == nil {
					t.Fatal("want partial result on cancellation")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("RunAllCtx did not return within 2s of cancel")
			}
			// The caller's goroutine has sent its outcome and is exiting;
			// give it (and nothing else) a moment to unwind.
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after RunAllCtx returned, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRunAllCtxDeadline runs under a tight deadline and expects the typed
// deadline error once it fires.
func TestRunAllCtxDeadline(t *testing.T) {
	u := faultsim.NewUniverse(cancelTestCore(t))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := RunAllCtx(ctx, u, Options{FaultDrop: true, FillSeed: 2008})
	if err == nil {
		t.Skip("machine fast enough to finish inside 5ms; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("want partial result on deadline")
	}
}

// TestRunAllCtxUncancelledBitIdentical pins the cancellation plumbing's
// zero-overhead contract: RunAllCtx with a live but never-cancelled
// context must equal the background-context run exactly, counters
// included.
func TestRunAllCtxUncancelledBitIdentical(t *testing.T) {
	core, err := netlist.Random(netlist.RandomConfig{
		Inputs: 40, Outputs: 24, Gates: 300, MaxFan: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{FaultDrop: true, FillSeed: 7}
	resA, err := RunAllCtx(context.Background(), faultsim.NewUniverse(core), opt)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	resB, err := RunAllCtx(live, faultsim.NewUniverse(core), opt)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Detected != resB.Detected || resA.Untestable != resB.Untestable ||
		resA.Aborted != resB.Aborted || resA.Backtracks != resB.Backtracks ||
		resA.Coverage != resB.Coverage || resA.Cubes.Len() != resB.Cubes.Len() {
		t.Fatalf("RunAllCtx(live ctx) differs from RunAllCtx(Background):\n%+v\nvs\n%+v", resA, resB)
	}
}
