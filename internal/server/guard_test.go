package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// guardServer runs a server with tight untrusted-input caps behind its
// real HTTP handler.
func guardServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newTest(t, Config{
		JobWorkers:   1,
		MaxBodyBytes: 4096,
		MaxGates:     100,
		MaxInputs:    32,
		MaxLevels:    64,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

// chainBench builds a valid .bench netlist with the given number of
// chained NOT gates.
func chainBench(gates int) string {
	var b strings.Builder
	b.WriteString("INPUT(a)\n")
	fmt.Fprintf(&b, "OUTPUT(g%d)\n", gates-1)
	prev := "a"
	for i := 0; i < gates; i++ {
		fmt.Fprintf(&b, "g%d = NOT(%s)\n", i, prev)
		prev = fmt.Sprintf("g%d", i)
	}
	return b.String()
}

// TestGuardOversizedBody413: a body past MaxBodyBytes yields a typed 413
// and the daemon keeps serving.
func TestGuardOversizedBody413(t *testing.T) {
	s, ts := guardServer(t)
	big, err := json.Marshal(Request{Kind: KindATPG, Bench: strings.Repeat("# padding\n", 1024)})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJob(t, ts, string(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", resp.StatusCode, body)
	}
	var e httpError
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("413 body is not the JSON error envelope: %s", body)
	}
	if s.MetricsSnapshot().Shed < 1 {
		t.Fatalf("413 did not count as a shed request")
	}
}

// TestGuardOverCap422 covers both cap paths: an inline netlist whose
// parsed summary exceeds the caps, and generator parameters that would.
func TestGuardOverCap422(t *testing.T) {
	_, ts := guardServer(t)
	cases := []struct {
		name string
		req  Request
	}{
		{"bench-gates", Request{Kind: KindATPG, Bench: chainBench(120)}},          // 120 gates > 100
		{"bench-levels", Request{Kind: KindATPG, Bench: chainBench(80)}},          // 80-deep chain > 64 levels
		{"generated-gates", Request{Kind: KindCoverage, Inputs: 8, Gates: 500}},   // parameters over cap
		{"generated-inputs", Request{Kind: KindCoverage, Inputs: 64, Gates: 500}}, // both over
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, rbody := postJob(t, ts, string(body))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: %d %s, want 422", tc.name, resp.StatusCode, rbody)
		}
	}
	// A default lane width past the simulator's cap is a bad config, caught
	// at construction rather than by every coverage or ATPG job that
	// inherits it after admission.
	for _, lw := range []int{-1, faultsim.MaxLaneWords + 1, 100} {
		if s, err := New(Config{LaneWords: lw}); err == nil {
			s.Close()
			t.Fatalf("New accepted Config.LaneWords %d", lw)
		}
	}
	s := newTest(t, Config{JobWorkers: 1, LaneWords: faultsim.MaxLaneWords})
	s.Close()
}

// TestGuardMalformedBench400: structurally bad .bench text surfaces the
// typed parse errors as 400s naming the defect, decided at admission.
func TestGuardMalformedBench400(t *testing.T) {
	s, ts := guardServer(t)
	cases := []struct {
		name, bench, wantSub string
	}{
		{"undefined", "INPUT(a)\nOUTPUT(g)\ng = AND(a, ghost)\n", "undefined signal"},
		{"cycle", "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = OR(a, p)\n", "combinational cycle"},
		{"duplicate", "INPUT(a)\nINPUT(a)\n", "duplicate signal"},
	}
	for _, tc := range cases {
		body, err := json.Marshal(Request{Kind: KindATPG, Bench: tc.bench})
		if err != nil {
			t.Fatal(err)
		}
		resp, rbody := postJob(t, ts, string(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", tc.name, resp.StatusCode, rbody)
		}
		if !strings.Contains(string(rbody), tc.wantSub) {
			t.Fatalf("%s: error %s does not name %q", tc.name, rbody, tc.wantSub)
		}
	}
	// The typed sentinels are visible at the API layer too.
	_, err := s.Submit(Request{Kind: KindATPG, Bench: cases[0].bench})
	if !errors.Is(err, netlist.ErrUndefinedSignal) {
		t.Fatalf("Submit: %v, want ErrUndefinedSignal", err)
	}
	_, err = s.Submit(Request{Kind: KindATPG, Bench: chainBench(120)})
	if !errors.Is(err, ErrOverCap) {
		t.Fatalf("Submit over cap: %v, want ErrOverCap", err)
	}

	// After the whole gauntlet the daemon still serves real work.
	ok, err := json.Marshal(Request{Kind: KindATPG, Bench: chainBench(10)})
	if err != nil {
		t.Fatal(err)
	}
	resp, rbody := postJob(t, ts, string(ok))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid job after rejects: %d %s, want 202", resp.StatusCode, rbody)
	}
	var st Status
	if err := json.Unmarshal(rbody, &st); err != nil {
		t.Fatalf("202 body: %v", err)
	}
	waitState(t, s, st.ID, StateDone)
}

// TestHealthzAndReadyz splits liveness from readiness: /healthz stays 200
// even while draining; /readyz flips to 503.
func TestHealthzAndReadyz(t *testing.T) {
	s, ts := guardServer(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s before drain: %d, want 200", path, resp.StatusCode)
		}
	}
	s.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
}
