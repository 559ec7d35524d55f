package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchprofile"
	"repro/internal/prng"
	"repro/internal/server"
)

// service is the service-mix workload: an in-process stateskipd with a
// journal, driven over HTTP by a closed loop of two clients.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error // Serve's return value
	base   string
	client *http.Client
	dir    string // journal directory

	seed uint64
	reqs []server.Request // the distinct requests of the mix
	// byKind lists the indices of each kind's requests.
	byKind map[server.Kind][]int
	want   []*server.Result // each distinct request's warm-up result

	mu      sync.Mutex
	waiters map[string]chan struct{} // guarded by mu; closed when the job finishes
}

// serviceClients is the closed loop's client count: each client submits its
// next job only after fetching the previous result.
const serviceClients = 2

// mixBlock is the job mix, 50 % encode, 30 % ATPG and 20 % coverage: every
// block of ten consecutive jobs of the stream holds five, three and two of
// them, in an order the seed draws. No record of real stateskipd traffic
// exists to take shares from; these are the shares the workload was
// specified with. Fixing them per block, instead of drawing each job's kind
// on its own, keeps a run's shares exact: ATPG jobs take most of the time,
// and a share one point off moves throughput by 3 %.
var mixBlock = []server.Kind{
	server.KindEncode, server.KindEncode, server.KindEncode, server.KindEncode, server.KindEncode,
	server.KindATPG, server.KindATPG, server.KindATPG,
	server.KindCoverage, server.KindCoverage,
}

// serviceRequests lists the mix's distinct requests, all at CI scale:
// encode jobs with and without State Skip reduction, and ATPG with both
// backtraces and coverage at two pattern counts and two lane widths on six
// random cores. The cores take the server's default shape (80 inputs, 48
// outputs, 260 gates) and ATPG the backtrack limit 20, both as in the CI
// grid of experiments.json. The cores are the same for every seed, which
// draws the job stream: the mean ATPG job time of six random cores differs
// from one draw to the next by 13 % (README.md, "Noise").
func serviceRequests(tiny bool) []server.Request {
	circuits, Ls, cores := benchprofile.Names(), []int{8, 16, 32}, 6
	shape := server.Request{} // the server's default core shape
	if tiny {
		circuits, Ls, cores = circuits[:1], []int{8}, 1
		shape = server.Request{Inputs: 16, Outputs: 8, Gates: 40}
	}
	var reqs []server.Request
	for _, c := range circuits {
		for _, L := range Ls {
			reqs = append(reqs,
				server.Request{Kind: server.KindEncode, Circuit: c, L: L},
				server.Request{Kind: server.KindEncode, Circuit: c, L: L, S: 4, K: 12})
		}
	}
	for s := range uint64(cores) {
		for _, bt := range []string{"scoap", "multi"} {
			r := shape
			r.Kind, r.Seed, r.Backtrace, r.Backtrack = server.KindATPG, s+1, bt, 20
			reqs = append(reqs, r)
		}
	}
	for s := range uint64(cores) {
		for _, np := range []int{256, 1024} {
			for _, lw := range []int{0, 8} {
				r := shape
				r.Kind, r.Seed, r.Patterns, r.LaneWords = server.KindCoverage, s+1, np, lw
				reqs = append(reqs, r)
			}
		}
	}
	return reqs
}

func setupService(ctx context.Context, o *options, tr *tracer) (instance, error) {
	setup := tr.root("setup", -1, 0)
	defer setup.end()
	dir, err := os.MkdirTemp("", "bench-journal-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, seed: o.seed, waiters: make(map[string]chan struct{}), served: make(chan error, 1)}
	sp := setup.child("server.new")
	s.srv, err = server.New(server.Config{
		JobWorkers: 2, EngineWorkers: 1, JournalDir: dir,
		Hook: func(_ context.Context, id string, stage server.Stage) error {
			if stage == server.StageFinish {
				close(s.waiter(id))
			}
			return nil
		},
	})
	sp.end()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}}

	s.reqs = serviceRequests(o.tiny)
	s.byKind = make(map[server.Kind][]int)
	for i, r := range s.reqs {
		s.byKind[r.Kind] = append(s.byKind[r.Kind], i)
	}
	// Warm-up: every distinct request once, so the timed jobs find the
	// session's caches as a long-running daemon would. The results are the
	// reference every timed job is compared against.
	s.want = make([]*server.Result, len(s.reqs))
	var next atomic.Int64
	errs := make([]error, serviceClients)
	var wg sync.WaitGroup
	for c := range serviceClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) || errs[c] != nil {
					return
				}
				// Untraced: the two clients overlap inside the set-up span.
				res, _, err := s.do(ctx, s.reqs[i], spanRef{})
				if err == nil {
					err = consistent(s.reqs[i], res)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up %+v: %w", s.reqs[i], err)
					return
				}
				s.want[i] = res
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waiter returns the channel the finish hook closes for job id, creating
// it on first use by either side.
func (s *service) waiter(id string) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.waiters[id]
	if !ok {
		ch = make(chan struct{})
		s.waiters[id] = ch
	}
	return ch
}

// timeline is one job's client-side and server-side timestamps.
type timeline struct {
	submitted, submitEnd, fetchStart, fetchEnd time.Time
	st                                         *server.Status
}

// do submits one job, waits for the finish hook, and fetches the result.
func (s *service) do(ctx context.Context, req server.Request, sp spanRef) (*server.Result, *timeline, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	tl := &timeline{submitted: time.Now()}
	c := sp.child("server.submit")
	var st server.Status
	err = s.call(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &st)
	c.end()
	tl.submitEnd = time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("submit: %w", err)
	}
	ch := s.waiter(st.ID)
	select {
	case <-ch:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	s.mu.Lock()
	delete(s.waiters, st.ID)
	s.mu.Unlock()
	tl.fetchStart = time.Now()
	c = sp.child("server.fetch")
	var rr struct {
		Status *server.Status `json:"status"`
		Result *server.Result `json:"result"`
	}
	err = s.call(ctx, http.MethodGet, "/jobs/"+st.ID+"/result", nil, http.StatusOK, &rr)
	c.end()
	tl.fetchEnd = time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("fetch %s: %w", st.ID, err)
	}
	if rr.Status == nil || rr.Status.State != server.StateDone {
		return nil, nil, fmt.Errorf("job %s ended %+v", st.ID, rr.Status)
	}
	tl.st = rr.Status
	if st := rr.Status; st.Started != nil && st.Finished != nil {
		sp.childAt("server.queue", st.Submitted, *st.Started, tl.submitEnd, tl.fetchStart)
		sp.childAt("server.run_"+string(req.Kind), *st.Started, *st.Finished, tl.submitEnd, tl.fetchStart)
	}
	return rr.Result, tl, nil
}

// call makes one HTTP request and decodes the JSON answer into out.
func (s *service) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// consistent checks a result against the invariants its kind guarantees.
func consistent(req server.Request, res *server.Result) error {
	switch {
	case req.Kind == server.KindEncode && res.Encode != nil:
		e := res.Encode
		p, err := benchprofile.ByName(req.Circuit, benchprofile.ScaleCI)
		if err != nil {
			return err
		}
		if e.Seeds < 1 || e.TDV != e.Seeds*p.LFSRSize || e.TSL != e.Seeds*req.L {
			return fmt.Errorf("encode: %d seeds, TDV %d, TSL %d for n=%d L=%d", e.Seeds, e.TDV, e.TSL, p.LFSRSize, req.L)
		}
		if req.S > 0 && (e.ReducedTSL < 1 || e.ReducedTSL > e.TSL) {
			return fmt.Errorf("encode: reduced TSL %d outside [1, %d]", e.ReducedTSL, e.TSL)
		}
		return nil
	case req.Kind == server.KindATPG && res.ATPG != nil:
		a := res.ATPG
		if a.Detected+a.Untestable+a.Aborted > a.Faults || a.Faults == a.Untestable {
			return fmt.Errorf("atpg: %d detected + %d untestable + %d aborted of %d faults", a.Detected, a.Untestable, a.Aborted, a.Faults)
		}
		if want := float64(a.Detected) / float64(a.Faults-a.Untestable); math.Abs(a.Coverage-want) > 1e-12 {
			return fmt.Errorf("atpg: coverage %v, counts give %v", a.Coverage, want)
		}
		return nil
	case req.Kind == server.KindCoverage && res.Coverage != nil:
		c := res.Coverage
		if c.Patterns != req.Patterns || c.Faults < 1 || c.Detected > c.Faults {
			return fmt.Errorf("coverage: %d of %d faults with %d patterns", c.Detected, c.Faults, c.Patterns)
		}
		if want := float64(c.Detected) / float64(c.Faults); math.Abs(c.Coverage-want) > 1e-12 {
			return fmt.Errorf("coverage: %v, counts give %v", c.Coverage, want)
		}
		return nil
	}
	return fmt.Errorf("%s job returned %+v", req.Kind, res)
}

// pick maps job number k of the stream to a distinct request: the kind by
// its place in the seeded order of its block, then a request of that kind
// uniformly. It is a pure function of the seed and k, so the stream is the
// same however the clients interleave.
func (s *service) pick(k int64) int {
	n := int64(len(mixBlock))
	order := prng.New(s.seed ^ uint64(k/n)*0x9E3779B97F4A7C15).Perm(len(mixBlock))
	idx := s.byKind[mixBlock[order[k%n]]]
	return idx[prng.New(s.seed^uint64(k)*0xC2B2AE3D27D4EB4F).Intn(len(idx))]
}

// serviceCounters reads the server's own counters; measure reports how
// they moved during the timed loop.
func (s *service) serviceCounters() map[string]float64 {
	m := s.srv.MetricsSnapshot()
	ss := m.Session
	return map[string]float64{
		"experiments.builds":  float64(ss.SetBuilds + ss.EncodingBuilds + ss.IndexBuilds + ss.TableBuilds + ss.EncTableBuilds),
		"experiments.hits":    float64(ss.Hits),
		"server.retries":      float64(m.Jobs.Retries),
		"server.shed":         float64(m.Shed),
		"journal.checkpoints": float64(m.Journal.Checkpoints),
	}
}

// serviceSegments is how many segments the timed loop is cut into. A job
// takes milliseconds, too short to scale on its own (probe.go), so between
// segments the clients stop, a host probe runs with no job in flight, and
// every job is scaled by the probes on either side of its segment.
const serviceSegments = 10

func (s *service) measure(ctx context.Context, o *options, tr *tracer) (*sample, error) {
	before := s.serviceCounters()
	type jobStat struct {
		req     int // index of the distinct request
		latency time.Duration
		scale   float64 // to reference time
		tl      *timeline
		ok      bool
	}
	var (
		mu   sync.Mutex
		jobs []jobStat
		next atomic.Int64
		wg   sync.WaitGroup
	)
	smp := &sample{layer: make(map[string]float64), probeMS: probeHost(1)}
	var allocBytes uint64
	var busy float64 // seconds the clients ran, in reference time
	for range serviceSegments {
		if ctx.Err() != nil {
			break
		}
		first := len(jobs)
		alloc0, gc0 := goRuntime()
		pause0 := gcPauseMS()
		start := time.Now()
		for c := range serviceClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < o.budget/serviceSegments && ctx.Err() == nil {
					k := next.Add(1) - 1
					di := s.pick(k)
					req := s.reqs[di]
					sp := tr.root("job", int(k), c+1)
					t0 := time.Now()
					res, tl, err := s.do(ctx, req, sp)
					lat := time.Since(t0)
					sp.end()
					if err == nil {
						err = consistent(req, res)
					}
					if err == nil && o.tamper != nil {
						o.tamper(res)
					}
					if err == nil && !reflect.DeepEqual(res, s.want[di]) {
						err = fmt.Errorf("result %+v differs from the warm-up result", res)
					}
					if err != nil {
						logf("job %d %+v: %v", k, req, err)
					}
					mu.Lock()
					jobs = append(jobs, jobStat{di, lat, 0, tl, err == nil})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		alloc1, gc1 := goRuntime()
		allocBytes += alloc1 - alloc0
		smp.gcCycles += gc1 - gc0
		smp.gcPauseMS += gcPauseMS() - pause0
		prev := smp.probeMS[len(smp.probeMS)-1]
		smp.probeMS = append(smp.probeMS, probeHost(1)...)
		scale := probeRefMS / ((prev + smp.probeMS[len(smp.probeMS)-1]) / 2)
		for j := first; j < len(jobs); j++ {
			jobs[j].scale = scale
		}
		busy += wall.Seconds() * scale
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	smp.allocMB = float64(allocBytes) / (1 << 20) / float64(max(len(jobs), 1))
	after := s.serviceCounters()
	for k, v := range after {
		smp.layer[k] = v - before[k]
	}
	// The engines' counters for one instance of every distinct request.
	for _, r := range s.want {
		addResultCounters(smp.layer, r)
	}
	perName := make(map[string][]float64)
	perReq := make([][]float64, len(s.reqs))
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	for _, j := range jobs {
		smp.attempted++
		if !j.ok {
			smp.failed++
			continue
		}
		smp.latencyMS = append(smp.latencyMS, ms(j.latency)*j.scale)
		perReq[j.req] = append(perReq[j.req], ms(j.latency)*j.scale)
		st := j.tl.st
		perName["server.submit"] = append(perName["server.submit"], ms(j.tl.submitEnd.Sub(j.tl.submitted)))
		perName["server.fetch"] = append(perName["server.fetch"], ms(j.tl.fetchEnd.Sub(j.tl.fetchStart)))
		if st.Started != nil && st.Finished != nil {
			run := "server.run_" + string(s.reqs[j.req].Kind)
			perName["server.queue_wait"] = append(perName["server.queue_wait"], ms(st.Started.Sub(st.Submitted)))
			perName[run] = append(perName[run], ms(st.Finished.Sub(*st.Started)))
		}
	}
	for name, xs := range perName {
		smp.layer[name+"_p50_ms"] = quantile(xs, 0.5)
		smp.layer[name+"_p99_ms"] = quantile(xs, 0.99)
	}
	// A distinct request is the service's op, as a circuit is a batch
	// workload's. A median over all jobs would sit where the fast half of
	// the mix (cache-hit encodes) meets the slow half, and jump between
	// them from run to run.
	for _, xs := range perReq {
		if len(xs) > 0 {
			smp.opMS = append(smp.opMS, median(xs))
		}
	}
	if busy > 0 {
		smp.throughput = float64(smp.attempted-smp.failed) / busy
	}
	return smp, nil
}

// addResultCounters adds a job result's engine counters.
func addResultCounters(c map[string]float64, r *server.Result) {
	switch {
	case r.Encode != nil:
		c["encoder.encodes"]++
		c["encoder.seeds"] += float64(r.Encode.Seeds)
		c["encoder.tdv_bits"] += float64(r.Encode.TDV)
		c["encoder.checks"] += float64(r.Encode.Checks)
		c["stateskip.tsl_vectors"] += float64(r.Encode.ReducedTSL)
	case r.ATPG != nil:
		c["atpg.faults"] += float64(r.ATPG.Faults)
		c["atpg.detected"] += float64(r.ATPG.Detected)
		c["atpg.untestable"] += float64(r.ATPG.Untestable)
		c["atpg.aborted"] += float64(r.ATPG.Aborted)
		c["atpg.backtracks"] += float64(r.ATPG.Backtracks)
		c["atpg.cubes"] += float64(r.ATPG.Cubes)
	case r.Coverage != nil:
		c["faultsim.faults"] += float64(r.Coverage.Faults)
		c["faultsim.detected"] += float64(r.Coverage.Detected)
	}
}

func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // only idle connections remain
	<-s.served
	s.srv.Shutdown(ctx) //nolint:errcheck // every job is terminal by now
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}
