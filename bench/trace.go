package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark's own code around a
// call into a layer. Roots are ops ("op", "job") or set-ups ("setup").
type span struct {
	name   string
	op     int // op id; -1 for set-up spans
	lane   int // display lane: the client that issued the call
	parent int // index of the parent span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a handle to an open span.
type spanRef struct {
	t *tracer
	i int
}

func (t *tracer) add(s span) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return spanRef{t, len(t.spans) - 1}
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// root opens a root span for op id op on the given lane.
func (t *tracer) root(name string, op, lane int) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.add(span{name: name, op: op, lane: lane, parent: -1, start: time.Since(t.t0)})
}

// child opens a span nested in s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	s.t.mu.Lock()
	p := s.t.spans[s.i]
	s.t.mu.Unlock()
	return s.t.add(span{name: name, op: p.op, lane: p.lane, parent: s.i, start: time.Since(s.t.t0)})
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	d := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans[s.i].end = d
	s.t.mu.Unlock()
}

// childAt records a finished child span from timestamps taken elsewhere
// (the server's job status), clipped to the window [lo, hi] so it nests in
// s and does not overlap the siblings outside that window. Positions are
// taken relative to lo, so a timestamp without a monotonic clock reading
// (one decoded from JSON) lines up with the tracer's own. Empty intervals
// are dropped.
func (s spanRef) childAt(name string, from, to, lo, hi time.Time) {
	if s.t == nil {
		return
	}
	loOff, hiOff := lo.Sub(s.t.t0), hi.Sub(s.t.t0)
	clip := func(t time.Time) time.Duration { return min(max(loOff+t.Sub(lo), loOff), hiOff) }
	start, end := clip(from), clip(to)
	if end <= start {
		return
	}
	s.t.mu.Lock()
	p := s.t.spans[s.i]
	s.t.mu.Unlock()
	s.t.add(span{name: name, op: p.op, lane: p.lane, parent: s.i, start: start, end: end})
}

// layerOf maps a span name to its layer: the prefix before the first dot,
// or "bench" for the benchmark's own root spans.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			iv = append(iv, [2]time.Duration{max(spans[k].start, s.start), min(spans[k].end, s.end)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// opLayerSelf sums the self time of every span under an op root (set-up
// spans excluded) by layer, and returns it with the total root time.
func opLayerSelf(spans []span) (map[string]time.Duration, time.Duration) {
	self := selfTimes(spans)
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	for i, s := range spans {
		if s.op < 0 {
			continue
		}
		byLayer[layerOf(s.name)] += self[i]
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	return byLayer, total
}

// callMeans returns the mean duration in ms of the spans of each name.
func callMeans(spans []span) map[string]float64 {
	sum := make(map[string]time.Duration)
	n := make(map[string]int)
	for _, s := range spans {
		sum[s.name] += s.end - s.start
		n[s.name]++
	}
	out := make(map[string]float64, len(sum))
	for name, d := range sum {
		out[name] = d.Seconds() * 1e3 / float64(n[name])
	}
	return out
}

// writeChromeTrace writes the spans in Chrome trace-event format, which
// Perfetto and chrome://tracing open.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]int{"op": s.op},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
