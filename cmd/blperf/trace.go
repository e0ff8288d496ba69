package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer of
// the simulator: a name, start, end, the enclosing span and a lane (the
// calling goroutine, for workloads that drive several). Spans stay in memory
// until the pass writes them out. A nil *tracer records nothing, so untraced
// passes run the same code at the cost of a pointer check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int
	Parent int // 0: a root span
	Name   string
	Lane   int
	Start  time.Duration // since the tracer was created
	End    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval that its children cover (overlapping
// children are merged, so concurrent children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curStart, curEnd time.Duration
		open := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curEnd {
				curEnd = max(curEnd, hi)
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			curStart, curEnd, open = lo, hi, true
		}
		if open {
			covered += curEnd - curStart
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durations returns the durations of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// total sums the durations of every span named name, in ms.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeChrome writes the spans in the Chrome trace-event format that
// Perfetto and chrome://tracing open: one complete ("X") event per span on
// the thread of its lane, with its id, parent and self time in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent,
				"self_us": float64(self[i]) / 1e3,
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
