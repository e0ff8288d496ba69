// Package trace records a per-core execution timeline from a running
// simulation — who ran where at every scheduler tick, and each cluster's
// frequency — and renders it as a systrace-style ASCII chart. It is the
// observability companion to the characterization metrics: Tables III-V
// aggregate; the trace shows the individual migrations, bursts, and
// frequency ramps that produce them.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

// Sample is one scheduler tick's snapshot.
type Sample struct {
	At event.Time
	// TaskOnCore[i] is the ID of the task running on core i, or -1.
	TaskOnCore []int
	// ClusterMHz[i] is cluster i's frequency.
	ClusterMHz []int
	// RunQueue[i] is the run-queue depth of core i (running + waiting).
	RunQueue []int
	// Runnable lists the IDs of tasks that were on a run queue but not
	// executing at this tick — the sampled view of schedstat run_delay.
	Runnable []int
}

// DefaultMaxSamples bounds recorder memory when `to` is zero (record until
// the run ends): roughly two minutes of 1 ms ticks, ~25 MB on an 8-core
// platform. Once full, the oldest quarter is discarded in one copy, so the
// recorder always holds approximately the most recent MaxSamples ticks at
// amortized O(1) cost per tick.
const DefaultMaxSamples = 120_000

// Recorder captures one Sample per scheduler tick as a sched.System OnTick
// subscriber.
type Recorder struct {
	sys     *sched.System
	from    event.Time
	to      event.Time
	Samples []Sample
	// MaxSamples caps the in-memory sample window (DefaultMaxSamples when
	// zero, negative = unbounded). When the cap is reached the oldest
	// quarter of the window is dropped, keeping the most recent samples.
	MaxSamples int
	// Dropped counts samples discarded because of MaxSamples.
	Dropped int
	// Tel, when non-nil, lets ChromeTrace add instant events (migrations,
	// boosts) and a power counter track from the telemetry event log.
	Tel *telemetry.Collector
	// Xray, when non-nil, lets ChromeTrace draw the causal decision chains as
	// flow arrows: each retained span with a retained parent becomes an
	// s/f flow pair (wake → migration → frequency step → throttle), rendered
	// by Perfetto as arrows between the involved core and cluster tracks.
	Xray *xray.Tracer
	// names caches task names by ID for rendering.
	names map[int]string
}

// Attach installs a recorder on sys capturing ticks in [from, to). A zero
// `to` records until the run ends; memory is bounded by MaxSamples
// (DefaultMaxSamples unless overridden), keeping the most recent window.
func Attach(sys *sched.System, from, to event.Time) *Recorder {
	r := &Recorder{sys: sys, from: from, to: to, names: map[int]string{}}
	sys.OnTick(r.capture)
	return r
}

func (r *Recorder) capture(now event.Time) {
	if now < r.from || (r.to > 0 && now >= r.to) {
		return
	}
	if max := r.MaxSamples; max >= 0 {
		if max == 0 {
			max = DefaultMaxSamples
		}
		if len(r.Samples) >= max {
			drop := max / 4
			if drop < 1 {
				drop = 1
			}
			r.Samples = append(r.Samples[:0], r.Samples[drop:]...)
			r.Dropped += drop
		}
	}
	soc := r.sys.SoC
	s := Sample{
		At:         now,
		TaskOnCore: make([]int, len(soc.Cores)),
		ClusterMHz: make([]int, len(soc.Clusters)),
		RunQueue:   make([]int, len(soc.Cores)),
	}
	for i := range s.TaskOnCore {
		s.TaskOnCore[i] = -1
		s.RunQueue[i] = r.sys.QueueLen(i)
	}
	for _, t := range r.sys.Tasks() {
		switch t.CurState() {
		case sched.Running:
			s.TaskOnCore[t.CPU()] = t.ID
			r.names[t.ID] = t.Name
		case sched.Runnable:
			s.Runnable = append(s.Runnable, t.ID)
			r.names[t.ID] = t.Name
		}
	}
	for i := range soc.Clusters {
		s.ClusterMHz[i] = soc.Clusters[i].CurMHz
	}
	r.Samples = append(r.Samples, s)
}

// glyphs assigns a stable single-character glyph per task ID, in first-seen
// order: a-z, then A-Z, then '#'.
func (r *Recorder) glyphs() map[int]byte {
	var ids []int
	for id := range r.names {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := map[int]byte{}
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for i, id := range ids {
		if i < len(alpha) {
			out[id] = alpha[i]
		} else {
			out[id] = '#'
		}
	}
	return out
}

// Render draws the recorded window as one row per core ('.' = idle, one
// glyph per task) plus a legend and per-cluster frequency summary lines.
// Columns are individual ticks; long windows are downsampled to fit width
// columns (0 = no limit).
func (r *Recorder) Render(width int) string {
	if len(r.Samples) == 0 {
		return "trace: no samples recorded\n"
	}
	stride := 1
	if width > 0 && len(r.Samples) > width {
		stride = (len(r.Samples) + width - 1) / width
	}
	glyphs := r.glyphs()
	soc := r.sys.SoC

	var b strings.Builder
	fmt.Fprintf(&b, "trace: %v .. %v, %d ticks, 1 column = %d tick(s)\n",
		r.Samples[0].At, r.Samples[len(r.Samples)-1].At, len(r.Samples), stride)

	for core := range soc.Cores {
		fmt.Fprintf(&b, "cpu%d %-6s |", core, soc.Cores[core].Type)
		for i := 0; i < len(r.Samples); i += stride {
			// Within a stride, show the most common non-idle occupant.
			counts := map[int]int{}
			for j := i; j < i+stride && j < len(r.Samples); j++ {
				counts[r.Samples[j].TaskOnCore[core]]++
			}
			best, bestN := -1, 0
			for id, n := range counts {
				if id >= 0 && n > bestN {
					best, bestN = id, n
				}
			}
			if best == -1 {
				b.WriteByte('.')
			} else {
				b.WriteByte(glyphs[best])
			}
		}
		b.WriteString("|\n")
	}

	// Frequency bands per cluster: min/avg/max over the window.
	for ci := range soc.Clusters {
		min, max, sum := 1<<30, 0, 0
		for _, s := range r.Samples {
			f := s.ClusterMHz[ci]
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
			sum += f
		}
		fmt.Fprintf(&b, "%-6s cluster MHz: min %d avg %d max %d\n",
			soc.Clusters[ci].Type, min, sum/len(r.Samples), max)
	}

	// Legend, sorted by glyph.
	type entry struct {
		g    byte
		name string
	}
	var legend []entry
	for id, g := range glyphs {
		legend = append(legend, entry{g, r.names[id]})
	}
	sort.Slice(legend, func(i, j int) bool { return legend[i].g < legend[j].g })
	b.WriteString("legend:")
	for _, e := range legend {
		fmt.Fprintf(&b, " %c=%s", e.g, e.name)
	}
	b.WriteString("\n")
	return b.String()
}

// TaskResidency summarizes one task's observed scheduling over the window:
// where it ran, and how often it was runnable but waiting behind another
// task (the sampled analogue of schedstat's run_delay).
type TaskResidency struct {
	// Run is the fraction of the task's observed running time per core type.
	Run map[platform.CoreType]float64
	// RunTicks counts ticks where the task was executing.
	RunTicks int
	// WaitTicks counts ticks where the task sat on a run queue without
	// executing.
	WaitTicks int
}

// WaitShare returns the fraction of the task's on-queue time spent waiting
// rather than running (0 when never observed on a queue).
func (t TaskResidency) WaitShare() float64 {
	if t.RunTicks+t.WaitTicks == 0 {
		return 0
	}
	return float64(t.WaitTicks) / float64(t.RunTicks+t.WaitTicks)
}

// Residency summarizes per-task core-type residency and runnable-wait over
// the window.
func (r *Recorder) Residency() map[string]TaskResidency {
	counts := map[int]map[platform.CoreType]int{}
	runs := map[int]int{}
	waits := map[int]int{}
	for _, s := range r.Samples {
		for core, id := range s.TaskOnCore {
			if id < 0 {
				continue
			}
			if counts[id] == nil {
				counts[id] = map[platform.CoreType]int{}
			}
			counts[id][r.sys.SoC.Cores[core].Type]++
			runs[id]++
		}
		for _, id := range s.Runnable {
			waits[id]++
		}
	}
	out := map[string]TaskResidency{}
	for id := range r.names {
		tr := TaskResidency{RunTicks: runs[id], WaitTicks: waits[id]}
		if runs[id] > 0 {
			tr.Run = map[platform.CoreType]float64{}
			for typ, n := range counts[id] {
				tr.Run[typ] = float64(n) / float64(runs[id])
			}
		}
		out[r.names[id]] = tr
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete slices, "i" instants,
// "C" counters), so recorded timelines open directly in chrome://tracing or
// Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"` // category, flow events only
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds, "X" only
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`   // flow binding, "s"/"f" only
	BP   string         `json:"bp,omitempty"`   // flow binding point, "f" only
	S    string         `json:"s,omitempty"`    // instant scope, "i" only
	Args map[string]any `json:"args,omitempty"` // counter values, instant detail
}

// ChromeTrace renders the recorded window as Chrome trace-event JSON: one
// track per core (tid = core id), one slice per contiguous run of a task,
// plus counter tracks for per-cluster MHz and total runnable tasks. When Tel
// is set, it also carries a power (mW) counter track and instant events for
// every migration and boost in the recorded window.
func (r *Recorder) ChromeTrace() ([]byte, error) {
	var events []chromeEvent
	if len(r.Samples) > 0 {
		nCores := len(r.Samples[0].TaskOnCore)
		for core := 0; core < nCores; core++ {
			runStart := -1
			runTask := -1
			flush := func(endIdx int) {
				if runTask < 0 || runStart < 0 {
					return
				}
				start := r.Samples[runStart].At
				end := r.Samples[endIdx-1].At + event.Millisecond
				events = append(events, chromeEvent{
					Name: r.names[runTask],
					Ph:   "X",
					Ts:   float64(start) / 1000,
					Dur:  float64(end-start) / 1000,
					PID:  1,
					TID:  core,
				})
			}
			for i, s := range r.Samples {
				t := s.TaskOnCore[core]
				if t != runTask {
					flush(i)
					runStart, runTask = i, t
				}
			}
			flush(len(r.Samples))
		}

		// Counter tracks, emitted on change only: per-cluster frequency and
		// total runnable tasks across all cores.
		soc := r.sys.SoC
		lastMHz := make([]int, len(soc.Clusters))
		for i := range lastMHz {
			lastMHz[i] = -1
		}
		lastRunnable := -1
		for _, s := range r.Samples {
			for ci, f := range s.ClusterMHz {
				if f != lastMHz[ci] {
					lastMHz[ci] = f
					events = append(events, chromeEvent{
						Name: fmt.Sprintf("%s MHz", soc.Clusters[ci].Type),
						Ph:   "C",
						Ts:   float64(s.At) / 1000,
						PID:  1,
						TID:  nCores + ci,
						Args: map[string]any{"MHz": f},
					})
				}
			}
			runnable := 0
			for _, q := range s.RunQueue {
				runnable += q
			}
			if runnable != lastRunnable {
				lastRunnable = runnable
				events = append(events, chromeEvent{
					Name: "runnable tasks",
					Ph:   "C",
					Ts:   float64(s.At) / 1000,
					PID:  1,
					TID:  nCores + len(soc.Clusters),
					Args: map[string]any{"tasks": runnable},
				})
			}
		}

		// Causal-chain flow arrows from the xray tracer: one s/f pair per
		// parent→child decision edge inside the recorded window. Spans land
		// on their core's track when they have one (wake, migration,
		// hotplug), else on their cluster's counter track.
		if r.Xray != nil {
			lo := r.Samples[0].At
			hi := r.Samples[len(r.Samples)-1].At + event.Millisecond
			dump := r.Xray.Dump()
			tidOf := func(s xray.Span) int {
				if s.Core >= 0 {
					return s.Core
				}
				return nCores + s.Cluster
			}
			for _, s := range dump.Spans {
				if s.Parent < 0 || s.At < lo || s.At >= hi {
					continue
				}
				p, ok := dump.Get(s.Parent)
				if !ok || p.At < lo || p.At >= hi {
					continue
				}
				name := fmt.Sprintf("xray %s->%s", p.Kind, s.Kind)
				events = append(events,
					chromeEvent{
						Name: name, Cat: "xray", Ph: "s", ID: s.ID,
						Ts: float64(p.At) / 1000, PID: 1, TID: tidOf(p),
					},
					chromeEvent{
						Name: name, Cat: "xray", Ph: "f", ID: s.ID, BP: "e",
						Ts: float64(s.At) / 1000, PID: 1, TID: tidOf(s),
						Args: map[string]any{"choice": s.Choice, "reason": s.Reason},
					})
			}
		}

		// Telemetry enrichment: instant events on the core tracks plus a
		// power counter track, limited to the recorded window.
		if r.Tel != nil {
			lo := r.Samples[0].At
			hi := r.Samples[len(r.Samples)-1].At + event.Millisecond
			for _, ev := range r.Tel.Events() {
				if ev.At < lo || ev.At >= hi {
					continue
				}
				switch ev.Kind {
				case telemetry.KindMigration:
					events = append(events, chromeEvent{
						Name: fmt.Sprintf("migrate %s (%s)", ev.TaskName, ev.Reason),
						Ph:   "i",
						Ts:   float64(ev.At) / 1000,
						PID:  1,
						TID:  ev.Core,
						S:    "t",
						Args: map[string]any{"from": ev.FromCore, "to": ev.Core, "reason": ev.Reason},
					})
				case telemetry.KindBoost:
					events = append(events, chromeEvent{
						Name: fmt.Sprintf("boost %s", ev.TaskName),
						Ph:   "i",
						Ts:   float64(ev.At) / 1000,
						PID:  1,
						TID:  ev.Core,
						S:    "t",
						Args: map[string]any{"load": ev.Value},
					})
				case telemetry.KindPower:
					events = append(events, chromeEvent{
						Name: "power mW",
						Ph:   "C",
						Ts:   float64(ev.At) / 1000,
						PID:  1,
						TID:  nCores + len(soc.Clusters) + 1,
						Args: map[string]any{"mW": ev.Value},
					})
				}
			}
		}
	}
	return json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
