// Package xray is the causal decision tracer — the fourth observability
// layer, above events (telemetry), attribution (profile), and live serving
// (blserve). Where telemetry records that a migration happened and why in
// one word, xray records the decision itself: every candidate core that was
// considered with its queue depth and load, every threshold that was
// compared, the choice, and the rejection reason for each alternative —
// then links decisions causally (wake → placement → migration → DVFS
// response → thermal throttle → emergency hotplug) so a chain can be walked
// in either direction.
//
// The disabled path follows the repo-wide nil-observer contract: every
// subsystem holds a *Tracer that defaults to nil and guards recording with
// a single pointer check, every Tracer method is safe on nil, and the
// nil path allocates nothing (TestNilTracerZeroAlloc pins that budget).
// The tracer is a pure observer — a traced run produces byte-identical
// results (TestXrayPureObserver in the root package pins this against the
// golden corpus).
//
// Memory is bounded: the tracer is a flight recorder keeping the most
// recent MaxSpans decisions in a ring; causal links to spans that have
// fallen out of the ring simply terminate the walk. Each ring slot owns the
// storage its span's inputs and candidates are copied into, and reuses it
// when the ring wraps, so once the ring is full an attached tracer records
// a decision without allocating.
package xray

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"biglittle/internal/event"
	"biglittle/internal/ring"
)

// Kind classifies a decision span.
type Kind int

const (
	// KindWake: a sleeping task was placed on a core (the placement
	// decision, with the full candidate set).
	KindWake Kind = iota
	// KindMigration: the scheduler moved a task between cores.
	KindMigration
	// KindFreq: a DVFS governor stepped a cluster's frequency.
	KindFreq
	// KindHotplug: a core went online or offline.
	KindHotplug
	// KindThrottle: the thermal governor stepped a cluster's frequency cap.
	KindThrottle
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindWake:
		return "wake"
	case KindMigration:
		return "migration"
	case KindFreq:
		return "freq"
	case KindHotplug:
		return "hotplug"
	case KindThrottle:
		return "throttle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its string name so dumps read naturally
// and survive renumbering.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the string names written by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i := Kind(0); i < numKinds; i++ {
		if i.String() == s {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("xray: unknown kind %q", s)
}

// Input is one named quantity the decision compared — a threshold, a load
// signal, a temperature. A slice (not a map) keeps JSON output and tests
// deterministic and readable.
type Input struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Candidate is one alternative the decision considered. Rejected is empty
// for the chosen candidate and a short reason for every loser.
type Candidate struct {
	// Core is the candidate core ID (or -1 for cluster-level alternatives).
	Core int `json:"core"`
	// Type is the core type name ("little", "big", "tiny").
	Type string `json:"type,omitempty"`
	// QueueLen is the candidate's run-queue depth at decision time.
	QueueLen int `json:"queue_len"`
	// Load carries a kind-specific signal: per-core utilization percent for
	// governor decisions, zero otherwise.
	Load float64 `json:"load,omitempty"`
	// TargetMHz is the per-core frequency target (governor decisions only).
	TargetMHz int `json:"target_mhz,omitempty"`
	// Rejected says why this candidate lost ("" = chosen).
	Rejected string `json:"rejected,omitempty"`
}

// Span is one recorded decision with its provenance.
type Span struct {
	ID int64 `json:"id"`
	// Parent is the causally preceding span's ID (-1 for a chain root).
	// Wake placements are roots; a migration's parent is the task's previous
	// placement; a governor step's parent is the last placement onto the
	// cluster (the load arrival that drove DVFS); a throttle's parent is the
	// cluster's last governor step (the activity that heated it); an
	// emergency hotplug's parent is the cluster's last throttle step.
	Parent int64      `json:"parent"`
	At     event.Time `json:"at"`
	Kind   Kind       `json:"kind"`
	// Task/TaskName identify the subject task (wake, migration); Task is -1
	// otherwise.
	Task     int    `json:"task"`
	TaskName string `json:"task_name,omitempty"`
	// Core is the destination/affected core; FromCore the origin (-1 when
	// not applicable).
	Core     int `json:"core"`
	FromCore int `json:"from_core"`
	// Cluster is the affected cluster (freq, throttle, hotplug), else -1.
	Cluster int `json:"cluster"`
	// PrevMHz/MHz are the previous and new frequency (freq) or cap
	// (throttle, 0 = released).
	PrevMHz int `json:"prev_mhz,omitempty"`
	MHz     int `json:"mhz,omitempty"`
	// Choice is a one-line human summary of what was decided.
	Choice string `json:"choice"`
	// Reason is the interned telemetry reason for the decision.
	Reason string `json:"reason,omitempty"`
	// Inputs are the signals and thresholds the decision compared.
	Inputs []Input `json:"inputs,omitempty"`
	// Candidates are the alternatives considered, chosen one included.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// DefaultMaxSpans bounds the flight-recorder ring (~8k decisions; a 30 s
// baseline run records a few thousand).
const DefaultMaxSpans = 8192

// Tracer records decision spans into a bounded ring and maintains the
// causal-link state. A nil *Tracer is valid everywhere and records nothing;
// every method is safe (and allocation-free) on nil.
//
// Like telemetry.Collector, the tracer assumes the single-threaded event
// engine and is not goroutine-safe.
type Tracer struct {
	// MaxSpans caps the ring (DefaultMaxSpans when zero; negative means
	// unbounded).
	MaxSpans int

	spans  ring.Ring[slot]
	nextID int64

	// choices holds every choice string Choice has rendered.
	choices map[choiceKey]string

	// Causal-link state: the last relevant span ID per task / cluster.
	lastByTask         map[int]int64
	lastTaskByCluster  map[int]int64
	lastFreqByCluster  map[int]int64
	lastThermByCluster map[int]int64
}

// slot is one ring entry: a span, and the buffers its Inputs and Candidates
// are copied into. The buffers outlive the span, so a span recorded over it
// when the ring wraps reuses them.
type slot struct {
	span   Span
	inputs []Input
	cands  []Candidate
}

// New returns an enabled tracer with the default ring bound.
func New() *Tracer {
	return &Tracer{
		choices:            map[choiceKey]string{},
		lastByTask:         map[int]int64{},
		lastTaskByCluster:  map[int]int64{},
		lastFreqByCluster:  map[int]int64{},
		lastThermByCluster: map[int]int64{},
	}
}

// record puts a span into the ring, assigning its ID. inputs and cands are
// copied into buffers the ring slot owns, so the caller keeps its slices.
func (x *Tracer) record(s Span, inputs []Input, cands []Candidate) int64 {
	s.ID = x.nextID
	x.nextID++
	sl := x.spans.Next(x.MaxSpans, DefaultMaxSpans)
	s.Inputs = own(&sl.inputs, inputs)
	s.Candidates = own(&sl.cands, cands)
	sl.span = s
	return s.ID
}

// own copies src into *buf, growing it only when src is longer than any
// slice it held before. A nil src stays nil.
func own[T any](buf *[]T, src []T) []T {
	switch {
	case src == nil:
		return nil
	case len(src) == 0:
		return []T{}
	}
	*buf = append((*buf)[:0], src...)
	return *buf
}

// choiceKey identifies one choice string: its format and arguments.
type choiceKey struct {
	format string
	ints   [3]int
	strs   [2]string
}

// Choice returns the text fmt.Sprintf(format, args...) would, for a format
// whose only verbs are %d, each taking the next of ints, and %s, each taking
// the next of strs. It renders each distinct choice once per tracer, into
// one allocation, and returns the same string after that, so an emitter
// recording a decision the tracer has seen before allocates no text.
// Returns "" on a nil tracer.
func (x *Tracer) Choice(format string, ints [3]int, strs [2]string) string {
	if x == nil {
		return ""
	}
	k := choiceKey{format, ints, strs}
	if c, ok := x.choices[k]; ok {
		return c
	}
	var b strings.Builder
	b.Grow(len(format) + 3*20 + len(strs[0]) + len(strs[1]))
	var num [20]byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 == len(format) {
			b.WriteByte(format[i])
			continue
		}
		switch i++; format[i] {
		case 'd':
			b.Write(strconv.AppendInt(num[:0], int64(ints[0]), 10))
			ints = [3]int{ints[1], ints[2]}
		case 's':
			b.WriteString(strs[0])
			strs = [2]string{strs[1]}
		}
	}
	c := b.String()
	x.choices[k] = c
	return c
}

func (x *Tracer) link(m map[int]int64, key int) int64 {
	if id, ok := m[key]; ok {
		return id
	}
	return -1
}

// Wake records a wake-placement decision: task woke and was placed on core
// (in cluster). Wake spans are causal-chain roots. Returns the span ID
// (-1 on a nil tracer).
//
// Wake and the other recording methods copy inputs and cands into storage
// the tracer owns, so emitters may pass scratch or stack slices and reuse
// them as soon as the call returns. A nil slice is recorded as nil.
func (x *Tracer) Wake(at event.Time, task int, name string, core, cluster int, choice, reason string, inputs []Input, cands []Candidate) int64 {
	if x == nil {
		return -1
	}
	id := x.record(Span{
		Parent: -1, At: at, Kind: KindWake,
		Task: task, TaskName: name,
		Core: core, FromCore: -1, Cluster: cluster,
		Choice: choice, Reason: reason,
	}, inputs, cands)
	x.lastByTask[task] = id
	x.lastTaskByCluster[cluster] = id
	return id
}

// Migration records a scheduler migration decision; its parent is the
// task's previous placement or migration span. inputs and cands are copied,
// as for Wake.
func (x *Tracer) Migration(at event.Time, task int, name string, from, to, cluster int, choice, reason string, inputs []Input, cands []Candidate) int64 {
	if x == nil {
		return -1
	}
	id := x.record(Span{
		Parent: x.link(x.lastByTask, task), At: at, Kind: KindMigration,
		Task: task, TaskName: name,
		Core: to, FromCore: from, Cluster: cluster,
		Choice: choice, Reason: reason,
	}, inputs, cands)
	x.lastByTask[task] = id
	x.lastTaskByCluster[cluster] = id
	return id
}

// FreqStep records a governor frequency decision for a cluster; its parent
// is the last task placement onto that cluster — the load arrival the
// governor is responding to. inputs and cands are copied, as for Wake.
func (x *Tracer) FreqStep(at event.Time, cluster, prevMHz, mhz int, choice, reason string, inputs []Input, cands []Candidate) int64 {
	if x == nil {
		return -1
	}
	id := x.record(Span{
		Parent: x.link(x.lastTaskByCluster, cluster), At: at, Kind: KindFreq,
		Task: -1, Core: -1, FromCore: -1, Cluster: cluster,
		PrevMHz: prevMHz, MHz: mhz,
		Choice: choice, Reason: reason,
	}, inputs, cands)
	x.lastFreqByCluster[cluster] = id
	return id
}

// Throttle records a thermal cap step for a cluster; its parent is the
// cluster's last governor step (the DVFS activity that heated it), falling
// back to the last task placement. inputs is copied, as for Wake.
func (x *Tracer) Throttle(at event.Time, cluster, capMHz int, choice, reason string, inputs []Input) int64 {
	if x == nil {
		return -1
	}
	parent := x.link(x.lastFreqByCluster, cluster)
	if parent < 0 {
		parent = x.link(x.lastTaskByCluster, cluster)
	}
	id := x.record(Span{
		Parent: parent, At: at, Kind: KindThrottle,
		Task: -1, Core: -1, FromCore: -1, Cluster: cluster,
		MHz:    capMHz,
		Choice: choice, Reason: reason,
	}, inputs, nil)
	x.lastThermByCluster[cluster] = id
	return id
}

// Hotplug records a core online/offline transition; its parent is the
// cluster's last throttle span when one exists (the emergency-hotplug
// chain), else -1 (manual hotplug). inputs is copied, as for Wake.
func (x *Tracer) Hotplug(at event.Time, core, cluster int, choice, reason string, inputs []Input) int64 {
	if x == nil {
		return -1
	}
	id := x.record(Span{
		Parent: x.link(x.lastThermByCluster, cluster), At: at, Kind: KindHotplug,
		Task: -1, Core: core, FromCore: -1, Cluster: cluster,
		Choice: choice, Reason: reason,
	}, inputs, nil)
	return id
}

// Len returns the number of spans currently held in the ring.
func (x *Tracer) Len() int {
	if x == nil {
		return 0
	}
	return x.spans.Len()
}

// Dropped returns how many spans fell out of the bounded ring.
func (x *Tracer) Dropped() int64 {
	if x == nil {
		return 0
	}
	return int64(x.spans.Dropped())
}

// Spans returns the retained spans in recording order. The copy is deep:
// it shares no storage with the ring, so recording more spans never changes
// it. The spans' Inputs are all carved from one array, and their Candidates
// from another.
func (x *Tracer) Spans() []Span {
	if x == nil || x.spans.Len() == 0 {
		return nil
	}
	out := make([]Span, x.spans.Len())
	var nIn, nCand int
	for i := range out {
		out[i] = x.spans.At(i).span
		nIn += len(out[i].Inputs)
		nCand += len(out[i].Candidates)
	}
	inputs, cands := make([]Input, 0, nIn), make([]Candidate, 0, nCand)
	for i := range out {
		s := &out[i]
		if s.Inputs != nil {
			n := len(inputs)
			inputs = append(inputs, s.Inputs...)
			s.Inputs = inputs[n:len(inputs):len(inputs)]
		}
		if s.Candidates != nil {
			n := len(cands)
			cands = append(cands, s.Candidates...)
			s.Candidates = cands[n:len(cands):len(cands)]
		}
	}
	return out
}

// Dump is the queryable snapshot of a tracer: the retained spans plus the
// drop count. It is what blxray consumes (via JSON) and what blserve serves
// at /xray.
type Dump struct {
	Spans   []Span `json:"spans"`
	Dropped int64  `json:"dropped"`
}

// Dump snapshots the tracer. Its spans are a deep copy, as Spans returns.
func (x *Tracer) Dump() Dump {
	return Dump{Spans: x.Spans(), Dropped: x.Dropped()}
}

// JSON renders the tracer's snapshot as indented JSON.
func (x *Tracer) JSON() ([]byte, error) {
	return json.MarshalIndent(x.Dump(), "", "  ")
}

// ParseDump reads a JSON dump written by Tracer.JSON (or served at /xray).
func ParseDump(data []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("xray: bad dump: %w", err)
	}
	return &d, nil
}

// Get returns the span with the given ID, if it is still retained.
func (d *Dump) Get(id int64) (Span, bool) {
	for _, s := range d.Spans {
		if s.ID == id {
			return s, true
		}
	}
	return Span{}, false
}

// Ancestors walks the causal chain backwards from id (exclusive): the
// span's parent, grandparent, ..., oldest retained first is NOT the order —
// the closest cause comes first. The walk stops at a chain root or at a
// parent that has fallen out of the ring.
func (d *Dump) Ancestors(id int64) []Span {
	var out []Span
	s, ok := d.Get(id)
	for ok && s.Parent >= 0 {
		s, ok = d.Get(s.Parent)
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// Descendants returns every retained span causally downstream of id
// (exclusive), in recording order — the forward walk of the chain.
func (d *Dump) Descendants(id int64) []Span {
	reach := map[int64]bool{id: true}
	var out []Span
	for _, s := range d.Spans {
		if s.Parent >= 0 && reach[s.Parent] {
			reach[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// ByKind returns the retained spans of one kind, in recording order.
func (d *Dump) ByKind(k Kind) []Span {
	var out []Span
	for _, s := range d.Spans {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// TaskSpanNear returns the wake/migration span for the named task closest
// to time at — the latest such span at or before `at`, else the earliest
// one after it. ok is false when the task has no retained placement spans.
func (d *Dump) TaskSpanNear(name string, at event.Time) (Span, bool) {
	var best Span
	found := false
	for _, s := range d.Spans {
		if s.TaskName != name || (s.Kind != KindWake && s.Kind != KindMigration) {
			continue
		}
		switch {
		case !found:
			best, found = s, true
		case best.At > at && s.At < best.At:
			// Anything earlier beats an after-`at` candidate.
			best = s
		case s.At <= at && s.At >= best.At:
			// Latest span at or before `at` wins.
			best = s
		}
	}
	return best, found
}

// Format renders one span as the multi-line text block blxray prints:
// header, inputs, and candidates with rejection reasons.
func (s Span) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s at %v", s.ID, s.Kind, s.Choice, s.At)
	if s.Reason != "" {
		b.WriteString(" (reason: " + s.Reason + ")")
	}
	b.WriteString("\n")
	if len(s.Inputs) > 0 {
		b.WriteString("  inputs:")
		for _, in := range s.Inputs {
			fmt.Fprintf(&b, " %s=%g", in.Name, in.Value)
		}
		b.WriteString("\n")
	}
	if len(s.Candidates) > 0 {
		b.WriteString("  candidates:\n")
		for _, c := range s.Candidates {
			fmt.Fprintf(&b, "    cpu%-2d %-7s queue=%d", c.Core, c.Type, c.QueueLen)
			if c.TargetMHz > 0 {
				fmt.Fprintf(&b, " util=%.0f%% target=%dMHz", c.Load, c.TargetMHz)
			}
			if c.Rejected == "" {
				b.WriteString("  CHOSEN\n")
			} else {
				b.WriteString("  rejected: " + c.Rejected + "\n")
			}
		}
	}
	return b.String()
}

// Line renders one span as the single-line summary blxray ls prints.
func (s Span) Line() string {
	who := ""
	if s.TaskName != "" {
		who = " " + s.TaskName
	}
	return fmt.Sprintf("#%-5d %-9s t=%-12v%s %s parent=%d", s.ID, s.Kind, s.At, who, s.Choice, s.Parent)
}

// SameDecision reports whether two spans record the same decision outcome:
// same kind, time, subject, placement, and frequency change. Span identity
// (ID, Parent) and provenance (Inputs, Candidates) are deliberately ignored —
// two runs with different tunables legitimately record different threshold
// inputs on every span, and candidate tables encode surrounding state; what
// makes a decision *divergent* is the outcome going a different way. Cross-run
// diffing (internal/delta) aligns span streams with this predicate and then
// reports the ignored provenance fields of the first non-matching pair.
func (s Span) SameDecision(o Span) bool {
	return s.Kind == o.Kind &&
		s.At == o.At &&
		s.Task == o.Task &&
		s.TaskName == o.TaskName &&
		s.Core == o.Core &&
		s.FromCore == o.FromCore &&
		s.Cluster == o.Cluster &&
		s.PrevMHz == o.PrevMHz &&
		s.MHz == o.MHz &&
		s.Choice == o.Choice &&
		s.Reason == o.Reason
}
