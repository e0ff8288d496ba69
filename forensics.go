package biglittle

import (
	"fmt"
	"strings"

	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/profile"
	"biglittle/internal/xray"
)

// DigestRecorder folds a rolling hash of simulator state into chained
// per-window digests — the run's fingerprint and the substrate cross-run
// diffing bisects. Set one as Config.Digest. Like the other observers it is
// pure: a digested run produces byte-identical results, and nil disables
// recording at zero cost.
type DigestRecorder = delta.Recorder

// DigestChain is a sealed digest chain: one cumulative digest per window.
type DigestChain = delta.Chain

// FieldDelta is one differing field between two structurally diffed values.
type FieldDelta = delta.FieldDelta

// DiffTolerance marks when a numeric difference counts as significant.
type DiffTolerance = delta.Tolerance

// NewDigestRecorder returns a recorder with the default ~1k-window chain.
func NewDigestRecorder() *DigestRecorder { return &delta.Recorder{} }

// FirstDivergentWindow returns the first window where two digest chains
// disagree, or -1 when one is a prefix of the other.
func FirstDivergentWindow(a, b DigestChain) (int, error) {
	return delta.FirstDivergentWindow(a, b)
}

// DiffValues structurally diffs two values of the same type (results,
// snapshots, steps), returning every differing exported field with numeric
// differences marked for significance against tol.
func DiffValues(a, b any, tol DiffTolerance) []FieldDelta { return delta.Diff(a, b, tol) }

// SignificantDeltas filters a delta list down to the significant entries.
func SignificantDeltas(ds []FieldDelta) []FieldDelta { return delta.Significant(ds) }

// DiffSummary renders up to max deltas one per line ("(no differences)" for
// an empty list; max <= 0 prints all).
func DiffSummary(ds []FieldDelta, max int) string { return delta.Summarize(ds, max) }

// FirstDivergentXraySpan aligns two span streams and returns the index of
// the first pair that is not the same decision (span identity and
// provenance ignored), or -1, false for identical decision sequences.
func FirstDivergentXraySpan(a, b []XraySpan) (int, bool) { return delta.FirstDivergentSpan(a, b) }

// DiffXraySpanProvenance reports the inputs and candidate-table differences
// of an aligned span pair — the "why" behind a divergent decision.
func DiffXraySpanProvenance(a, b XraySpan, tol DiffTolerance) []FieldDelta {
	return delta.DiffSpanProvenance(a, b, tol)
}

// ExplainTextDiff names the first divergence between two rendered texts at
// line and field granularity ("" when identical) — what golden-master
// failures and bldiff golden print instead of an opaque byte mismatch.
func ExplainTextDiff(want, got string) string { return delta.ExplainTextDiff(want, got) }

// GoldenDuration is the per-config duration the golden-master corpus pins.
const GoldenDuration = 4 * Second

// RenderGolden is the golden corpus's compact, fully deterministic view of
// one result. It prints through %v/%.3f only — no maps, no pointers — so
// equal results always render to equal bytes. golden_test.go and `bldiff
// golden` share this renderer, keeping the corpus and the forensic tool
// locked to one format.
func RenderGolden(cc CoreConfig, r Result) string {
	var b strings.Builder
	perf := fmt.Sprintf("fps=%.3f min=%.3f frames=%d", r.AvgFPS, r.MinFPS, r.Frames)
	if r.Metric == Latency {
		perf = fmt.Sprintf("lat=%v worst=%v n=%d", r.MeanLatency, r.WorstLatency, r.Interactions)
	}
	fmt.Fprintf(&b, "%v: %s power=%.3fmW energy=%.3fmJ work=%.3fGc mig=%d\n",
		cc, perf, r.AvgPowerMW, r.EnergyMJ, r.TotalWorkGc, r.HMPMigrations)
	fmt.Fprintf(&b, "  tlp=%.4f idle=%.3f%% littleonly=%.3f%% big=%.3f%% lutil=%.4f butil=%.4f\n",
		r.TLP.TLP, r.TLP.IdlePct, r.TLP.LittleOnlyPct, r.TLP.BigPct, r.AvgLittleUtil, r.AvgBigUtil)
	fmt.Fprintf(&b, "  eff=[%.3f %.3f %.3f %.3f %.3f %.3f]\n",
		r.Eff[0], r.Eff[1], r.Eff[2], r.Eff[3], r.Eff[4], r.Eff[5])
	b.WriteString("  lres=")
	for i, v := range r.LittleResidency {
		fmt.Fprintf(&b, "%d:%.2f ", r.LittleFreqs[i], v)
	}
	b.WriteString("\n  bres=")
	for i, v := range r.BigResidency {
		fmt.Fprintf(&b, "%d:%.2f ", r.BigFreqs[i], v)
	}
	b.WriteString("\n")
	return b.String()
}

// DiffOptions tunes a DiffRuns comparison.
type DiffOptions struct {
	// Windows is the digest-chain length (default ~1k).
	Windows int
	// Tol marks when end-metric differences count as significant. The zero
	// value means exact.
	Tol DiffTolerance
	// LabelA/LabelB name the two sides in the rendered report.
	LabelA, LabelB string
}

// DiffReport is the outcome of a DiffRuns comparison: where two runs first
// diverged (window, tick, and decision), why (the provenance that differed),
// and what followed (end-metric and attribution deltas).
type DiffReport struct {
	LabelA, LabelB string
	App            string
	Duration       Time
	// Window is the digest window length; Windows the chain length compared.
	Window  Time
	Windows int
	// FingerprintA/B are the whole-run digests.
	FingerprintA, FingerprintB uint64
	// Identical is true when the digest chains agree everywhere; the rest of
	// the divergence fields are then zero.
	Identical bool
	// DivergentWindow is the first window whose digests differ (-1 when
	// identical); [WindowStart, WindowEnd) are its bounds.
	DivergentWindow        int
	WindowStart, WindowEnd Time
	// SpanIndex is the position of the first divergent decision in both
	// (index-aligned) span streams; -1 when the streams record identical
	// decision sequences (state diverged without a recorded decision).
	SpanIndex int
	// SpanA/SpanB are the decisions at SpanIndex (nil on a side whose
	// stream ended before SpanIndex).
	SpanA, SpanB *XraySpan
	// ProvenanceDeltas are the inputs and candidate-table differences of
	// the divergent pair — why the same decision point went differently.
	ProvenanceDeltas []FieldDelta
	// ChainA/ChainB walk each divergent decision's causal ancestors
	// (oldest first, divergent span last).
	ChainA, ChainB []XraySpan
	// StepAt is the first tick whose full-rate digests differ inside the
	// divergent window; StepDeltas name the state components that moved.
	StepAt     Time
	StepDeltas []FieldDelta
	// ResultDeltas and ProfileDeltas are the end-of-run differences that
	// follow from the divergence (all fields, significance marked).
	ResultDeltas  []FieldDelta
	ProfileDeltas []FieldDelta
	// ResultA/ResultB are the two final results.
	ResultA, ResultB Result
}

// DiffRuns runs both configurations and locates their first divergence in
// two passes: a cheap digest-chain pass finds the first window in which
// simulator state differs, then both sides re-run (determinism makes the
// replay exact) with an unbounded xray tracer, a profiler, and full-rate
// state capture over that window to isolate the first divergent decision.
// Both configs must share one duration; any observers on them must be nil
// (DiffRuns installs its own).
func DiffRuns(a, b Config, opt DiffOptions) (*DiffReport, error) {
	a, b = a.Normalized(), b.Normalized()
	if a.Duration != b.Duration {
		return nil, fmt.Errorf("biglittle: DiffRuns needs equal durations (%v vs %v); diff results directly instead", a.Duration, b.Duration)
	}
	for side, cfg := range map[string]Config{"A": a, "B": b} {
		if cfg.Digest != nil || cfg.Xray != nil || cfg.Profiler != nil || cfg.Telemetry != nil || cfg.OnSystem != nil {
			return nil, fmt.Errorf("biglittle: DiffRuns config %s already carries an observer; DiffRuns installs its own", side)
		}
	}
	windows := opt.Windows
	if windows <= 0 {
		windows = delta.DefaultWindows
	}
	window := a.Duration / event.Time(windows)

	rep := &DiffReport{
		LabelA: opt.LabelA, LabelB: opt.LabelB,
		App: a.App.Name, Duration: a.Duration,
		DivergentWindow: -1, SpanIndex: -1,
	}
	if rep.LabelA == "" {
		rep.LabelA = "A"
	}
	if rep.LabelB == "" {
		rep.LabelB = "B"
	}

	// Pass 1: digest chains only.
	recA := &delta.Recorder{Window: window}
	recB := &delta.Recorder{Window: window}
	cfgA, cfgB := a, b
	cfgA.Digest, cfgB.Digest = recA, recB
	rep.ResultA = Run(cfgA)
	rep.ResultB = Run(cfgB)
	chA, chB := recA.Chain(), recB.Chain()
	rep.Window = recA.ResolvedWindow()
	rep.Windows = len(chA.Digests)
	rep.FingerprintA, rep.FingerprintB = chA.Fingerprint(), chB.Fingerprint()
	rep.ResultDeltas = delta.Diff(rep.ResultA, rep.ResultB, opt.Tol)

	idx, err := delta.FirstDivergentWindow(chA, chB)
	if err != nil {
		return nil, err
	}
	if idx < 0 {
		rep.Identical = true
		return rep, nil
	}
	rep.DivergentWindow = idx
	rep.WindowStart = rep.Window * event.Time(idx)
	rep.WindowEnd = rep.WindowStart + rep.Window

	// Pass 2: replay both sides with decision tracing and full-rate state
	// capture over the divergent window. Unbounded span retention is safe —
	// a 30 s run records a few thousand decisions.
	run2 := func(cfg Config) (*xray.Dump, []delta.Step, *profile.Snapshot) {
		rec := &delta.Recorder{Window: window, FullFrom: rep.WindowStart, FullTo: rep.WindowEnd}
		xr := xray.New()
		xr.MaxSpans = -1
		cfg.Digest, cfg.Xray, cfg.Profiler = rec, xr, profile.New()
		res := Run(cfg)
		d := xr.Dump()
		return &d, rec.Steps(), res.Profile
	}
	dumpA, stepsA, profA := run2(a)
	dumpB, stepsB, profB := run2(b)

	if profA != nil && profB != nil {
		rep.ProfileDeltas = delta.DiffProfiles(*profA, *profB, opt.Tol)
	}

	// First divergent decision over the full streams: every decision before
	// the divergent window matched (state was identical), so the first
	// non-matching pair is the first decision that went differently.
	if si, ok := delta.FirstDivergentSpan(dumpA.Spans, dumpB.Spans); ok {
		rep.SpanIndex = si
		if si < len(dumpA.Spans) {
			s := dumpA.Spans[si]
			rep.SpanA = &s
			rep.ChainA = causalChain(dumpA, s)
		}
		if si < len(dumpB.Spans) {
			s := dumpB.Spans[si]
			rep.SpanB = &s
			rep.ChainB = causalChain(dumpB, s)
		}
		if rep.SpanA != nil && rep.SpanB != nil {
			rep.ProvenanceDeltas = delta.DiffSpanProvenance(*rep.SpanA, *rep.SpanB, opt.Tol)
		}
	}

	// First divergent tick inside the window, by per-tick digest.
	n := len(stepsA)
	if len(stepsB) < n {
		n = len(stepsB)
	}
	for i := 0; i < n; i++ {
		if stepsA[i].Digest != stepsB[i].Digest {
			rep.StepAt = stepsA[i].At
			rep.StepDeltas = delta.Diff(stepsA[i], stepsB[i], opt.Tol)
			break
		}
	}
	return rep, nil
}

// Render formats the report as the two-column forensic text bldiff prints.
func (r *DiffReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bldiff: %s, %v, %d windows of %v\n", r.App, r.Duration, r.Windows, r.Window)
	fmt.Fprintf(&b, "fingerprints: %s=%016x %s=%016x\n", r.LabelA, r.FingerprintA, r.LabelB, r.FingerprintB)
	if r.Identical {
		b.WriteString("identical: digest chains agree on every window\n")
		return b.String()
	}
	fmt.Fprintf(&b, "first divergent window: #%d [%v, %v)\n", r.DivergentWindow, r.WindowStart, r.WindowEnd)

	if r.SpanIndex >= 0 {
		fmt.Fprintf(&b, "\nfirst divergent decision (span stream index %d):\n", r.SpanIndex)
		b.WriteString(sideBySide(r.LabelA, r.LabelB, spanText(r.SpanA), spanText(r.SpanB)))
		if len(r.ProvenanceDeltas) > 0 {
			fmt.Fprintf(&b, "\ninputs and candidates that differed (%s -> %s):\n%s",
				r.LabelA, r.LabelB, DiffSummary(r.ProvenanceDeltas, 12))
		}
		if len(r.ChainA) > 1 || len(r.ChainB) > 1 {
			fmt.Fprintf(&b, "\ncausal chain to the divergent decision:\n")
			b.WriteString(sideBySide(r.LabelA, r.LabelB, chainText(r.ChainA), chainText(r.ChainB)))
		}
	} else {
		b.WriteString("\nno decision-level divergence recorded; state diverged between decisions\n")
	}

	if len(r.StepDeltas) > 0 {
		fmt.Fprintf(&b, "\nstate components at the first divergent tick (t=%v, %s -> %s):\n%s",
			r.StepAt, r.LabelA, r.LabelB, DiffSummary(significantFirst(r.StepDeltas), 12))
	}

	sig := SignificantDeltas(r.ResultDeltas)
	fmt.Fprintf(&b, "\nmetric deltas that follow (%s -> %s, %d significant of %d):\n%s",
		r.LabelA, r.LabelB, len(sig), len(r.ResultDeltas), DiffSummary(sig, 16))
	return b.String()
}

// causalChain walks s's ancestry and returns the chain oldest-cause first
// with s itself last (Dump.Ancestors is exclusive and closest-first).
func causalChain(d *xray.Dump, s xray.Span) []xray.Span {
	anc := d.Ancestors(s.ID)
	out := make([]xray.Span, 0, len(anc)+1)
	for i := len(anc) - 1; i >= 0; i-- {
		out = append(out, anc[i])
	}
	return append(out, s)
}

// significantFirst orders a delta list with significant entries first,
// preserving relative order within each class.
func significantFirst(ds []FieldDelta) []FieldDelta {
	out := make([]FieldDelta, 0, len(ds))
	for _, d := range ds {
		if d.Significant {
			out = append(out, d)
		}
	}
	for _, d := range ds {
		if !d.Significant {
			out = append(out, d)
		}
	}
	return out
}

func spanText(s *XraySpan) string {
	if s == nil {
		return "(no corresponding decision; stream ended)"
	}
	return strings.TrimRight(s.Format(), "\n")
}

func chainText(spans []XraySpan) string {
	if len(spans) == 0 {
		return "(none)"
	}
	var b strings.Builder
	for i, s := range spans {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(s.Line())
	}
	return b.String()
}

// sideBySide renders two blocks in labeled columns.
func sideBySide(labelA, labelB, a, b string) string {
	la := strings.Split(a, "\n")
	lb := strings.Split(b, "\n")
	width := len(labelA) + 4
	for _, l := range la {
		if len(l) > width {
			width = len(l)
		}
	}
	if width > 56 {
		width = 56
	}
	var out strings.Builder
	fmt.Fprintf(&out, "  %-*s | %s\n", width, "--- "+labelA+" ---", "--- "+labelB+" ---")
	n := len(la)
	if len(lb) > n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		va, vb := "", ""
		if i < len(la) {
			va = la[i]
		}
		if i < len(lb) {
			vb = lb[i]
		}
		if len(va) > width {
			va = va[:width-1] + "…"
		}
		fmt.Fprintf(&out, "  %-*s | %s\n", width, va, vb)
	}
	return out.String()
}
