// Package apps models the twelve mobile benchmark applications of Table II
// as compositions of workload primitives: user-input interaction pipelines
// for the latency-oriented apps, frame chains with scene phases for the
// games and video apps, and continuous pipelines for the encoder. Each model
// is parameterized (thread counts, per-stage work, burst shapes, phase
// durations, background activity) to reproduce the app's characterization in
// Tables III-V: its idle fraction, big-core usage, and thread-level
// parallelism.
//
// Two modeling elements deserve a note:
//
//   - BackgroundHum stands in for the Android system services (input,
//     SurfaceFlinger, binder traffic, sensors) that keep one or two little
//     cores lightly active even when the foreground app is quiescent — this
//     is why the paper measures only 9-20% idle for apps whose foreground
//     work is rare.
//
//   - interaction Boost models Android's input boost: touch events raise the
//     responding threads' tracked load so they are immediately eligible for
//     a big core, producing the 5-15% big-core residency the paper observes
//     even for lightly loaded interactive apps.
//
// The models express CPU demand only — exactly what the HMP scheduler and
// interactive governor observe on the real device. Video decoding hardware
// is reflected by the tiny CPU-side work of the player apps (§VII notes
// special hardware "further reduces the CPU loads").
package apps

import (
	"fmt"

	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/workload"
)

// Metric tells which performance metric an app reports (Table II).
type Metric int

const (
	Latency Metric = iota
	FPS
)

func (m Metric) String() string {
	if m == FPS {
		return "FPS"
	}
	return "Latency"
}

// App is one benchmark application model.
type App struct {
	Name   string
	Desc   string
	Metric Metric
	// Build wires the app's threads and generators into the context.
	Build func(ctx *workload.Ctx)
}

const (
	ms = event.Millisecond
	mc = workload.Mc
)

// phase alternates a work parameter between a normal and a heavy scene, with
// exponentially distributed phase durations — combat versus exploration in a
// game, simple versus complex pages in a browser run.
type phase struct {
	cur    float64
	normal float64
	heavy  float64
}

func newPhase(ctx *workload.Ctx, normal, heavy float64, normalDur, heavyDur event.Time) *phase {
	p := &phase{cur: normal, normal: normal, heavy: heavy}
	// The scene schedule is user/content behaviour: draw it up front in
	// wall-clock time so runs compared across configurations see identical
	// phases (see newFrameChain's pause schedule for the same reasoning).
	toHeavy := func(event.Time) { p.cur = p.heavy }
	toNormal := func(event.Time) { p.cur = p.normal }
	t := ctx.Eng.Now()
	for t < ctx.Duration {
		t += ctx.Exp(normalDur)
		start := t
		t += ctx.Exp(heavyDur)
		end := t
		ctx.At(start, toHeavy)
		ctx.At(end, toNormal)
	}
	return p
}

// BackgroundHum models ambient Android system activity: a Poisson event
// stream (mean interval meanGap) where each event runs a sliver of work on a
// primary system thread, sometimes accompanied by a second (p2) and third
// (p3) thread — binder calls fan out across services. The slivers are tiny,
// so the hum keeps little cores at minimum frequency but marks them active
// in the 10 ms samples, reproducing the paper's low idle fractions and the
// Table V dominance of the "min" state. Its threads are named prefix.sys1
// to prefix.sys3, and its first event falls one gap after the build, so an
// app built mid-session hums from its own start.
func BackgroundHum(ctx *workload.Ctx, prefix string, meanGap event.Time, p2, p3 float64) {
	a := workload.NewThread(ctx, prefix+".sys1", 1.3)
	b := workload.NewThread(ctx, prefix+".sys2", 1.3)
	c := workload.NewThread(ctx, prefix+".sys3", 1.3)
	var arrive func(now event.Time)
	arrive = func(now event.Time) {
		if now >= ctx.Duration {
			return
		}
		a.Push(ctx.Jitter(0.25*mc, 0.5), nil)
		if ctx.Rng.Float64() < p2 {
			b.Push(ctx.Jitter(0.3*mc, 0.5), nil)
		}
		if ctx.Rng.Float64() < p3 {
			c.Push(ctx.Jitter(0.25*mc, 0.5), nil)
		}
		ctx.At(now+ctx.Exp(meanGap), arrive)
	}
	ctx.After(ctx.Exp(meanGap), arrive)
}

// frameStage is one thread's share of a frame: work draws its cycles.
type frameStage struct {
	th   *workload.Thread
	work func() float64
}

// frameChain is one game/video frame pipeline; see newFrameChain.
type frameChain struct {
	ctx      *workload.Ctx
	period   event.Time
	logic    frameStage
	parallel []frameStage
	pauses   []pause
	// Triple buffering: up to two frames may be in flight, each in one of
	// frames; free holds those not in flight.
	frames [2]frame
	free   []*frame
	tickFn func(now event.Time)
}

// pause is one user pause, [start, end).
type pause struct{ start, end event.Time }

// frame is one frame in flight. A chain's two frames and their callbacks are
// made at Build; a frame goes back to the chain's free list when its last
// stage completes, so the frame loop allocates nothing.
type frame struct {
	fc        *frameChain
	remaining int // parallel stages still working
	logicDone func(now event.Time)
	stageDone func(now event.Time)
}

// newFrameChain runs a game/video frame pipeline: every period, stage work
// flows logic -> (render ∥ helpers); a completed pipeline counts one frame.
// When the pipeline overruns the period the next frame is skipped (frame
// drop), which is how FPS degrades on slow cores. pauseGap inserts
// think-time gaps (menus, level loads) with mean pauseMean.
func newFrameChain(ctx *workload.Ctx, period event.Time, logic frameStage, parallel []frameStage,
	pauseGap, pauseMean event.Time) {

	fc := &frameChain{ctx: ctx, period: period, logic: logic, parallel: parallel}
	// A tick starts at most one frame, and ticks that start one are at least
	// a period apart, so the phase's frames fit in one reservation.
	if ctx.FPS != nil {
		ctx.FPS.Reserve(int((ctx.Duration-ctx.Eng.Now())/period) + 1)
	}
	// Pauses are user behaviour (menus, level loads): their schedule is
	// drawn up front in wall-clock time so that runs compared across core
	// configurations see the identical pause pattern.
	if pauseGap > 0 {
		for t := ctx.Eng.Now(); t < ctx.Duration; {
			t += ctx.Exp(pauseGap)
			end := t + ctx.Exp(pauseMean)
			fc.pauses = append(fc.pauses, pause{t, end})
			t = end
		}
	}
	fc.free = make([]*frame, 0, len(fc.frames))
	for i := range fc.frames {
		f := &fc.frames[i]
		f.fc = fc
		f.logicDone, f.stageDone = f.onLogic, f.onStage
		fc.free = append(fc.free, f)
	}
	fc.tickFn = fc.tick
	ctx.After(0, fc.tickFn)
}

// pausedUntil returns the end of the pause covering now, or 0.
func (fc *frameChain) pausedUntil(now event.Time) event.Time {
	for _, w := range fc.pauses {
		if now >= w.start && now < w.end {
			return w.end
		}
	}
	return 0
}

func (fc *frameChain) tick(now event.Time) {
	ctx := fc.ctx
	if now >= ctx.Duration {
		return
	}
	if end := fc.pausedUntil(now); end > 0 {
		ctx.At(end, fc.tickFn)
		return
	}
	ctx.At(now+fc.period, fc.tickFn)
	if len(fc.free) == 0 {
		return // frame dropped
	}
	f := fc.free[len(fc.free)-1]
	fc.free = fc.free[:len(fc.free)-1]
	fc.logic.th.Push(fc.logic.work(), f.logicDone)
}

func (f *frame) onLogic(event.Time) {
	fc := f.fc
	f.remaining = len(fc.parallel)
	if f.remaining == 0 {
		fc.finish(f, fc.ctx.Eng.Now())
		return
	}
	for _, st := range fc.parallel {
		st.th.Push(st.work(), f.stageDone)
	}
}

func (f *frame) onStage(fin event.Time) {
	f.remaining--
	if f.remaining == 0 {
		f.fc.finish(f, fin)
	}
}

// finish records f's frame as done at the given time and frees f for a
// later frame.
func (fc *frameChain) finish(f *frame, at event.Time) {
	fc.free = append(fc.free, f)
	if fc.ctx.FPS != nil {
		fc.ctx.FPS.FrameDone(at)
	}
}

// fixedStages returns an InteractionConfig.Stages yielding table, which is
// built once at Build: the pipeline draws each interaction's work afresh.
func fixedStages(table []workload.Stage) func() []workload.Stage {
	return func() []workload.Stage { return table }
}

func jit(ctx *workload.Ctx, mean, cv float64) func() float64 {
	return func() float64 { return ctx.Jitter(mean, cv) }
}

// All returns the twelve application models in Table II order.
func All() []App {
	return []App{
		PDFReader(), VideoEditor(), PhotoEditor(), BBench(), VirusScanner(),
		Browser(), Encoder(), AngryBird(), EternityWarrior(), FIFA15(),
		VideoPlayer(), Youtube(),
	}
}

// ByName returns the app model with the given name.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("apps: unknown app %q", name)
}

// LatencyApps returns the seven latency-oriented apps (Figure 4).
func LatencyApps() []App {
	var out []App
	for _, a := range All() {
		if a.Metric == Latency {
			out = append(out, a)
		}
	}
	return out
}

// FPSApps returns the five FPS-oriented apps (Figure 5).
func FPSApps() []App {
	var out []App
	for _, a := range All() {
		if a.Metric == FPS {
			out = append(out, a)
		}
	}
	return out
}

// PDFReader: open and read a PDF. Page turns trigger a boosted
// parse/render/raster pipeline; complex pages are several times heavier.
func PDFReader() App {
	return App{
		Name: "pdf_reader", Desc: "Open and read a pdf file", Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			ui := workload.NewThread(ctx, "pdf.ui", 1.5)
			parser := workload.NewThread(ctx, "pdf.parse", 1.7)
			render := workload.NewThread(ctx, "pdf.render", 1.8)
			raster := workload.NewThread(ctx, "pdf.raster", 1.8)
			compose := workload.NewThread(ctx, "pdf.compose", 1.5)

			workload.InteractionLoop(ctx, workload.InteractionConfig{
				Think: 420 * ms, ThinkCV: 0.5,
				Boost: []*workload.Thread{ui, parser, render}, BoostLoad: 1000,
				Stages: fixedStages([]workload.Stage{
					{Threads: []*workload.Thread{ui}, Work: 1.5 * mc, CV: 0.4},
					{Threads: []*workload.Thread{parser}, Work: 6 * mc, CV: 0.5, PostDelay: 6 * ms},
					{Threads: []*workload.Thread{render, raster}, Work: 11 * mc, CV: 0.5,
						HeavyP: 0.15, HeavyMult: 7, PostDelay: 8 * ms},
					{Threads: []*workload.Thread{compose}, Work: 2 * mc, CV: 0.3, PostDelay: 4 * ms},
				}),
			})
			BackgroundHum(ctx, "pdf", 6*ms, 0.55, 0.1)
		},
	}
}

// VideoEditor: edit a video file — scrub/seek interactions decode a few
// frames and apply an effect; exports are occasional heavy bursts.
func VideoEditor() App {
	return App{
		Name: "video_editor", Desc: "Edit a video file", Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			ui := workload.NewThread(ctx, "vedit.ui", 1.5)
			dec1 := workload.NewThread(ctx, "vedit.dec1", 2.0)
			dec2 := workload.NewThread(ctx, "vedit.dec2", 2.0)
			fx := workload.NewThread(ctx, "vedit.fx", 2.0)
			preview := workload.NewThread(ctx, "vedit.preview", 1.7)

			workload.InteractionLoop(ctx, workload.InteractionConfig{
				Think: 500 * ms, ThinkCV: 0.6,
				Boost: []*workload.Thread{ui, fx, dec1}, BoostLoad: 1000,
				Stages: fixedStages([]workload.Stage{
					{Threads: []*workload.Thread{ui}, Work: 1 * mc, CV: 0.4},
					{Threads: []*workload.Thread{dec1, dec2}, Work: 9 * mc, CV: 0.4, PostDelay: 18 * ms},
					{Threads: []*workload.Thread{fx}, Work: 16 * mc, CV: 0.5, HeavyP: 0.18, HeavyMult: 8, PostDelay: 10 * ms},
					{Threads: []*workload.Thread{preview}, Work: 5 * mc, CV: 0.4, PostDelay: 6 * ms},
				}),
			})
			BackgroundHum(ctx, "vedit", 7*ms, 0.6, 0.15)
		},
	}
}

// PhotoEditor: apply filters to a photo. Largely single-threaded — the app
// with the lowest TLP in Table III — with occasionally heavy filters.
func PhotoEditor() App {
	return App{
		Name: "photo_editor", Desc: "Edit a photo", Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			ui := workload.NewThread(ctx, "pedit.ui", 1.5)
			filter := workload.NewThread(ctx, "pedit.filter", 2.0)
			preview := workload.NewThread(ctx, "pedit.preview", 1.6)

			workload.InteractionLoop(ctx, workload.InteractionConfig{
				Think: 500 * ms, ThinkCV: 0.6,
				Boost: []*workload.Thread{filter}, BoostLoad: 760,
				Stages: fixedStages([]workload.Stage{
					{Threads: []*workload.Thread{ui}, Work: 1 * mc, CV: 0.4},
					{Threads: []*workload.Thread{filter}, Work: 22 * mc, CV: 0.5, HeavyP: 0.10, HeavyMult: 7, PostDelay: 16 * ms},
					{Threads: []*workload.Thread{preview}, Work: 2.5 * mc, CV: 0.3, PostDelay: 10 * ms},
				}),
			})
			BackgroundHum(ctx, "pedit", 4500*event.Microsecond, 0.15, 0)
		},
	}
}

// BBench: automated browser benchmark — back-to-back page loads with wide
// fan-out and a JavaScript thread heavy enough to live on a big core. The
// highest-TLP, lowest-idle app in the suite.
func BBench() App {
	return App{
		Name: "bbench", Desc: "Run bbench on chrome browser", Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			net1 := workload.NewThread(ctx, "bb.net1", 1.5)
			net2 := workload.NewThread(ctx, "bb.net2", 1.5)
			js := workload.NewThread(ctx, "bb.js", 1.9)
			layout := workload.NewThread(ctx, "bb.layout", 1.8)
			img1 := workload.NewThread(ctx, "bb.img1", 1.9)
			img2 := workload.NewThread(ctx, "bb.img2", 1.9)
			paint := workload.NewThread(ctx, "bb.paint", 1.7)
			comp := workload.NewThread(ctx, "bb.comp", 1.6)

			workload.InteractionLoop(ctx, workload.InteractionConfig{
				Think: 25 * ms, ThinkCV: 0.5,
				Boost: []*workload.Thread{js, layout, img1, img2}, BoostLoad: 820,
				Stages: fixedStages([]workload.Stage{
					{Threads: []*workload.Thread{net1, net2}, Work: 2.5 * mc, CV: 0.5, PostDelay: 18 * ms},
					{Threads: []*workload.Thread{js}, Work: 52 * mc, CV: 0.5, HeavyP: 0.3, HeavyMult: 2.5},
					{Threads: []*workload.Thread{layout, img1, img2, comp}, Work: 13 * mc, CV: 0.5, HeavyP: 0.15, HeavyMult: 2.5, PostDelay: 5 * ms},
					{Threads: []*workload.Thread{paint}, Work: 6 * mc, CV: 0.4, PostDelay: 5 * ms},
				}),
			})
			BackgroundHum(ctx, "bb", 5*ms, 0.9, 0.9)
		},
	}
}

// VirusScanner: scan applications and storage — a near-continuous pipeline
// of per-file IO + scan work where archives are much heavier, pulling a big
// core in for roughly a fifth of active cycles.
func VirusScanner() App {
	return App{
		Name: "virus_scanner", Desc: "Scan applications and storages", Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			io := workload.NewThread(ctx, "scan.io", 1.4)
			scan := workload.NewThread(ctx, "scan.engine", 1.9)
			hash := workload.NewThread(ctx, "scan.hash", 1.8)
			ui := workload.NewThread(ctx, "scan.ui", 1.4)

			workload.InteractionLoop(ctx, workload.InteractionConfig{
				Think: 18 * ms, ThinkCV: 0.8,
				Stages: fixedStages([]workload.Stage{
					{Threads: []*workload.Thread{io}, Work: 1 * mc, CV: 0.5, PostDelay: 4 * ms},
					{Threads: []*workload.Thread{scan, hash}, Work: 8 * mc, CV: 0.6, HeavyP: 0.13, HeavyMult: 12, PostDelay: 7 * ms},
				}),
			})
			workload.Periodic(ctx, ui, workload.PeriodicConfig{Period: 400 * ms, Work: 1 * mc, CV: 0.3})
			BackgroundHum(ctx, "scan", 7*ms, 0.4, 0.1)
		},
	}
}

// Browser: interactive browsing with human think time — the idlest app in
// the suite (Table III: 53% idle), loading a page every couple of seconds.
func Browser() App {
	return App{
		Name: "browser", Desc: "Visit a site on chrome browser", Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			input := workload.NewThread(ctx, "br.input", 1.5)
			net := workload.NewThread(ctx, "br.net", 1.5)
			js := workload.NewThread(ctx, "br.js", 1.9)
			layout := workload.NewThread(ctx, "br.layout", 1.8)
			img := workload.NewThread(ctx, "br.img", 1.9)
			paint := workload.NewThread(ctx, "br.paint", 1.7)

			workload.InteractionLoop(ctx, workload.InteractionConfig{
				Think: 1800 * ms, ThinkCV: 0.5,
				Boost: []*workload.Thread{js, layout}, BoostLoad: 790,
				Stages: fixedStages([]workload.Stage{
					{Threads: []*workload.Thread{input}, Work: 0.8 * mc, CV: 0.4},
					{Threads: []*workload.Thread{net}, Work: 3 * mc, CV: 0.6, PostDelay: 35 * ms},
					{Threads: []*workload.Thread{js, layout}, Work: 9 * mc, CV: 0.6, HeavyP: 0.15, HeavyMult: 7, PostDelay: 6 * ms},
					{Threads: []*workload.Thread{img, paint}, Work: 5 * mc, CV: 0.5, PostDelay: 5 * ms},
				}),
			})
			workload.InteractionLoop(ctx, workload.InteractionConfig{
				Think: 420 * ms, ThinkCV: 0.7, Silent: true,
				Boost: []*workload.Thread{js}, BoostLoad: 760,
				Stages: fixedStages([]workload.Stage{
					{Threads: []*workload.Thread{input}, Work: 0.4 * mc, CV: 0.4},
					{Threads: []*workload.Thread{js}, Work: 2.2 * mc, CV: 0.5},
				}),
			})
			BackgroundHum(ctx, "br", 19*ms, 0.75, 0.2)
		},
	}
}

// Encoder: encode a file — one CPU-bound worker interleaving compute chunks
// with short IO waits, plus a light reader. The compute thread's sustained
// load promotes it to a big core for most of the run.
func Encoder() App {
	return App{
		Name: "encoder", Desc: "Encode a file", Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			enc := workload.NewThread(ctx, "enc.worker", 1.6)
			reader := workload.NewThread(ctx, "enc.reader", 1.4)

			// Chunk pipeline: CPU chunk then an IO gap; latency is recorded
			// per chunk so the scenario latency is the sum. One chunk is in
			// flight at a time, so its callbacks are bound once.
			var start event.Time // when the chunk in flight began
			var chunk, read, done func(now event.Time)
			chunk = func(now event.Time) {
				if now >= ctx.Duration {
					return
				}
				start = now
				// Read wait, then the CPU chunk; the latency of a chunk
				// includes both, as on the real device.
				ctx.At(now+ctx.Exp(15*ms), read)
			}
			read = func(event.Time) {
				reader.Push(1.2*mc, nil)
				enc.Push(ctx.Jitter(45*mc, 0.3), done)
			}
			done = func(fin event.Time) {
				if ctx.Lat != nil {
					ctx.Lat.Record(fin - start)
				}
				chunk(fin)
			}
			ctx.After(5*ms, chunk)
			BackgroundHum(ctx, "enc", 12*ms, 0.15, 0)
		},
	}
}

// AngryBird: 2D physics shooter at 60 FPS. Per-frame work is far below the
// little cores' capacity, so big cores are essentially never used
// (Table III: 0.11% big) despite a TLP of ~2.3.
func AngryBird() App {
	return App{
		Name: "angry_bird", Desc: "Shooting game with physics engine", Metric: FPS,
		Build: func(ctx *workload.Ctx) {
			logic := workload.NewThread(ctx, "ab.logic", 1.6)
			physics := workload.NewThread(ctx, "ab.physics", 1.7)
			render := workload.NewThread(ctx, "ab.render", 1.7)
			audio := workload.NewThread(ctx, "ab.audio", 1.3)

			newFrameChain(ctx, 16667000,
				frameStage{logic, jit(ctx, 3.8*mc, 0.35)},
				[]frameStage{
					{render, jit(ctx, 3.2*mc, 0.3)},
				},
				2400*ms, 380*ms)
			workload.PoissonBursts(ctx, physics, 120*ms, 1.5*mc, 0.5)
			workload.Periodic(ctx, audio, workload.PeriodicConfig{Period: 23 * ms, Work: 0.4 * mc, CV: 0.3})
			workload.TouchKicks(ctx, 420*ms)
			BackgroundHum(ctx, "ab", 14*ms, 0.25, 0)
		},
	}
}

// EternityWarrior: 3D action RPG — the most CPU-intensive game. Combat
// scenes roughly double the render load, which then exceeds little-core
// capacity and migrates to a big core (Table III: 27% big).
func EternityWarrior() App {
	return App{
		Name: "eternity_warrior", Desc: "3D action RPG game", Metric: FPS,
		Build: func(ctx *workload.Ctx) {
			logic := workload.NewThread(ctx, "ew.logic", 1.7)
			render := workload.NewThread(ctx, "ew.render", 1.9)
			physics := workload.NewThread(ctx, "ew.physics", 1.7)
			audio := workload.NewThread(ctx, "ew.audio", 1.3)

			scene := newPhase(ctx, 7*mc, 28*mc, 4000*ms, 2000*ms)
			newFrameChain(ctx, 16667000,
				frameStage{logic, jit(ctx, 2.8*mc, 0.3)},
				[]frameStage{
					{render, func() float64 { return ctx.Jitter(scene.cur, 0.25) }},
					{physics, jit(ctx, 2.6*mc, 0.4)},
				},
				1850*ms, 350*ms)
			workload.Periodic(ctx, audio, workload.PeriodicConfig{Period: 23 * ms, Work: 0.5 * mc, CV: 0.3})
			workload.TouchKicks(ctx, 380*ms)
			BackgroundHum(ctx, "ew", 12*ms, 0.4, 0.1)
		},
	}
}

// FIFA15: 3D sports game at 30 FPS with heavy match-action scenes.
func FIFA15() App {
	return App{
		Name: "fifa15", Desc: "3D sport game", Metric: FPS,
		Build: func(ctx *workload.Ctx) {
			logic := workload.NewThread(ctx, "ff.logic", 1.7)
			render := workload.NewThread(ctx, "ff.render", 1.9)
			ai := workload.NewThread(ctx, "ff.ai", 1.7)
			audio := workload.NewThread(ctx, "ff.audio", 1.3)

			scene := newPhase(ctx, 8*mc, 52*mc, 5200*ms, 1100*ms)
			newFrameChain(ctx, 33333000,
				frameStage{logic, jit(ctx, 3.5*mc, 0.3)},
				[]frameStage{
					{render, func() float64 { return ctx.Jitter(scene.cur, 0.3) }},
					{ai, jit(ctx, 3*mc, 0.5)},
				},
				3300*ms, 900*ms)
			workload.Periodic(ctx, audio, workload.PeriodicConfig{Period: 23 * ms, Work: 0.5 * mc, CV: 0.3})
			workload.TouchKicks(ctx, 500*ms)
			BackgroundHum(ctx, "ff", 13*ms, 0.4, 0.1)
		},
	}
}

// VideoPlayer: play a local video. Hardware decoding leaves only a light
// CPU-side pipeline (sync, render submission, audio) at 30 FPS — little
// cores at low frequency absorb nearly everything.
func VideoPlayer() App {
	return App{
		Name: "video_player", Desc: "Play a video file", Metric: FPS,
		Build: func(ctx *workload.Ctx) {
			demux := workload.NewThread(ctx, "vp.demux", 1.4)
			sync := workload.NewThread(ctx, "vp.sync", 1.4)
			render := workload.NewThread(ctx, "vp.render", 1.5)
			audio := workload.NewThread(ctx, "vp.audio", 1.3)

			newFrameChain(ctx, 33333000,
				frameStage{demux, jit(ctx, 0.9*mc, 0.4)},
				[]frameStage{
					{sync, jit(ctx, 0.35*mc, 0.3)},
					{render, jit(ctx, 0.9*mc, 0.3)},
				},
				33000*ms, 400*ms)
			workload.Periodic(ctx, audio, workload.PeriodicConfig{Period: 46 * ms, Work: 0.5 * mc, CV: 0.3})
			BackgroundHum(ctx, "vp", 8*ms, 0.45, 0.1)
		},
	}
}

// Youtube: search and stream a video — the video-player pipeline plus
// network buffering bursts.
func Youtube() App {
	return App{
		Name: "youtube", Desc: "Search and play a video", Metric: FPS,
		Build: func(ctx *workload.Ctx) {
			demux := workload.NewThread(ctx, "yt.demux", 1.4)
			sync := workload.NewThread(ctx, "yt.sync", 1.4)
			render := workload.NewThread(ctx, "yt.render", 1.5)
			audio := workload.NewThread(ctx, "yt.audio", 1.3)
			net := workload.NewThread(ctx, "yt.net", 1.4)

			newFrameChain(ctx, 33333000,
				frameStage{demux, jit(ctx, 0.9*mc, 0.4)},
				[]frameStage{
					{sync, jit(ctx, 0.35*mc, 0.3)},
					{render, jit(ctx, 0.9*mc, 0.3)},
				},
				33000*ms, 400*ms)
			workload.Periodic(ctx, audio, workload.PeriodicConfig{Period: 46 * ms, Work: 0.5 * mc, CV: 0.3})
			workload.PoissonBursts(ctx, net, 450*ms, 1.8*mc, 0.6)
			BackgroundHum(ctx, "yt", 8500*event.Microsecond, 0.45, 0.1)
		},
	}
}

// Stress returns a synthetic stress test: n CPU-bound threads running
// flat out for the whole duration (speedup 2.0 so HMP sends them to big
// cores). Used by the thermal study — mobile interactive apps never
// sustain enough power to throttle, a stress load does.
func Stress(n int) App {
	return App{
		Name:   fmt.Sprintf("stress_%d", n),
		Desc:   fmt.Sprintf("%d sustained CPU-bound threads", n),
		Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			for i := 0; i < n; i++ {
				th := workload.NewThread(ctx, fmt.Sprintf("stress.%d", i), 2.0)
				workload.Continuous(ctx, th, 50*mc)
			}
		},
	}
}

// Micro returns the CPU-utilization microbenchmark of §III-B: a single
// thread alternating busy and idle periods to hold a target duty cycle.
// The busy work is sized against the given frequency so the duty cycle is
// exact at that pinned frequency. pinCore >= 0 pins the spinner to one core
// (the paper runs the microbenchmark on a single core of each type).
func Micro(dutyPct, pinnedMHz, pinCore int) App {
	period := 10 * ms
	return App{
		Name:   fmt.Sprintf("micro_%d", dutyPct),
		Desc:   fmt.Sprintf("utilization microbenchmark at %d%%", dutyPct),
		Metric: Latency,
		Build: func(ctx *workload.Ctx) {
			th := workload.NewThread(ctx, "micro.spin", 1.0)
			if pinCore >= 0 {
				th.Task.Pin(pinCore)
			}
			work := workload.CyclesForDuty(float64(dutyPct)/100, pinnedMHz, period)
			workload.Periodic(ctx, th, workload.PeriodicConfig{Period: period, Work: work})
		},
	}
}

// Composite runs several app models concurrently — a foreground app (whose
// latency/FPS metrics are the ones reported) plus background apps whose
// metrics are discarded. It models multitasking scenarios such as music
// streaming behind a browser; the paper notes the limited screen keeps
// simultaneously active apps rare, which is why its study is single-app.
func Composite(name string, foreground App, background ...App) App {
	metric := foreground.Metric
	return App{
		Name:   name,
		Desc:   "composite: " + foreground.Name + " + background",
		Metric: metric,
		Build: func(ctx *workload.Ctx) {
			foreground.Build(ctx)
			for _, bg := range background {
				shadow := *ctx
				shadow.FPS = &metrics.FPSTracker{}
				shadow.Lat = &metrics.LatencyTracker{}
				bg.Build(&shadow)
			}
		},
	}
}

// FrameConfig describes a public frame-style pipeline for custom apps (the
// bundled game models use the same machinery with scene phases).
type FrameConfig struct {
	Period event.Time
	// Logic runs first each frame; Parallel stages run concurrently after.
	Logic    FrameStageConfig
	Parallel []FrameStageConfig
	// PauseGap/PauseMean insert user pauses (0 disables).
	PauseGap  event.Time
	PauseMean event.Time
}

// FrameStageConfig is one thread's per-frame work.
type FrameStageConfig struct {
	Thread *workload.Thread
	WorkMc float64
	CV     float64
}

// FrameLoop runs a frame pipeline per cfg, counting completed frames in
// ctx.FPS. Frames drop when more than two are in flight.
func FrameLoop(ctx *workload.Ctx, cfg FrameConfig) {
	par := make([]frameStage, len(cfg.Parallel))
	for i, st := range cfg.Parallel {
		par[i] = frameStage{st.Thread, jit(ctx, st.WorkMc*mc, st.CV)}
	}
	newFrameChain(ctx, cfg.Period,
		frameStage{cfg.Logic.Thread, jit(ctx, cfg.Logic.WorkMc*mc, cfg.Logic.CV)},
		par, cfg.PauseGap, cfg.PauseMean)
}
