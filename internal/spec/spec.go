// Package spec loads application workload models from JSON, so new
// workloads can be defined and simulated without recompiling. The format
// mirrors the workload primitives: named threads, think-time interaction
// pipelines with boosts and IO delays, periodic activities, Poisson bursts,
// frame loops, background hum, and touch kicks.
//
// Example:
//
//	{
//	  "name": "chat_app",
//	  "metric": "latency",
//	  "threads": [
//	    {"name": "ui", "speedup": 1.5},
//	    {"name": "crypto", "speedup": 2.0}
//	  ],
//	  "interactions": [{
//	    "think_ms": 900, "think_cv": 0.5,
//	    "boost": ["ui"], "boost_load": 800,
//	    "stages": [
//	      {"threads": ["ui"], "work_mc": 1.2, "cv": 0.4},
//	      {"threads": ["crypto"], "work_mc": 8, "cv": 0.5, "post_delay_ms": 20}
//	    ]
//	  }],
//	  "poisson": [{"thread": "ui", "mean_ms": 200, "work_mc": 0.3, "cv": 0.5}],
//	  "hum": {"mean_ms": 10, "p2": 0.5, "p3": 0.1}
//	}
package spec

import (
	"encoding/json"
	"fmt"

	"biglittle/internal/apps"
	"biglittle/internal/event"
	"biglittle/internal/workload"
)

// File is the top-level JSON document.
type File struct {
	Name   string `json:"name"`
	Metric string `json:"metric"` // "latency" or "fps"

	Threads []ThreadSpec `json:"threads"`

	Interactions []InteractionSpec `json:"interactions,omitempty"`
	Periodics    []PeriodicSpec    `json:"periodics,omitempty"`
	Poisson      []PoissonSpec     `json:"poisson,omitempty"`
	Frames       *FrameSpec        `json:"frames,omitempty"`
	Hum          *HumSpec          `json:"hum,omitempty"`
	TouchKicksMs float64           `json:"touch_kicks_ms,omitempty"`
}

// ThreadSpec declares a named thread.
type ThreadSpec struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"`
}

// StageSpec is one pipeline stage.
type StageSpec struct {
	Threads     []string `json:"threads"`
	WorkMc      float64  `json:"work_mc"`
	CV          float64  `json:"cv,omitempty"`
	HeavyP      float64  `json:"heavy_p,omitempty"`
	HeavyMult   float64  `json:"heavy_mult,omitempty"`
	PostDelayMs float64  `json:"post_delay_ms,omitempty"`
}

// InteractionSpec is a think-time interaction loop.
type InteractionSpec struct {
	ThinkMs   float64     `json:"think_ms"`
	ThinkCV   float64     `json:"think_cv,omitempty"`
	Boost     []string    `json:"boost,omitempty"`
	BoostLoad int         `json:"boost_load,omitempty"`
	Silent    bool        `json:"silent,omitempty"`
	Stages    []StageSpec `json:"stages"`
}

// PeriodicSpec is a fixed-period activity.
type PeriodicSpec struct {
	Thread   string  `json:"thread"`
	PeriodMs float64 `json:"period_ms"`
	WorkMc   float64 `json:"work_mc"`
	CV       float64 `json:"cv,omitempty"`
}

// PoissonSpec is exponentially-spaced background activity.
type PoissonSpec struct {
	Thread string  `json:"thread"`
	MeanMs float64 `json:"mean_ms"`
	WorkMc float64 `json:"work_mc"`
	CV     float64 `json:"cv,omitempty"`
}

// FrameSpec is a frame pipeline (FPS apps).
type FrameSpec struct {
	PeriodMs    float64          `json:"period_ms"`
	Logic       FrameStageSpec   `json:"logic"`
	Parallel    []FrameStageSpec `json:"parallel,omitempty"`
	PauseGapMs  float64          `json:"pause_gap_ms,omitempty"`
	PauseMeanMs float64          `json:"pause_mean_ms,omitempty"`
}

// FrameStageSpec is one thread's per-frame work.
type FrameStageSpec struct {
	Thread string  `json:"thread"`
	WorkMc float64 `json:"work_mc"`
	CV     float64 `json:"cv,omitempty"`
}

// HumSpec is ambient background activity.
type HumSpec struct {
	MeanMs float64 `json:"mean_ms"`
	P2     float64 `json:"p2,omitempty"`
	P3     float64 `json:"p3,omitempty"`
}

func ms(v float64) event.Time { return event.Time(v * float64(event.Millisecond)) }

// lasts reports whether a period_ms of v lasts at least 1 ns once ms
// truncates it. A period that does not is refused like a missing one: its
// loop would fire forever at one instant.
func lasts(v float64) bool { return ms(v) > 0 }

// Parse validates a JSON workload document and compiles it to an App.
func Parse(data []byte) (apps.App, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return apps.App{}, fmt.Errorf("spec: %w", err)
	}
	return Compile(f)
}

// Compile validates a File and builds the App.
func Compile(f File) (apps.App, error) {
	if f.Name == "" {
		return apps.App{}, fmt.Errorf("spec: missing name")
	}
	var metric apps.Metric
	switch f.Metric {
	case "latency", "":
		metric = apps.Latency
	case "fps":
		metric = apps.FPS
	default:
		return apps.App{}, fmt.Errorf("spec: metric %q must be latency or fps", f.Metric)
	}
	if len(f.Threads) == 0 {
		return apps.App{}, fmt.Errorf("spec: at least one thread required")
	}
	declared := map[string]bool{}
	for _, th := range f.Threads {
		if th.Name == "" {
			return apps.App{}, fmt.Errorf("spec: thread with empty name")
		}
		if declared[th.Name] {
			return apps.App{}, fmt.Errorf("spec: duplicate thread %q", th.Name)
		}
		declared[th.Name] = true
	}
	resolve := func(where, name string) error {
		if !declared[name] {
			return fmt.Errorf("spec: %s references undeclared thread %q", where, name)
		}
		return nil
	}
	for i, in := range f.Interactions {
		if len(in.Stages) == 0 {
			return apps.App{}, fmt.Errorf("spec: interaction %d has no stages", i)
		}
		if in.ThinkMs <= 0 {
			return apps.App{}, fmt.Errorf("spec: interaction %d needs think_ms > 0", i)
		}
		for _, b := range in.Boost {
			if err := resolve("boost", b); err != nil {
				return apps.App{}, err
			}
		}
		for si, st := range in.Stages {
			if len(st.Threads) == 0 || st.WorkMc <= 0 {
				return apps.App{}, fmt.Errorf("spec: interaction %d stage %d needs threads and work_mc", i, si)
			}
			for _, name := range st.Threads {
				if err := resolve("stage", name); err != nil {
					return apps.App{}, err
				}
			}
		}
	}
	for i, p := range f.Periodics {
		if err := resolve("periodic", p.Thread); err != nil {
			return apps.App{}, err
		}
		if !lasts(p.PeriodMs) || p.WorkMc <= 0 {
			return apps.App{}, fmt.Errorf("spec: periodic %d needs period_ms of at least 1 ns and work_mc", i)
		}
	}
	for i, p := range f.Poisson {
		if err := resolve("poisson", p.Thread); err != nil {
			return apps.App{}, err
		}
		if p.MeanMs <= 0 || p.WorkMc <= 0 {
			return apps.App{}, fmt.Errorf("spec: poisson %d needs mean_ms and work_mc", i)
		}
	}
	if fr := f.Frames; fr != nil {
		if !lasts(fr.PeriodMs) {
			return apps.App{}, fmt.Errorf("spec: frames needs period_ms of at least 1 ns")
		}
		if err := resolve("frames.logic", fr.Logic.Thread); err != nil {
			return apps.App{}, err
		}
		for _, st := range fr.Parallel {
			if err := resolve("frames.parallel", st.Thread); err != nil {
				return apps.App{}, err
			}
		}
	}

	spec := f // captured copy
	return apps.App{
		Name:   spec.Name,
		Desc:   "loaded from spec",
		Metric: metric,
		Build:  func(ctx *workload.Ctx) { build(ctx, spec) },
	}, nil
}

func build(ctx *workload.Ctx, f File) {
	threads := map[string]*workload.Thread{}
	for _, th := range f.Threads {
		threads[th.Name] = workload.NewThread(ctx, f.Name+"."+th.Name, th.Speedup)
	}

	for _, in := range f.Interactions {
		var boost []*workload.Thread
		for _, b := range in.Boost {
			boost = append(boost, threads[b])
		}
		// The stage table is built once; the pipeline draws each
		// interaction's work afresh.
		stages := make([]workload.Stage, len(in.Stages))
		for i, st := range in.Stages {
			var ths []*workload.Thread
			for _, name := range st.Threads {
				ths = append(ths, threads[name])
			}
			stages[i] = workload.Stage{
				Threads:   ths,
				Work:      st.WorkMc * workload.Mc,
				CV:        st.CV,
				HeavyP:    st.HeavyP,
				HeavyMult: st.HeavyMult,
				PostDelay: ms(st.PostDelayMs),
			}
		}
		workload.InteractionLoop(ctx, workload.InteractionConfig{
			Think: ms(in.ThinkMs), ThinkCV: in.ThinkCV,
			Boost: boost, BoostLoad: in.BoostLoad, Silent: in.Silent,
			Stages: func() []workload.Stage { return stages },
		})
	}
	for _, p := range f.Periodics {
		workload.Periodic(ctx, threads[p.Thread], workload.PeriodicConfig{
			Period: ms(p.PeriodMs), Work: p.WorkMc * workload.Mc, CV: p.CV,
		})
	}
	for _, p := range f.Poisson {
		workload.PoissonBursts(ctx, threads[p.Thread], ms(p.MeanMs), p.WorkMc*workload.Mc, p.CV)
	}
	if fr := f.Frames; fr != nil {
		cfg := apps.FrameConfig{
			Period:    ms(fr.PeriodMs),
			Logic:     apps.FrameStageConfig{Thread: threads[fr.Logic.Thread], WorkMc: fr.Logic.WorkMc, CV: fr.Logic.CV},
			PauseGap:  ms(fr.PauseGapMs),
			PauseMean: ms(fr.PauseMeanMs),
		}
		for _, st := range fr.Parallel {
			cfg.Parallel = append(cfg.Parallel, apps.FrameStageConfig{
				Thread: threads[st.Thread], WorkMc: st.WorkMc, CV: st.CV,
			})
		}
		apps.FrameLoop(ctx, cfg)
	}
	if f.Hum != nil && f.Hum.MeanMs > 0 {
		apps.BackgroundHum(ctx, f.Name, ms(f.Hum.MeanMs), f.Hum.P2, f.Hum.P3)
	}
	if f.TouchKicksMs > 0 {
		workload.TouchKicks(ctx, ms(f.TouchKicksMs))
	}
}
