// Command blsim runs one simulation and attaches any observer to it. The
// simulation is one application model on one platform configuration, or
// with -phases a multi-app usage session. A run prints its full
// characterization: performance, power, TLP, core-usage matrix, efficiency
// states, and frequency residency; a session prints per-phase power,
// performance and battery drain.
//
// Knobs are set with -set, in the key=value vocabulary bldiff, blsweep and
// blexplore share. The observers are the invariant auditor (-check), the
// causal decision tracer (-xray), event-level telemetry (-telemetry and its
// dumps) and a systrace-style per-core timeline of one window (-trace).
//
// Usage:
//
//	blsim -app bbench -set cores=L4+B1,governor=ondemand -duration 30s
//	blsim -app eternity_warrior -duration 6s -trace 5s:300ms -chrome trace.json
//	blsim -app youtube -telemetry -prom -
//	blsim -phases browser:20s,pdf_reader:15s,eternity_warrior:20s -check
//	blsim -phases browser:2s,fifa15:2s -trace 1500ms:1s
//	blsim -list
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"biglittle"
	"biglittle/internal/cli"
	"biglittle/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := biglittle.DefaultConfig(biglittle.App{})
	fs := flag.NewFlagSet("blsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName  = fs.String("app", "pdf_reader", "application model to run (see -list)")
		specFile = fs.String("spec", "", "load the application from a JSON workload spec instead")
		list     = fs.Bool("list", false, "list application models and exit")
		phases   = fs.String("phases", "", "run a session of comma-separated app:duration phases instead of one app")
		duration = fs.Duration("duration", time.Duration(cfg.Duration), "simulated duration")
		set      = fs.String("set", "", "knob overrides key=value,... (cores, governor, scheduler, up, down, halflife-ms, sample-ms, target-load, ...)")
		matrix   = fs.Bool("matrix", false, "print the Table IV active-core matrix")
		asJSON   = fs.Bool("json", false, "emit the full result as JSON instead of text")
		doCheck  = fs.Bool("check", false, "audit the run with the invariant checker; exit 2 on any violation")
		xrayFile = fs.String("xray", "", "record causal decision spans and write the JSON dump to this file (query with blxray)")
		doTel    = fs.Bool("telemetry", false, "print the telemetry summary: event counts, migration reasons, frequency transitions, latency percentiles")
		telCSV   = fs.String("telemetry-csv", "", "write the raw telemetry event log as CSV to this file")
		telJSON  = fs.String("telemetry-json", "", "write the telemetry events and metric registries as JSON to this file")
		prom     = fs.String("prom", "", "write the metric registries in Prometheus text format to this file (\"-\" = stdout)")
		window   = fs.String("trace", "", "render the per-core timeline of the window FROM:LENGTH, e.g. 5s:300ms")
		width    = fs.Int("width", 120, "maximum -trace timeline columns (0 = one per tick)")
		chrome   = fs.String("chrome", "", "write the -trace window as Chrome trace-event JSON (open in chrome://tracing)")
	)
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "blsim: "+format+"\n", a...)
		return 2
	}

	if *list {
		for _, a := range biglittle.Apps() {
			fmt.Fprintf(stdout, "%-18s %-8s %s\n", a.Name, a.Metric, a.Desc)
		}
		return 0
	}

	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if *phases != "" {
		// A session takes its apps and its length from the phases, and
		// reports per-phase rows rather than one app's characterization.
		for _, name := range []string{"app", "spec", "duration", "matrix"} {
			if given[name] {
				return usage("-%s does not apply to a session (-phases)", name)
			}
		}
	}
	if *window == "" && (given["width"] || given["chrome"]) {
		return usage("-width and -chrome need a -trace window")
	}
	telemetry := *doTel || *telCSV != "" || *telJSON != "" || *prom != ""
	if *asJSON && (telemetry || *window != "") {
		return usage("-json prints only the result; drop the telemetry flags and -trace")
	}
	if err := cli.ApplyOverrides(&cfg, *set); err != nil {
		return fail(err)
	}

	// The timeline's Chrome export draws migrations, boosts and power from
	// the telemetry log, so -trace attaches telemetry too.
	if telemetry || *window != "" {
		cfg.Telemetry = biglittle.NewTelemetry()
	}
	if *xrayFile != "" {
		cfg.Xray = biglittle.NewXray()
	}
	var aud *biglittle.Auditor
	if *doCheck {
		aud = biglittle.NewAuditor()
		cfg.Check = aud
	}

	var (
		r   biglittle.Result
		sr  biglittle.SessionResult
		rec *biglittle.TraceRecorder
	)
	if *window != "" {
		from, to, err := parseWindow(*window)
		if err != nil {
			return usage("%v", err)
		}
		cfg.OnSystem = func(sys *biglittle.SchedSystem) {
			rec = biglittle.AttachTrace(sys, from, to)
		}
	}
	if *phases != "" {
		ph, err := cli.ParsePhases(*phases)
		if err != nil {
			return fail(err)
		}
		cfg.Phases = ph
		sr = biglittle.RunSession(cfg)
		cfg.Duration = sr.Duration
	} else {
		var err error
		if *specFile != "" {
			data, rerr := os.ReadFile(*specFile)
			if rerr != nil {
				return fail(rerr)
			}
			cfg.App, err = biglittle.LoadSpec(data)
		} else {
			cfg.App, err = biglittle.AppByName(*appName)
		}
		if err != nil {
			return fail(err)
		}
		cfg.Duration = biglittle.Time(duration.Nanoseconds())
		r = biglittle.Run(cfg)
	}
	if rec != nil && len(rec.Samples) == 0 {
		return usage("no timeline samples: the -trace window %s lies beyond the run duration %v; lower it or lengthen the run",
			*window, time.Duration(cfg.Duration))
	}

	if xr := cfg.Xray; xr != nil {
		data, err := xr.JSON()
		if err == nil {
			err = os.WriteFile(*xrayFile, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "xray: %d spans (%d dropped) -> %s\n", xr.Len(), xr.Dropped(), *xrayFile)
	}

	if aud != nil {
		rep := aud.Report()
		if *phases == "" {
			rep.Violations = append(rep.Violations, biglittle.CheckResult(r)...)
		}
		fmt.Fprint(stderr, rep.String())
		if !rep.Ok() {
			return 2
		}
	}

	if *asJSON {
		var v any = r
		if *phases != "" {
			v = sr
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return fail(err)
		}
		return 0
	}

	if *phases != "" {
		fmt.Fprint(stdout, biglittle.RenderSession(sr))
		fmt.Fprintf(stdout, "\nbattery at this mix: %.1f hours of continuous use\n",
			biglittle.GalaxyS5Pack().HoursAt(sr.AvgPowerMW))
	} else {
		printRun(stdout, r, *duration, cfg.Seed, *matrix)
	}

	tel := cfg.Telemetry
	if *doTel {
		fmt.Fprint(stdout, "\n"+tel.Summary(cfg.Duration))
		if *phases == "" {
			fmt.Fprintf(stdout, "\nscheduler cross-check: Result.HMPMigrations=%d telemetry=%d\n",
				r.HMPMigrations, tel.HMPMigrations())
		}
	}
	if err := writeTelemetry(stdout, tel, *telCSV, *telJSON, *prom); err != nil {
		return fail(err)
	}

	if rec != nil {
		fmt.Fprintln(stdout)
		if err := printTimeline(stdout, rec, *width, *chrome); err != nil {
			return fail(err)
		}
	}
	return 0
}

// printRun writes a single run's characterization report.
func printRun(w io.Writer, r biglittle.Result, duration time.Duration, seed int64, matrix bool) {
	fmt.Fprintf(w, "app: %s (%s) on %s for %v, seed %d\n", r.App, r.Metric, r.Cores, duration, seed)
	if r.Metric == biglittle.FPS {
		fmt.Fprintf(w, "performance: %.1f avg FPS, %.1f min FPS (%d frames)\n", r.AvgFPS, r.MinFPS, r.Frames)
	} else {
		fmt.Fprintf(w, "performance: %v mean latency, %v worst (%d interactions)\n",
			r.MeanLatency, r.WorstLatency, r.Interactions)
	}
	fmt.Fprintf(w, "power: %.0f mW average, %.1f J total\n", r.AvgPowerMW, r.EnergyMJ/1000)
	fmt.Fprintf(w, "TLP: %.2f   idle %.1f%%   little-only %.1f%%   big-active %.1f%%\n",
		r.TLP.TLP, r.TLP.IdlePct, r.TLP.LittleOnlyPct, r.TLP.BigPct)
	fmt.Fprintf(w, "efficiency states: min %.1f%%  <50%% %.1f%%  <70%% %.1f%%  70-95%% %.1f%%  >95%% %.1f%%  full %.1f%%\n",
		r.Eff[0], r.Eff[1], r.Eff[2], r.Eff[3], r.Eff[4], r.Eff[5])
	fmt.Fprintf(w, "HMP migrations: %d\n", r.HMPMigrations)

	if matrix {
		fmt.Fprintln(w, biglittle.RenderTable4(r))
	}
	fmt.Fprintln(w, "little cluster residency (%, by MHz):")
	for i, f := range r.LittleFreqs {
		fmt.Fprintf(w, "  %4d: %5.1f\n", f, r.LittleResidency[i])
	}
	fmt.Fprintln(w, "big cluster residency (%, by MHz):")
	for i, f := range r.BigFreqs {
		fmt.Fprintf(w, "  %4d: %5.1f\n", f, r.BigResidency[i])
	}
}

// writeTelemetry writes the requested telemetry dumps, noting each file on w;
// a "-" Prometheus path writes the text to w itself.
func writeTelemetry(w io.Writer, tel *biglittle.Telemetry, csvPath, jsonPath, promPath string) error {
	if csvPath != "" {
		if err := writeFile(csvPath, tel.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d events)\n", csvPath, len(tel.Events()))
	}
	if jsonPath != "" {
		data, err := tel.JSON()
		if err == nil {
			err = os.WriteFile(jsonPath, data, 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d bytes)\n", jsonPath, len(data))
	}
	switch promPath {
	case "":
	case "-":
		return tel.WritePrometheus(w)
	default:
		if err := writeFile(promPath, tel.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", promPath)
	}
	return nil
}

// writeFile writes what write produces to the file at path.
func writeFile(path string, write func(io.Writer) error) error {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// parseWindow parses a -trace FROM:LENGTH window into its [from, to) bounds.
func parseWindow(s string) (from, to biglittle.Time, err error) {
	fromS, lenS, ok := strings.Cut(s, ":")
	f, ferr := time.ParseDuration(fromS)
	l, lerr := time.ParseDuration(lenS)
	if !ok || ferr != nil || lerr != nil || f < 0 || l <= 0 {
		return 0, 0, fmt.Errorf("bad -trace window %q (want FROM:LENGTH, e.g. 5s:300ms)", s)
	}
	return biglittle.Time(f.Nanoseconds()), biglittle.Time((f + l).Nanoseconds()), nil
}

// printTimeline writes the recorded window: the Chrome export's note when
// chromePath is set, the timeline, and each thread's core-type residency and
// runnable-wait share.
func printTimeline(w io.Writer, rec *biglittle.TraceRecorder, width int, chromePath string) error {
	if chromePath != "" {
		data, err := rec.ChromeTrace()
		if err == nil {
			err = os.WriteFile(chromePath, data, 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d bytes)\n", chromePath, len(data))
	}
	fmt.Fprint(w, rec.Render(width))

	fmt.Fprintln(w, "\nper-thread core-type residency and runnable-wait in window:")
	res := rec.Residency()
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr := res[name]
		fmt.Fprintf(w, "  %-20s", name)
		for _, typ := range []platform.CoreType{platform.Little, platform.Big, platform.Tiny} {
			if frac, ok := tr.Run[typ]; ok {
				fmt.Fprintf(w, " %v %.0f%%", typ, 100*frac)
			}
		}
		if tr.WaitTicks > 0 {
			fmt.Fprintf(w, "  (waited %.0f%% of %d on-queue ticks)",
				100*tr.WaitShare(), tr.RunTicks+tr.WaitTicks)
		}
		fmt.Fprintln(w)
	}
	return nil
}
