// Command blsim runs one application model on one platform configuration
// and prints its full characterization: performance, power, TLP, core-usage
// matrix, efficiency states, and frequency residency.
//
// Usage:
//
//	blsim -app bbench -cores L4+B1 -duration 30s -governor interactive
//	blsim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"biglittle"
	"biglittle/internal/cli"
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
		cores    = fs.String("cores", cfg.Cores.String(), "hotplug configuration, e.g. L2, L4+B1")
		duration = fs.Duration("duration", time.Duration(cfg.Duration), "simulated duration")
		gov      = fs.String("governor", cfg.Governor.String(), "governor: interactive|performance|powersave|userspace|ondemand|conservative|past")
		matrix   = fs.Bool("matrix", false, "print the Table IV active-core matrix")
		asJSON   = fs.Bool("json", false, "emit the full result as JSON instead of text")
		doCheck  = fs.Bool("check", false, "audit the run with the invariant checker; exit 2 on any violation")
		xrayFile = fs.String("xray", "", "record causal decision spans and write the JSON dump to this file (query with blxray)")
	)
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload random seed")
	fs.IntVar(&cfg.Gov.SampleMs, "sample-ms", cfg.Gov.SampleMs, "governor sampling interval (ms)")
	fs.IntVar(&cfg.Gov.TargetLoad, "target-load", cfg.Gov.TargetLoad, "interactive governor target load (%)")
	fs.IntVar(&cfg.Sched.UpThreshold, "up", cfg.Sched.UpThreshold, "HMP up-threshold (of 1024)")
	fs.IntVar(&cfg.Sched.DownThreshold, "down", cfg.Sched.DownThreshold, "HMP down-threshold (of 1024)")
	fs.IntVar(&cfg.Sched.HalfLifeMs, "weight", cfg.Sched.HalfLifeMs, "HMP load history half-life (ms)")
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

	if *list {
		for _, a := range biglittle.Apps() {
			fmt.Fprintf(stdout, "%-18s %-8s %s\n", a.Name, a.Metric, a.Desc)
		}
		return 0
	}

	var app biglittle.App
	var err error
	if *specFile != "" {
		data, rerr := os.ReadFile(*specFile)
		if rerr != nil {
			return fail(rerr)
		}
		app, err = biglittle.LoadSpec(data)
	} else {
		app, err = biglittle.AppByName(*appName)
	}
	if err != nil {
		return fail(err)
	}
	cc, err := biglittle.ParseCoreConfig(*cores)
	if err != nil {
		return fail(err)
	}

	cfg.App = app
	cfg.Duration = biglittle.Time(duration.Nanoseconds())
	cfg.Cores = cc
	if cfg.Governor, err = cli.ParseGovernor(*gov); err != nil {
		return fail(err)
	}

	var aud *biglittle.Auditor
	if *doCheck {
		aud = biglittle.NewAuditor()
		cfg.Check = aud
	}

	var xr *biglittle.Xray
	if *xrayFile != "" {
		xr = biglittle.NewXray()
		cfg.Xray = xr
	}

	r := biglittle.Run(cfg)

	if xr != nil {
		data, err := xr.JSON()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*xrayFile, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "xray: %d spans (%d dropped) -> %s\n", xr.Len(), xr.Dropped(), *xrayFile)
	}

	if aud != nil {
		rep := aud.Report()
		rep.Violations = append(rep.Violations, biglittle.CheckResult(r)...)
		fmt.Fprint(stderr, rep.String())
		if !rep.Ok() {
			return 2
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "app: %s (%s) on %s for %v, seed %d\n", r.App, r.Metric, r.Cores, duration, cfg.Seed)
	if r.Metric == biglittle.FPS {
		fmt.Fprintf(stdout, "performance: %.1f avg FPS, %.1f min FPS (%d frames)\n", r.AvgFPS, r.MinFPS, r.Frames)
	} else {
		fmt.Fprintf(stdout, "performance: %v mean latency, %v worst (%d interactions)\n",
			r.MeanLatency, r.WorstLatency, r.Interactions)
	}
	fmt.Fprintf(stdout, "power: %.0f mW average, %.1f J total\n", r.AvgPowerMW, r.EnergyMJ/1000)
	fmt.Fprintf(stdout, "TLP: %.2f   idle %.1f%%   little-only %.1f%%   big-active %.1f%%\n",
		r.TLP.TLP, r.TLP.IdlePct, r.TLP.LittleOnlyPct, r.TLP.BigPct)
	fmt.Fprintf(stdout, "efficiency states: min %.1f%%  <50%% %.1f%%  <70%% %.1f%%  70-95%% %.1f%%  >95%% %.1f%%  full %.1f%%\n",
		r.Eff[0], r.Eff[1], r.Eff[2], r.Eff[3], r.Eff[4], r.Eff[5])
	fmt.Fprintf(stdout, "HMP migrations: %d\n", r.HMPMigrations)

	if *matrix {
		fmt.Fprintln(stdout, biglittle.RenderTable4(r))
	}
	fmt.Fprintln(stdout, "little cluster residency (%, by MHz):")
	for i, f := range r.LittleFreqs {
		fmt.Fprintf(stdout, "  %4d: %5.1f\n", f, r.LittleResidency[i])
	}
	fmt.Fprintln(stdout, "big cluster residency (%, by MHz):")
	for i, f := range r.BigFreqs {
		fmt.Fprintf(stdout, "  %4d: %5.1f\n", f, r.BigResidency[i])
	}
	return 0
}
