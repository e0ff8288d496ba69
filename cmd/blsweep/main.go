// Command blsweep sweeps one scheduler or governor parameter across a range
// of values for one app (or all twelve) and emits CSV — the raw material
// behind Figures 11-13 style studies, for plotting or regression tracking.
//
// Sweeps run through the experiment orchestrator: fanned out over -workers
// simulations and memoized in the result cache, so re-sweeping overlapping
// ranges only simulates the new points.
//
// Usage:
//
//	blsweep -param sample-ms -values 10,20,40,60,80,100 -app bbench
//	blsweep -param up -values 500,600,700,800,900 > sweep.csv
//	blsweep -param governor -values interactive,ondemand,conservative
//
// -param takes any key of the override vocabulary bldiff -a/-b and blexplore
// -dim share (up, down, halflife-ms, sample-ms, target-load, governor, ...),
// and each value goes through the same parser.
//
// With -fork-at, the sweep is snapshot-accelerated: one warmed prefix per
// app (the config with the swept parameter at its default) runs to the fork
// time, and every swept value resumes from that shared snapshot — the knob
// takes effect at the fork point, isolating its post-warmup effect and
// collapsing N full runs into one prefix plus N cheap continuations. The
// swept key must be a policy knob: an identity key (cores, seed) cannot
// resume from another config's prefix, and the sweep fails.
//
//	blsweep -param sample-ms -values 10,20,40,60,80,100 -fork-at 10s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"biglittle"
	"biglittle/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ex := cli.RegisterExperiment(fs, 15*time.Second)
	var (
		param   = fs.String("param", "sample-ms", "override key to sweep: up, down, halflife-ms, sample-ms, target-load, governor, ... (the bldiff -a/-b vocabulary)")
		values  = fs.String("values", "10,20,40,60,80,100", "comma-separated values")
		appName = fs.String("app", "", "single app (default: all twelve)")
		forkAt  = fs.Duration("fork-at", 0, "snapshot-accelerate the sweep: fork each value from a shared prefix warmed to this time (0 = off; swept values take effect at the fork point)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if strings.ContainsAny(*param, ",=") {
		fmt.Fprintf(stderr, "blsweep: -param %q: want a single override key\n", *param)
		return 1
	}
	var vals []string
	for _, v := range strings.Split(*values, ",") {
		if v = strings.TrimSpace(v); v != "" {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		fmt.Fprintf(stderr, "blsweep: -values: empty value list %q (nothing to sweep)\n", *values)
		return 1
	}
	appsToRun, err := cli.ResolveApps(*appName)
	if err != nil {
		fmt.Fprintln(stderr, "blsweep:", err)
		return 1
	}
	if *forkAt != 0 && (*forkAt < 0 || *forkAt >= ex.Duration) {
		fmt.Fprintf(stderr, "blsweep: -fork-at %v must fall inside the run (0, %v)\n", *forkAt, ex.Duration)
		return 1
	}
	var jobs []biglittle.LabJob
	for _, app := range appsToRun {
		base := biglittle.DefaultConfig(app)
		base.Seed = ex.Seed
		base.Duration = biglittle.Time(ex.Duration.Nanoseconds())
		var spec *biglittle.LabForkSpec
		if *forkAt > 0 {
			spec = &biglittle.LabForkSpec{Base: base, At: biglittle.Time(forkAt.Nanoseconds())}
		}
		for _, v := range vals {
			cfg := base
			if err := cli.ApplyOverrides(&cfg, *param+"="+v); err != nil {
				fmt.Fprintln(stderr, "blsweep:", err)
				return 1
			}
			jobs = append(jobs, biglittle.LabJob{Config: cfg, Fork: spec})
		}
	}
	runner, err := ex.Runner()
	if err != nil {
		fmt.Fprintln(stderr, "blsweep:", err)
		return 1
	}
	start := time.Now()
	results, err := runner.RunAll(jobs)
	if err != nil {
		fmt.Fprintln(stderr, "blsweep:", err)
		return 1
	}

	fmt.Fprintf(stdout, "app,metric,%s,avg_power_mw,energy_j,mean_latency_ms,avg_fps,min_fps,tlp,big_pct,migrations\n", *param)
	for ai := range appsToRun {
		for vi, v := range vals {
			r := results[ai*len(vals)+vi]
			fmt.Fprintf(stdout, "%s,%s,%s,%.1f,%.3f,%.2f,%.2f,%.2f,%.3f,%.2f,%d\n",
				r.App, r.Metric, v,
				r.AvgPowerMW, r.EnergyMJ/1000,
				r.MeanLatency.Milliseconds(), r.AvgFPS, r.MinFPS,
				r.TLP.TLP, r.TLP.BigPct, r.HMPMigrations)
		}
	}
	cli.PrintLabStats(stderr, runner, time.Since(start))
	return 0
}
