// Command blmetrics runs one application model with full telemetry enabled
// and reports the event-level view of the run: per-kind event counts,
// migration reasons and rate, the frequency-transition histogram, and
// latency/frame-time percentiles. The raw event log and metric registries
// can be dumped as CSV or JSON for offline analysis.
//
// Usage:
//
//	blmetrics -app bbench -duration 30s
//	blmetrics -app angry_birds -csv events.csv -json metrics.json
//	blmetrics -app youtube -prom -        # Prometheus text format to stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"biglittle"
)

func main() {
	cfg := biglittle.DefaultConfig(biglittle.App{})
	var (
		appName  = flag.String("app", "bbench", "application model to run")
		cores    = flag.String("cores", cfg.Cores.String(), "hotplug configuration")
		duration = flag.Duration("duration", time.Duration(cfg.Duration), "simulated run duration")
		csvPath  = flag.String("csv", "", "write the raw event log as CSV")
		jsonPath = flag.String("json", "", "write events + metric registries as JSON")
		promPath = flag.String("prom", "", "write the metric registries in Prometheus text format (\"-\" = stdout)")
	)
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload random seed")
	flag.Parse()

	app, err := biglittle.AppByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cc, err := biglittle.ParseCoreConfig(*cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg.App = app
	cfg.Cores = cc
	cfg.Duration = biglittle.Time(duration.Nanoseconds())

	tel := biglittle.NewTelemetry()
	cfg.Telemetry = tel

	res := biglittle.Run(cfg)

	fmt.Printf("%s on %s, %v, seed %d\n\n", app.Name, *cores, *duration, cfg.Seed)
	fmt.Print(tel.Summary(cfg.Duration))
	fmt.Printf("\nscheduler cross-check: Result.HMPMigrations=%d telemetry=%d\n",
		res.HMPMigrations, tel.HMPMigrations())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tel.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d events)\n", *csvPath, len(tel.Events()))
	}
	if *jsonPath != "" {
		data, err := tel.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *jsonPath, len(data))
	}
	if *promPath != "" {
		out := os.Stdout
		if *promPath != "-" {
			f, err := os.Create(*promPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := tel.WritePrometheus(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *promPath != "-" {
			fmt.Printf("wrote %s\n", *promPath)
		}
	}
}
