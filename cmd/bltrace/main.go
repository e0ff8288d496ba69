// Command bltrace runs one application model and renders a systrace-style
// per-core execution timeline for a chosen window: which thread ran on
// which core at every millisecond, migrations between clusters, and the
// frequency bands the governor chose.
//
// Usage:
//
//	bltrace -app eternity_warrior -from 5s -window 300ms
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"biglittle"
)

func main() {
	cfg := biglittle.DefaultConfig(biglittle.App{})
	var (
		appName  = flag.String("app", "eternity_warrior", "application model to trace")
		from     = flag.Duration("from", 5*time.Second, "window start (simulated time)")
		window   = flag.Duration("window", 300*time.Millisecond, "window length")
		duration = flag.Duration("duration", 0, "total run duration (0 = run exactly until the window ends)")
		width    = flag.Int("width", 120, "maximum timeline columns (0 = one per tick)")
		cores    = flag.String("cores", cfg.Cores.String(), "hotplug configuration")
		chrome   = flag.String("chrome", "", "write a Chrome trace-event JSON file (open in chrome://tracing)")
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
	cfg.Duration = biglittle.Time((*from + *window).Nanoseconds())
	if *duration > 0 {
		cfg.Duration = biglittle.Time(duration.Nanoseconds())
	}

	tel := biglittle.NewTelemetry()
	cfg.Telemetry = tel

	var rec *biglittle.TraceRecorder
	cfg.OnSystem = func(sys *biglittle.SchedSystem) {
		rec = biglittle.AttachTrace(sys,
			biglittle.Time(from.Nanoseconds()),
			biglittle.Time((*from + *window).Nanoseconds()))
		rec.Tel = tel
	}
	biglittle.Run(cfg)

	if len(rec.Samples) == 0 {
		fmt.Fprintf(os.Stderr,
			"bltrace: no samples recorded: the window [%v, %v) lies beyond the run duration %v; "+
				"lower -from/-window or raise -duration\n",
			*from, *from+*window, time.Duration(cfg.Duration))
		os.Exit(1)
	}

	if *chrome != "" {
		data, err := rec.ChromeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*chrome, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *chrome, len(data))
	}

	fmt.Print(rec.Render(*width))

	fmt.Println("\nper-thread core-type residency and runnable-wait in window:")
	res := rec.Residency()
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr := res[name]
		fmt.Printf("  %-20s", name)
		for typ, frac := range tr.Run {
			fmt.Printf(" %v %.0f%%", typ, 100*frac)
		}
		if tr.WaitTicks > 0 {
			fmt.Printf("  (waited %.0f%% of %d on-queue ticks)",
				100*tr.WaitShare(), tr.RunTicks+tr.WaitTicks)
		}
		fmt.Println()
	}
}
