// Command blsession runs a multi-app usage session — a comma-separated list
// of app:duration phases — and prints per-phase power, performance, and
// battery drain.
//
// Usage:
//
//	blsession -phases browser:20s,pdf_reader:15s,eternity_warrior:20s
package main

import (
	"flag"
	"fmt"
	"os"

	"biglittle"
	"biglittle/internal/cli"
)

func main() {
	var (
		phasesArg = flag.String("phases", "browser:10s,video_player:10s",
			"comma-separated app:duration phases")
		seed = flag.Int64("seed", 1, "workload random seed")
	)
	flag.Parse()

	phases, err := cli.ParsePhases(*phasesArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blsession:", err)
		os.Exit(1)
	}

	cfg := biglittle.NewSession(phases...)
	cfg.Seed = *seed
	r := biglittle.RunSession(cfg)
	fmt.Print(biglittle.RenderSession(r))
	fmt.Printf("\nbattery at this mix: %.1f hours of continuous use\n",
		biglittle.GalaxyS5Pack().HoursAt(r.AvgPowerMW))
}
