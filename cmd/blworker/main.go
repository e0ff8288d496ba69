// Command blworker is one stateless fleet executor: it leases simulation
// jobs from a blserve coordinator, reconstructs and verifies each job spec,
// runs it through the experiment orchestrator (content-addressed cache
// included), and publishes the result back. Run as many as you want, on as
// many machines as reach the coordinator; parallelism comes from the worker
// count, not from threads inside one worker.
//
// Usage:
//
//	blworker -coordinator http://127.0.0.1:8377
//	blworker -coordinator http://10.0.0.5:8377 -id rack3-a -check -v
//
// SIGINT/SIGTERM drains gracefully: the worker stops leasing, finishes and
// publishes the job it holds, prints a final summary, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"biglittle"
	"biglittle/internal/cli"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:8377", "coordinator base URL (a blserve instance)")
		id          = flag.String("id", "", "worker id in leases and stats (default host:pid)")
		cacheDir    = flag.String("cache-dir", "", "result cache directory (default: the user cache dir, e.g. ~/.cache/biglittle)")
		noCache     = flag.Bool("no-cache", false, "run without the result cache")
		check       = flag.Bool("check", false, "audit cache hits by re-simulating (slow; catches stale caches)")
		leaseWait   = flag.Duration("lease-wait", 5*time.Second, "long-poll window per lease request")
		verbose     = flag.Bool("v", false, "log each lease/execute/publish to stderr")
	)
	flag.Parse()

	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	var cache *biglittle.LabCache
	if !*noCache {
		var err error
		cache, err = biglittle.OpenLabCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blworker: cache:", err)
			os.Exit(1)
		}
	}

	// One job at a time per worker: the runner needs exactly one slot, and
	// the fleet scales by adding workers.
	runner := biglittle.NewLabRunner(1, cache)
	runner.Check = *check
	runner.Log = logger

	w := &biglittle.FleetWorker{
		Client:    &biglittle.FleetClient{Base: *coordinator, Log: logger},
		Runner:    runner,
		ID:        *id,
		LeaseWait: *leaseWait,
		Log:       logger,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "blworker: leasing from %s\n", *coordinator)
	start := time.Now()
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "blworker:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "blworker: executed %d jobs (%d failed)\n", w.Executed(), w.Failed())
	cli.PrintLabStats(os.Stderr, runner, time.Since(start))
}
