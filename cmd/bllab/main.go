// Command bllab inspects and maintains the experiment result cache that
// blreport, blsweep and blexplore populate, and watches the distributed lab.
//
// Usage:
//
//	bllab [-cache-dir DIR] ls            # list cached results
//	bllab [-cache-dir DIR] stat          # cache location, version, entry counts
//	bllab [-cache-dir DIR] prune         # drop results from stale code versions
//	bllab [-cache-dir DIR] invalidate [-app NAME] [-all]
//	                                     # drop current-version results
//	bllab fleet [-coordinator URL]       # fleet queue, leases, worker liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"text/tabwriter"
	"time"

	"biglittle/internal/fleet"
	"biglittle/internal/lab"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bllab [-cache-dir DIR] [-v] <ls|stat|prune|invalidate> [-app NAME] [-all]")
	fmt.Fprintln(os.Stderr, "       bllab fleet [-coordinator URL]")
	flag.PrintDefaults()
}

func main() {
	cacheDir := flag.String("cache-dir", "", "result cache directory (default: the user cache dir, e.g. ~/.cache/biglittle)")
	verbose := flag.Bool("v", false, "log each affected cache entry to stderr")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)

	if cmd == "fleet" {
		// The fleet view talks to a coordinator, not to the local cache.
		fleetCmd(flag.Args()[1:])
		return
	}

	sub := flag.NewFlagSet("bllab "+cmd, flag.ExitOnError)
	app := sub.String("app", "", "restrict invalidate to one app's results")
	all := sub.Bool("all", false, "invalidate every current-version result")
	sub.Parse(flag.Args()[1:])

	cache, err := lab.Open(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bllab:", err)
		os.Exit(1)
	}
	var log *slog.Logger
	if *verbose {
		log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
		log.Debug("cache open", "dir", cache.Dir(), "version", cache.Version())
	}
	// logAffected lists the entries an operation is about to touch.
	logAffected := func(op string, match func(lab.Entry) bool) {
		if log == nil {
			return
		}
		entries, err := cache.List()
		if err != nil {
			return
		}
		for _, e := range entries {
			if match(e) {
				log.Debug(op, "app", e.App, "version", e.Version,
					"fingerprint", e.Fingerprint, "size_b", e.SizeB)
			}
		}
	}

	switch cmd {
	case "ls":
		entries, err := cache.List()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bllab:", err)
			os.Exit(1)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "VERSION\tAPP\tSALT\tFINGERPRINT\tSIZE\tSAVED")
		for _, e := range entries {
			fp := e.Fingerprint
			if len(fp) > 12 {
				fp = fp[:12]
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%s\n",
				e.Version, e.App, e.Salt, fp, e.SizeB, e.SavedAt.Format("2006-01-02 15:04:05"))
		}
		w.Flush()
		fmt.Printf("%d entries\n", len(entries))

	case "stat":
		entries, err := cache.List()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bllab:", err)
			os.Exit(1)
		}
		current, stale := 0, 0
		var bytes int64
		for _, e := range entries {
			if e.Version == cache.Version() {
				current++
			} else {
				stale++
			}
			bytes += e.SizeB
		}
		fmt.Printf("cache dir:       %s\n", cache.Dir())
		fmt.Printf("code version:    %s\n", lab.CodeVersion())
		fmt.Printf("current entries: %d\n", current)
		fmt.Printf("stale entries:   %d (from older code versions; `bllab prune` removes them)\n", stale)
		fmt.Printf("total size:      %d bytes\n", bytes)
		prefixes, prefixBytes, perr := cache.PrefixStats()
		if perr != nil {
			fmt.Fprintln(os.Stderr, "bllab:", perr)
			os.Exit(1)
		}
		fmt.Printf("warmed prefixes: %d (%d bytes; fork sweeps resume from these instead of simulating the shared prefix)\n",
			prefixes, prefixBytes)

	case "prune":
		logAffected("pruning", func(e lab.Entry) bool { return e.Version != cache.Version() })
		n, err := cache.PruneStale()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bllab:", err)
			os.Exit(1)
		}
		fmt.Printf("pruned %d stale entries\n", n)

	case "invalidate":
		if *app == "" && !*all {
			fmt.Fprintln(os.Stderr, "bllab: invalidate needs -app NAME or -all")
			os.Exit(2)
		}
		logAffected("invalidating", func(e lab.Entry) bool {
			return e.Version == cache.Version() && (*app == "" || e.App == *app)
		})
		n, err := cache.Invalidate(*app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bllab:", err)
			os.Exit(1)
		}
		fmt.Printf("invalidated %d entries\n", n)

	default:
		fmt.Fprintf(os.Stderr, "bllab: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

// fleetCmd renders a coordinator's queue/lease/worker snapshot: the
// operator's answer to "is the fleet healthy and who is doing what".
func fleetCmd(args []string) {
	sub := flag.NewFlagSet("bllab fleet", flag.ExitOnError)
	coordinator := sub.String("coordinator", "http://127.0.0.1:8377", "coordinator base URL (a blserve instance)")
	sub.Parse(args)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &fleet.Client{Base: *coordinator}
	s, err := c.Stats(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bllab:", err)
		os.Exit(1)
	}

	state := "serving"
	if s.Draining {
		state = "DRAINING (no new leases)"
	}
	fmt.Printf("coordinator:  %s (%s)\n", *coordinator, state)
	fmt.Printf("queue depth:  %d pending (%d held: %d leased, %d done, %d failed)\n",
		s.QueueDepth, s.Jobs, s.Leased, s.Done, s.Failed)
	fmt.Printf("throughput:   %.1f jobs/sec (last 10s)\n", s.JobsPerSec)
	fmt.Printf("lifetime:     %d submitted, %d deduped, %d completed, %d failed, %d cache hits\n",
		s.Submitted, s.Deduped, s.Completed, s.FailedJobs, s.CacheHits)
	fmt.Printf("retries:      %d requeues, %d lease expiries, %d backpressured submissions\n",
		s.Retries, s.LeaseExpiries, s.Backpressure)

	if len(s.Leases) > 0 {
		fmt.Println("\nactive leases:")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "LEASE\tJOB\tAPP\tWORKER\tATTEMPT\tAGE\tEXPIRES IN")
		for _, l := range s.Leases {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%.1fs\t%.1fs\n",
				l.Lease, l.Job, l.App, l.Worker, l.Attempt, l.AgeSec, l.TTLSec)
		}
		w.Flush()
	}
	if len(s.Workers) > 0 {
		fmt.Println("\nworkers:")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "ID\tLIVE\tACTIVE\tCOMPLETED\tFAILED\tLAST SEEN")
		for _, wk := range s.Workers {
			live := "yes"
			if !wk.Live {
				live = "NO"
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.1fs ago\n",
				wk.ID, live, wk.Active, wk.Completed, wk.Failed, wk.LastSeenSec)
		}
		w.Flush()
	}
}
