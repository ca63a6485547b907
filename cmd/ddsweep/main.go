// Command ddsweep runs a declarative parameter sweep across a fleet of
// ddserve backends and assembles one deterministic figure JSON.
//
// Usage:
//
//	ddsweep -spec fig5.json -backends http://a:8080,http://b:8080 -out fig5.out.json
//	ddsweep -spec fig5.json -backends http://a:8080 -checkpoint fig5.ckpt -resume
//	ddsweep -spec fig5.json -backends http://a:8080,http://b:8080 -census census.json
//
// The spec (sweep/v1) declares the grid — workloads x port geometries x
// steering policies x optimization modes, with explicit point
// exclusions — and ddsweep drives every expanded point to a terminal
// state: each job goes to the least loaded admissible backend, with
// bounded retries and exponential backoff. A backend is admissible
// unless it is down — a failed /readyz probe, a transport error or a
// malformed result sets that until its next good probe — or cooling for
// the Retry-After window of its last shed. With -checkpoint each
// completed point is persisted (atomic temp+rename) and -resume re-runs
// only the missing ones; a defective checkpoint file self-heals to empty
// with a logged, counted notice.
//
// The figure JSON on stdout (or -out) is byte-identical for a given spec
// regardless of backend count, retries or resume. Diagnostics —
// the per-backend / per-outcome census — go to stderr, and -census
// writes them as a JSON artifact.
//
// Exit status: 0 when every point completed, 1 when some points failed
// or the sweep was interrupted (the figure then holds the completed
// subset), 2 for usage and spec errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/sweep"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "sweep/v1 spec file (required)")
		backends  = flag.String("backends", "", "comma-separated ddserve base URLs (required)")
		out       = flag.String("out", "", "figure JSON output path (empty = stdout)")
		ckpt      = flag.String("checkpoint", "", "sweepckpt/v1 checkpoint path (empty = disabled)")
		resume    = flag.Bool("resume", false, "resume from -checkpoint, re-running only missing points")
		parallel  = flag.Int("parallel", 0, "points in flight across all backends (0 = 2x backends)")
		retries   = flag.Int("retries", 0, "attempts per point (0 = 6)")
		probe     = flag.Duration("probe", 0, "/readyz health-probe interval (0 = 1s)")
		censusOut = flag.String("census", "", "write the census as JSON to this path")
	)
	flag.Parse()

	if *specPath == "" || *backends == "" {
		flag.Usage()
		os.Exit(cliutil.ExitUsage)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		cliutil.FatalUsage("ddsweep", err)
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		cliutil.FatalUsage("ddsweep", err)
	}

	coord, err := sweep.New(spec, sweep.Options{
		Backends:      strings.Split(*backends, ","),
		Parallel:      *parallel,
		MaxAttempts:   *retries,
		ProbeInterval: *probe,
		Checkpoint:    *ckpt,
		Resume:        *resume,
		Log:           os.Stderr,
	})
	if err != nil {
		// Every New failure is a bad spec or bad options: the caller's to fix.
		cliutil.FatalUsage("ddsweep", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	start := time.Now()
	fig, census, runErr := coord.Run(ctx)
	fmt.Fprintf(os.Stderr, "ddsweep: finished in %v\n", time.Since(start).Round(time.Millisecond))
	census.Render(os.Stderr)

	if *censusOut != "" {
		if err := writeCensus(*censusOut, census); err != nil {
			fmt.Fprintln(os.Stderr, "ddsweep: census artifact:", err)
		}
	}

	// The figure is written even when points failed: it holds the completed
	// subset, and with -checkpoint the next -resume finishes the rest.
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cliutil.FatalUsage("ddsweep", err)
		}
		defer f.Close()
		w = f
	}
	if err := fig.EncodeJSON(w); err != nil {
		fmt.Fprintln(os.Stderr, "ddsweep:", err)
		os.Exit(cliutil.ExitRunFailure)
	}

	if runErr != nil {
		fmt.Fprintln(os.Stderr, "ddsweep:", runErr)
		os.Exit(cliutil.ExitRunFailure)
	}
}

func writeCensus(path string, census *sweep.Census) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := census.EncodeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
