// Command ddbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ddbench -list
//	ddbench -exp fig7 -scale 0.5
//	ddbench -exp all -scale 1.0 -v
//	ddbench -exp all -scale 0.1 -timeout 10m -maxcycles 50000000
//
// -timeout bounds the whole invocation in wall-clock time and -maxcycles
// bounds each individual simulation; either abort exits non-zero with the
// typed failure and, when available, the pipeline snapshot of the run that
// tripped — always on stderr, so stdout stays parseable.
//
// -cpuprofile, -memprofile and -trace capture pprof/trace artifacts of
// the invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id or 'all'")
		scale = flag.Float64("scale", 1.0, "workload scale factor")
		list  = flag.Bool("list", false, "list experiments and exit")
		verb  = flag.Bool("v", false, "print per-simulation progress")
	)
	budget := cliutil.RegisterBudget(flag.CommandLine)
	profiles := cliutil.RegisterProfiles(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		cliutil.FatalSim("ddbench", err)
	}
	defer stopProfiles()

	if *list {
		for _, e := range experiments.AllExperiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}

	r := experiments.NewRunner(*scale)
	if *verb {
		r.Progress = os.Stderr
	}
	r.RunOpts = budget.RunOptions()

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.AllExperiments()
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			cliutil.FatalSim("ddbench", err)
		}
		selected = []experiments.Experiment{e}
	}

	for _, e := range selected {
		start := time.Now()
		if err := experiments.WriteReports(os.Stdout, r, e); err != nil {
			cliutil.FatalSim("ddbench", err)
		}
		if *verb {
			fmt.Fprintf(os.Stderr, "  [%s took %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}
