// Command ddsim runs one workload (or an assembly file) on the timing
// simulator under one (N+M) configuration and prints the statistics block.
//
// Usage:
//
//	ddsim -w vortex -ports 2+2 -opt -scale 0.5
//	ddsim -f program.s -ports 3+2 -steer sp
//	ddsim -w gcc -maxcycles 2000000 -timeout 30s
//
// Every run is bounded: -maxcycles caps the simulated cycle count,
// -timeout caps wall-clock time, and a forward-progress watchdog aborts a
// pipeline that stops committing. An aborted run exits non-zero and prints
// the typed failure with its pipeline snapshot (cycle, ROB head, stream
// queue heads, port/combining state).
//
// -cpuprofile, -memprofile and -exectrace capture pprof/trace artifacts
// of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		wname   = flag.String("w", "", "workload name (see -list)")
		file    = flag.String("f", "", "assembly file to simulate instead of a workload")
		ports   = flag.String("ports", "2+0", "(N+M) port configuration, e.g. 3+2")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		opt     = flag.Bool("opt", false, "enable fast data forwarding and 2-way combining")
		static  = flag.Bool("staticopt", false, "restrict the optimizations to statically-proven pairs/groups (implies -opt)")
		combine = flag.Int("combine", 0, "access combining width (overrides -opt's 2)")
		steer   = flag.String("steer", "hint", "steering policy: hint, sp, oracle, dual, static, spec")
		strip   = flag.Bool("strip", false, "strip compiler hints from the program before simulating")
		maxInst = flag.Uint64("maxinst", 0, "commit budget (0 = run to halt)")
		list    = flag.Bool("list", false, "list available workloads and exit")
		traceN  = flag.Int("trace", 0, "print a pipeline trace of the first N instructions")
	)
	budget := cliutil.RegisterBudget(flag.CommandLine)
	profiles := cliutil.RegisterProfilesExecTrace(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-10s %-12s %s\n", w.Name, w.PaperName, w.Kind)
		}
		return
	}

	cfg, err := experiments.GridPoint{
		Ports: *ports, Steering: *steer, Opt: *opt, Combine: *combine,
		StaticOpt: *static, MaxInsts: *maxInst,
	}.Config()
	if err != nil {
		fatal(err)
	}

	var prog *asm.Program
	switch {
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		prog, err = asm.Assemble(*file, string(src))
		if err != nil {
			fatal(err)
		}
	case *wname != "":
		w, err := workload.ByName(*wname)
		if err != nil {
			fatal(err)
		}
		prog = w.Program(*scale)
	default:
		fatal(fmt.Errorf("need -w <workload> or -f <file>; see -list"))
	}
	if *strip {
		prog = prog.StripHints()
	}

	c, err := core.New(prog, cfg)
	if err != nil {
		fatal(err)
	}
	var rec *trace.Recorder
	if *traceN > 0 {
		rec = trace.NewRecorder(*traceN)
		c.SetTracer(rec)
	}
	opts := budget.RunOptions()
	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	res, err := c.RunWith(context.Background(), opts)
	stopProfiles()
	if err != nil {
		cliutil.FatalSim("ddsim", err)
	}
	fmt.Print(res)
	if rec != nil {
		fmt.Println()
		fmt.Print(trace.Render(rec.Events))
		fmt.Println()
		fmt.Print(trace.Summary(rec.Events))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddsim:", err)
	os.Exit(1)
}
