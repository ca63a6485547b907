// Package cliutil holds the small pieces every simulator CLI shares: the
// -maxcycles/-timeout/-watchdog run-budget flag trio (previously duplicated
// between ddsim and ddbench, and now also the source of ddserve's per-job
// budget defaults) and the failure reporter that prints a typed simulation
// error — with its pipeline snapshot — to stderr. Snapshots always go to
// stderr so stdout stays machine-parseable (stat blocks, JSON reports).
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/simerr"
)

// Budget is the resolved value of the shared run-budget flag trio.
type Budget struct {
	// MaxCycles aborts any single simulation after this many simulated
	// cycles (0 = unbounded).
	MaxCycles uint64
	// Timeout bounds wall-clock time (0 = unbounded). ddsim and ddbench
	// apply it to the whole invocation; ddserve applies it per job.
	Timeout time.Duration
	// Watchdog is the forward-progress window in cycles (0 = the core's
	// default window).
	Watchdog uint64
}

// RegisterBudget registers the -maxcycles/-timeout/-watchdog trio on fs
// and returns the destination the parsed values land in.
func RegisterBudget(fs *flag.FlagSet) *Budget {
	b := &Budget{}
	fs.Uint64Var(&b.MaxCycles, "maxcycles",
		0, "abort any single simulation after this many cycles (0 = unbounded)")
	fs.DurationVar(&b.Timeout, "timeout",
		0, "abort after this much wall-clock time (0 = unbounded)")
	fs.Uint64Var(&b.Watchdog, "watchdog",
		0, "forward-progress watchdog window in cycles (0 = default)")
	return b
}

// RunOptions renders the budget as core run options. The wall-clock
// timeout is resolved against the current time, so call it once, when the
// bounded work starts.
func (b *Budget) RunOptions() core.RunOptions {
	opts := core.RunOptions{
		MaxCycles:      b.MaxCycles,
		WatchdogCycles: b.Watchdog,
	}
	if b.Timeout > 0 {
		opts.Deadline = time.Now().Add(b.Timeout)
	}
	return opts
}

// Shared exit codes. The split matters to CI and scripts: exit 1 means
// the run itself failed (re-running or investigating the change may
// help); exit 2 means the invocation is wrong — bad flags, an unreadable
// or schema-mismatched input — and retrying without fixing it cannot
// succeed.
const (
	ExitRunFailure = 1
	ExitUsage      = 2
)

// FatalUsage reports a usage or input-schema error and exits ExitUsage.
func FatalUsage(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitUsage)
}

// ReportSim writes err prefixed by the tool name, and, when err carries a
// typed simulation failure, the full pipeline snapshot (the watchdog/abort
// state dump) after it.
func ReportSim(w io.Writer, tool string, err error) {
	fmt.Fprintf(w, "%s: %v\n", tool, err)
	var se *simerr.SimError
	if errors.As(err, &se) {
		fmt.Fprintf(w, "pipeline snapshot (%s):\n%s", se.Kind, se.Snapshot)
	}
}

// FatalSim reports err to stderr (snapshot included for typed simulation
// failures) and exits 1.
func FatalSim(tool string, err error) {
	ReportSim(os.Stderr, tool, err)
	os.Exit(1)
}
