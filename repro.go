// Package repro is a from-scratch reproduction of "Decoupling Local
// Variable Accesses in a Wide-Issue Superscalar Processor" (Cho, Yew, Lee —
// ISCA 1999): a cycle-accurate out-of-order superscalar simulator with a
// data-decoupled memory system (LSQ + L1 data cache alongside an LVAQ +
// local variable cache), a small RISC ISA with assembler and functional
// emulator, a calibrated synthetic SPEC95-like workload suite, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// This package is the public facade. Typical use:
//
//	w, _ := repro.WorkloadByName("vortex")
//	res, _ := repro.Run(w, 1.0, repro.DefaultConfig().WithPorts(2, 2))
//	fmt.Printf("IPC %.2f\n", res.IPC())
//
// or for a custom program:
//
//	prog, _ := repro.Assemble("mine.s", source)
//	res, _ := repro.RunProgram(prog, repro.DefaultConfig())
//
// The building blocks live in internal packages (isa, asm, emu, cache,
// core, workload, experiments) and are re-exported here by alias.
package repro

import (
	"context"
	"errors"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config is the simulated machine configuration (paper Table 1 defaults).
type Config = config.Config

// Result carries all statistics of one simulation run.
type Result = core.Result

// StreamResult is the per-memory-stream view of a run (one entry per
// stream in Result.Streams: the conventional LSQ/L1 stream and, when
// decoupled, the LVAQ/LVC stream).
type StreamResult = core.StreamResult

// Workload is one benchmark of the synthetic SPEC95-like suite.
type Workload = workload.Workload

// Program is a loadable program image produced by the assembler.
type Program = asm.Program

// Machine is the functional (architectural) emulator.
type Machine = emu.Machine

// Profile is a functional workload characterization (instruction mix,
// local-access fractions, frame sizes).
type Profile = profile.Profile

// Experiment is one reproducible paper table or figure.
type Experiment = experiments.Experiment

// Runner executes and caches experiment simulations.
type Runner = experiments.Runner

// Steering policies for classifying memory accesses into the two streams.
const (
	SteerHint   = config.SteerHint
	SteerSP     = config.SteerSP
	SteerOracle = config.SteerOracle
	SteerDual   = config.SteerDual
	SteerStatic = config.SteerStatic
	SteerSpec   = config.SteerSpec
)

// DefaultConfig returns the paper's base machine model in the (2+0)
// configuration; use WithPorts(n, m) for other points and
// WithOptimizations(k) to enable fast data forwarding and k-way access
// combining.
func DefaultConfig() Config { return config.Default() }

// ParseNM parses the paper's "(N+M)" port notation, e.g. "3+2".
func ParseNM(s string) (n, m int, err error) { return config.ParseNM(s) }

// Workloads returns the full 12-program suite in paper order.
func Workloads() []Workload { return workload.All() }

// WorkloadByName resolves a short name ("li") or paper name ("130.li").
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Assemble assembles source text into a Program.
func Assemble(name, source string) (*Program, error) { return asm.Assemble(name, source) }

// NewMachine loads a program into a fresh functional emulator.
func NewMachine(prog *Program) *Machine { return emu.New(prog) }

// RunOptions bounds one simulation run: a cycle cap, a wall-clock
// deadline and the forward-progress watchdog window. The zero value
// reproduces the unbounded historical behaviour bit-for-bit.
type RunOptions = core.RunOptions

// SimError is the typed failure of a simulation run: its Kind says why the
// run ended (watchdog, cycle cap, deadline, cancellation, contained panic)
// and its Snapshot captures the pipeline at the moment of failure — cycle,
// ROB head, per-stream queue heads, port and combining-window state.
type SimError = simerr.SimError

// SimSnapshot is the pipeline state carried by a SimError.
type SimSnapshot = simerr.Snapshot

// SimErrorKind classifies a SimError.
type SimErrorKind = simerr.Kind

// SimError kinds.
const (
	SimWatchdog  = simerr.KindWatchdog
	SimMaxCycles = simerr.KindMaxCycles
	SimDeadline  = simerr.KindDeadline
	SimCanceled  = simerr.KindCanceled
	SimBudget    = simerr.KindBudget
	SimPanic     = simerr.KindPanic
)

// AsSimError unwraps err to the *SimError in its chain, if any.
func AsSimError(err error) (*SimError, bool) {
	var se *SimError
	ok := errors.As(err, &se)
	return se, ok
}

// Run simulates a workload at the given scale (1.0 = full experiment
// size) on the timing model.
func Run(w Workload, scale float64, cfg Config) (*Result, error) {
	return RunProgram(w.Program(scale), cfg)
}

// RunProgram simulates an assembled program on the timing model.
func RunProgram(prog *Program, cfg Config) (*Result, error) {
	return RunProgramWith(context.Background(), prog, cfg, RunOptions{})
}

// RunWith simulates a workload bounded by ctx and opts; abnormal ends
// (cancellation, cycle cap, watchdog, contained panics) are reported as a
// *SimError.
func RunWith(ctx context.Context, w Workload, scale float64, cfg Config, opts RunOptions) (*Result, error) {
	return RunProgramWith(ctx, w.Program(scale), cfg, opts)
}

// RunProgramWith simulates an assembled program bounded by ctx and opts;
// abnormal ends (cancellation, cycle cap, watchdog, contained panics) are
// reported as a *SimError.
func RunProgramWith(ctx context.Context, prog *Program, cfg Config, opts RunOptions) (*Result, error) {
	c, err := core.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	return c.RunWith(ctx, opts)
}

// ProfileWorkload runs a workload on the functional emulator and returns
// its characterization (Figures 2 and 3 of the paper).
func ProfileWorkload(w Workload, scale float64) (*Profile, error) {
	return profile.Run(w.Program(scale), 0)
}

// ProfileProgram characterizes an assembled program.
func ProfileProgram(prog *Program) (*Profile, error) { return profile.Run(prog, 0) }

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment { return experiments.AllExperiments() }

// ExperimentByID looks up one experiment ("fig7", "table3", ...).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// NewRunner creates an experiment runner at the given workload scale.
func NewRunner(scale float64) *Runner { return experiments.NewRunner(scale) }

// RunExperiment runs one experiment at the given scale and returns its
// rendered report.
func RunExperiment(id string, scale float64) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	return e.Run(experiments.NewRunner(scale))
}

// TraceEvent is one instruction's pipeline timeline.
type TraceEvent = core.TraceEvent

// TraceRecorder collects pipeline trace events.
type TraceRecorder = trace.Recorder

// RunProgramTraced simulates prog while recording up to limit pipeline
// trace events (0 = all). Render the recording with RenderTrace and
// SummarizeTrace.
func RunProgramTraced(prog *Program, cfg Config, limit int) (*Result, *TraceRecorder, error) {
	c, err := core.New(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	rec := trace.NewRecorder(limit)
	c.SetTracer(rec)
	res, err := c.Run()
	return res, rec, err
}

// RenderTrace draws a pipetrace (one row per instruction, one column per
// cycle).
func RenderTrace(events []TraceEvent) string { return trace.Render(events) }

// SummarizeTrace aggregates a trace into per-stage latency statistics.
func SummarizeTrace(events []TraceEvent) string { return trace.Summary(events) }
