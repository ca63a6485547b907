package repro

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeAssembleAndRun(t *testing.T) {
	prog, err := Assemble("t.s", `
        .text
main:
        li  $t0, 7
        out $t0
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 7 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(Workloads()) != 12 {
		t.Errorf("Workloads() = %d entries", len(Workloads()))
	}
	w, err := WorkloadByName("li")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, 0.02, DefaultConfig().WithPorts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Error("zero IPC")
	}
	if res.LVAQDispatched == 0 {
		t.Error("no LVAQ traffic in decoupled run")
	}
}

func TestFacadeEmulator(t *testing.T) {
	w, err := WorkloadByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(w.Program(0.02))
	halted, err := m.Run(0)
	if err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
}

func TestFacadeProfile(t *testing.T) {
	w, err := WorkloadByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileWorkload(w, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if p.LocalFraction() < 0.5 {
		t.Errorf("vortex local fraction %.2f", p.LocalFraction())
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 15 {
		t.Errorf("only %d experiments", len(Experiments()))
	}
	out, err := RunExperiment("table1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "issue width") {
		t.Errorf("table1 output:\n%s", out)
	}
	if _, err := RunExperiment("nope", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeParseNM(t *testing.T) {
	n, m, err := ParseNM("(3+2)")
	if err != nil || n != 3 || m != 2 {
		t.Errorf("ParseNM = %d,%d,%v", n, m, err)
	}
	if _, _, err := ParseNM("bogus"); err == nil {
		t.Error("bad notation accepted")
	}
}

func TestFacadeConfigHelpers(t *testing.T) {
	cfg := DefaultConfig().WithPorts(4, 3).WithOptimizations(2)
	if cfg.Name() != "(4+3)" {
		t.Errorf("Name = %s", cfg.Name())
	}
	if !cfg.FastForward || cfg.CombineWidth != 2 {
		t.Error("WithOptimizations did not apply")
	}
	if !cfg.Decoupled() {
		t.Error("4+3 not decoupled")
	}
	if DefaultConfig().Decoupled() {
		t.Error("default (2+0) claims decoupled")
	}
}

// TestFacadeSimErrorOnInvariantViolation breaks the forward-progress
// invariant through the public facade — vortex on a machine whose main
// memory takes 3,000,000 cycles, under a 2000-cycle watchdog — and checks
// it surfaces as a typed *SimError carrying the failure cycle and
// per-stream pipeline state.
func TestFacadeSimErrorOnInvariantViolation(t *testing.T) {
	w, err := WorkloadByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithPorts(2, 2)
	cfg.MemLatency = 3_000_000
	_, err = RunProgramWith(context.Background(), w.Program(0.02), cfg,
		RunOptions{WatchdogCycles: 2000})
	if err == nil {
		t.Fatal("a pipeline that commits nothing went undetected")
	}
	se, ok := AsSimError(err)
	if !ok {
		t.Fatalf("error %T is not a *SimError: %v", err, err)
	}
	if se.Kind != SimWatchdog {
		t.Fatalf("kind = %s, want %s", se.Kind, SimWatchdog)
	}
	if !strings.Contains(se.Reason, "no instruction committed for 2000 cycles") {
		t.Errorf("reason %q does not name the watchdog window", se.Reason)
	}
	if se.Snapshot.Cycle == 0 {
		t.Error("snapshot does not record the failure cycle")
	}
	if len(se.Snapshot.Streams) != 2 {
		t.Fatalf("snapshot has %d streams, want one per memory stream (2)", len(se.Snapshot.Streams))
	}
	for _, s := range se.Snapshot.Streams {
		if s.Name == "" {
			t.Error("snapshot stream has no name")
		}
	}
}
