package experiments

import (
	"context"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/workload"
)

// TestAssignAblationAcceptance pins the issue's acceptance criteria: on
// every workload with generator hints stripped, assigned-hint steering
// recovers at least 90% of the IPC gap between the unhinted $sp
// heuristic and oracle steering; and on the deliberately ambiguous
// spec1/spec2 examples, speculative steering performs at least as well
// as assigned hints while never changing architectural results.
func TestAssignAblationAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all workloads under five steering legs")
	}
	r := NewRunner(0.02)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img := strippedImages(w, r.Scale)
			res := map[string]float64{}
			for _, leg := range assignLegs {
				lr, err := r.resultOf(context.Background(), workloadPoint(w, img, leg))
				if err != nil {
					t.Fatal(err)
				}
				res[leg.name] = lr.IPC()
			}
			rec := gapRecovered(res["unhinted"], res["assigned"], res["oracle"])
			if rec < 0.90 {
				t.Errorf("assigned hints recover only %.1f%% of the unhinted→oracle gap (unhinted %.3f, assigned %.3f, oracle %.3f)",
					100*rec, res["unhinted"], res["assigned"], res["oracle"])
			}
		})
	}

	progs, err := specExamples()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		prog := prog
		t.Run(prog.Name, func(t *testing.T) {
			cfg := assignAblationConfig()
			cfg.Steering = config.SteerHint
			assigned, err := r.ResultProgram(prog.Name+"+assigned", analysis.Assign(prog).Apply(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Steering = config.SteerSpec
			spec, err := r.ResultProgram(prog.Name, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if spec.IPC() < assigned.IPC() {
				t.Errorf("speculative steering (IPC %.3f) below assigned-hint steering (IPC %.3f)",
					spec.IPC(), assigned.IPC())
			}
			if spec.Committed != assigned.Committed {
				t.Errorf("instruction counts differ: spec %d vs assigned %d", spec.Committed, assigned.Committed)
			}
			for i, v := range assigned.Output {
				if spec.Output[i] != v {
					t.Fatalf("out[%d]: assigned %d vs spec %d — misspeculation changed architectural results", i, v, spec.Output[i])
				}
			}
		})
	}
}

// TestSpecExamplesMatchCheckedIn: the canonical example sources inlined
// in the experiment must stay byte-identical to the checked-in
// examples/asm/spec{1,2}.s files the docs and CLI tools reference.
func TestSpecExamplesMatchCheckedIn(t *testing.T) {
	for _, c := range []struct{ path, src string }{
		{"../../examples/asm/spec1.s", specExample1},
		{"../../examples/asm/spec2.s", specExample2},
	} {
		disk, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(disk) != c.src {
			t.Errorf("%s drifted from the canonical source inlined in internal/experiments/assign.go", c.path)
		}
	}
}
