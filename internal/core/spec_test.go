package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// specProgram selects a frame slot through a branch, so the slot pointer
// joins to a path-dependent stack offset: unprovable, but stack-derived.
// The i%8 == 0 path points above main's entry $sp (the top of the stack
// region), so the speculate-local assignment is wrong one iteration in
// eight — the misroute-recovery path must absorb exactly those.
const specProgram = `
        .text
main:
        li   $s0, 0
        li   $s1, 64
        li   $v0, 0
loop:
        andi $t0, $s0, 7
        bnez $t0, below
        addi $t1, $sp, 16
        j    join
below:
        addi $t1, $sp, -16
join:
        sw   $s0, 0($t1)
        lw   $t2, 0($t1)
        add  $v0, $v0, $t2
        addi $s0, $s0, 1
        slt  $t0, $s0, $s1
        bnez $t0, loop
        out  $v0
        halt
`

// TestSpecSteeringRecoversMisspeculation: SteerSpec must (a) steer the
// ambiguous accesses speculatively (SpecSteers > 0), (b) pay a misroute
// for exactly the dynamically non-local executions (SpecMisroutes > 0,
// all of them accounted inside Misroutes), and (c) never change the
// architectural results.
func TestSpecSteeringRecoversMisspeculation(t *testing.T) {
	prog := compile(t, specProgram)
	cfg := config.Default().WithPorts(3, 2)
	cfg.Steering = config.SteerSpec
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)

	if res.SpecSteers == 0 {
		t.Fatal("no speculative steers on a program built around speculate-local accesses")
	}
	if res.SpecMisroutes == 0 {
		t.Error("no misspeculations on a program with dynamically non-local spec accesses")
	}
	if res.SpecMisroutes > res.Misroutes {
		t.Errorf("SpecMisroutes %d exceeds total Misroutes %d", res.SpecMisroutes, res.Misroutes)
	}
	if res.SpecMisroutes > res.SpecSteers {
		t.Errorf("SpecMisroutes %d exceeds SpecSteers %d", res.SpecMisroutes, res.SpecSteers)
	}
	// 2 spec accesses × 64 iterations, wrong on the 8 i%8==0 iterations.
	if got, want := res.SpecMisroutes, uint64(16); got != want {
		t.Errorf("SpecMisroutes = %d, want %d (2 accesses × 8 wrong iterations)", got, want)
	}
	t.Logf("spec: %d cycles, %d spec steers, %d misspeculated, %d total misroutes",
		res.Cycles, res.SpecSteers, res.SpecMisroutes, res.Misroutes)
}

// TestSpecSteeringBeatsHintFallback: on the ambiguous program the
// speculate-local decision must beat hint steering's predictor fallback
// (fewer misroutes, no more cycles), and both must agree architecturally.
func TestSpecSteeringBeatsHintFallback(t *testing.T) {
	prog := compile(t, specProgram)
	hint := config.Default().WithPorts(3, 2)
	hint.Steering = config.SteerHint
	hintRes := simulate(t, prog, hint)

	spec := config.Default().WithPorts(3, 2)
	spec.Steering = config.SteerSpec
	specRes := simulate(t, prog, spec)

	if hintRes.Committed != specRes.Committed {
		t.Fatalf("instruction counts differ: hint %d vs spec %d", hintRes.Committed, specRes.Committed)
	}
	for i, v := range hintRes.Output {
		if specRes.Output[i] != v {
			t.Fatalf("out[%d]: hint %d vs spec %d", i, v, specRes.Output[i])
		}
	}
	if specRes.Misroutes >= hintRes.Misroutes {
		t.Errorf("spec misroutes %d not below hint misroutes %d", specRes.Misroutes, hintRes.Misroutes)
	}
	if specRes.Cycles > hintRes.Cycles {
		t.Errorf("spec steering slower than hint fallback: %d vs %d cycles", specRes.Cycles, hintRes.Cycles)
	}
	t.Logf("hint %d cycles (%d misroutes) vs spec %d cycles (%d misroutes, %d misspeculated)",
		hintRes.Cycles, hintRes.Misroutes, specRes.Cycles, specRes.Misroutes, specRes.SpecMisroutes)
}

// TestSpecSteeringOnStrippedWorkload: on a real workload with all
// generator hints stripped, SteerSpec must remain architecturally
// identical to oracle steering and dispatch a substantial local stream.
func TestSpecSteeringOnStrippedWorkload(t *testing.T) {
	w, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.ProgramStripped(0.02)

	spec := config.Default().WithPorts(2, 2).WithOptimizations(2)
	spec.Steering = config.SteerSpec
	specRes := simulate(t, prog, spec)
	checkFunctional(t, prog, specRes)

	oracle := config.Default().WithPorts(2, 2).WithOptimizations(2)
	oracle.Steering = config.SteerOracle
	oracleRes := simulate(t, prog, oracle)

	if specRes.Committed != oracleRes.Committed {
		t.Fatalf("instruction counts differ: spec %d vs oracle %d", specRes.Committed, oracleRes.Committed)
	}
	for i, v := range oracleRes.Output {
		if specRes.Output[i] != v {
			t.Fatalf("out[%d]: oracle %d vs spec %d", i, v, specRes.Output[i])
		}
	}
	if specRes.LVAQDispatched == 0 {
		t.Error("spec steering sent nothing to the LVAQ on a stripped workload")
	}
	t.Logf("li@0.02 stripped: spec %d cycles (%d misroutes, %d spec steers, %d misspec) vs oracle %d cycles",
		specRes.Cycles, specRes.Misroutes, specRes.SpecSteers, specRes.SpecMisroutes, oracleRes.Cycles)
}

// TestStaticSteeringLeavesSpeculationToPredictor: SteerStatic reads the
// same Assign table as SteerSpec but acts only on its proven classes. On
// the unhinted specProgram, whose frame-slot accesses are
// speculate-local, it must never steer speculatively and must time
// exactly like hint steering's predictor fallback.
func TestStaticSteeringLeavesSpeculationToPredictor(t *testing.T) {
	prog := compile(t, specProgram)
	hint := config.Default().WithPorts(3, 2)
	hintRes := simulate(t, prog, hint)
	static := hint
	static.Steering = config.SteerStatic
	staticRes := simulate(t, prog, static)

	if staticRes.SpecSteers != 0 {
		t.Errorf("static steering made %d speculative steers", staticRes.SpecSteers)
	}
	if staticRes.Cycles != hintRes.Cycles || staticRes.Misroutes != hintRes.Misroutes ||
		staticRes.PredictedSteers != hintRes.PredictedSteers {
		t.Errorf("static %d cycles, %d misroutes, %d predicted; hint %d, %d, %d",
			staticRes.Cycles, staticRes.Misroutes, staticRes.PredictedSteers,
			hintRes.Cycles, hintRes.Misroutes, hintRes.PredictedSteers)
	}
}
