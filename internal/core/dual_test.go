package core

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// dualProgram repeatedly performs unhinted stack accesses through a
// copied pointer (the Figure 4 ambiguity) plus unhinted global accesses.
const dualProgram = `
        .text
main:
        move $s0, $sp
        addi $sp, $sp, -8
        la   $s2, g
        li   $s1, 0
        li   $s3, 60
loop:
        sw   $s1, -4($s0)
        lw   $t0, -4($s0)
        sw   $t0, 0($s2)
        lw   $t1, 0($s2)
        addi $s1, $s1, 1
        bne  $s1, $s3, loop
        addi $sp, $sp, 8
        out  $t1
        halt
        .data
g:      .word 0
`

func TestDualSteeringNeverMisroutes(t *testing.T) {
	prog := compile(t, dualProgram)
	cfg := config.Default().WithPorts(2, 2)
	cfg.Steering = config.SteerDual
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)

	if res.Misroutes != 0 || res.Squashed != 0 {
		t.Errorf("dual steering recovered: %d misroutes, %d squashed",
			res.Misroutes, res.Squashed)
	}
	if res.DualInserted == 0 {
		t.Error("no dual insertions for ambiguous accesses")
	}
	// The pointer-based stack accesses guess non-local (non-$sp base)
	// and resolve local: misguesses must be counted, recovery-free.
	if res.DualMisguessed == 0 {
		t.Error("no dual misguesses recorded")
	}
}

func TestDualSteeringBeatsRecoveryOnAmbiguousCode(t *testing.T) {
	prog := compile(t, dualProgram)

	sp := config.Default().WithPorts(2, 2)
	sp.Steering = config.SteerSP // misroutes the global accesses? no — sp
	// heuristic sends pointer-based stack refs to the LSQ: misroute on
	// every iteration is avoided only by... measure against dual.
	spRes := simulate(t, prog, sp)

	dual := config.Default().WithPorts(2, 2)
	dual.Steering = config.SteerDual
	dualRes := simulate(t, prog, dual)

	// SteerSP permanently misroutes the pointer-based stack accesses
	// (recovery every iteration); dual insertion avoids all of it.
	if spRes.Misroutes == 0 {
		t.Skip("sp heuristic unexpectedly routed everything correctly")
	}
	if dualRes.Cycles >= spRes.Cycles {
		t.Errorf("dual (%d cycles) not faster than recovery-heavy sp (%d)",
			dualRes.Cycles, spRes.Cycles)
	}
}

func TestDualStoreBlocksBothQueuesConservatively(t *testing.T) {
	// An unresolved dual store must delay younger loads in both queues
	// until its address resolves — never let them bypass it.
	src := `
        .text
main:
        move $t9, $sp
        addi $sp, $sp, -8
        li   $t0, 42
        sw   $t0, -4($t9)
        lw   $t1, -4($t9)
        out  $t1
        addi $sp, $sp, 8
        halt
`
	prog := compile(t, src)
	cfg := config.Default().WithPorts(2, 2).WithOptimizations(2)
	cfg.Steering = config.SteerDual
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)
	if res.Output[0] != 42 {
		t.Fatalf("load got %d, want 42", res.Output[0])
	}
}

func TestDualRespectsQueueCapacity(t *testing.T) {
	cfg := config.Default().WithPorts(2, 2)
	cfg.Steering = config.SteerDual
	cfg.LVAQSize = 4
	cfg.LSQSize = 4
	prog := compile(t, dualProgram)
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)
	if res.QueueFullStalls == 0 {
		t.Error("tiny queues never filled under dual insertion")
	}
}

// TestDualResolutionClearsOrderScanMemos: a younger LVAQ load whose order
// scan stopped at the shadow copy of an unresolved dual store must rescan
// once that copy leaves the LVAQ, even while the store itself still waits
// for its annotation-TLB fill. The dual store's base register waits on a
// divide, so the load's address is known first and its scan stalls on the
// copy; the store then misses the TLB at issue and resolves non-local.
// With the stale stall memo the load would wait out the fill, so its order
// stalls must not grow with the miss latency.
func TestDualResolutionClearsOrderScanMemos(t *testing.T) {
	prog := compile(t, `
        .text
main:
        addi $sp, $sp, -16
        lw   $t5, 4($sp) !local
        la   $s5, g
        li   $s4, 0
        li   $s6, 1
        div  $t7, $s4, $s6
        add  $s5, $s5, $t7
        sw   $s6, 0($s5)
        lw   $t0, 8($sp) !local
        out  $t0
        addi $sp, $sp, 16
        halt
        .data
g:      .word 0
`)
	for _, e := range []Engine{EngineTick, EngineEvent} {
		var stalls [2]uint64
		for i, miss := range []uint64{30, 300} {
			cfg := config.Default().WithPorts(2, 2)
			cfg.Steering = config.SteerDual
			cfg.TLBEntries = 8
			cfg.TLBMissLatency = miss
			res, err := runProgram(t, prog, cfg, e)
			if err != nil {
				t.Fatal(err)
			}
			checkFunctional(t, prog, res)
			if res.DualInserted != 1 || res.DualMisguessed != 0 {
				t.Fatalf("%v: %d dual insertions, %d misguessed; want 1 and 0",
					e, res.DualInserted, res.DualMisguessed)
			}
			if res.LoadOrderStalls == 0 {
				t.Fatalf("%v: the load never stalled on the dual store", e)
			}
			stalls[i] = res.LoadOrderStalls
		}
		if stalls[0] != stalls[1] {
			t.Errorf("%v: %d order stalls with a 30-cycle TLB miss, %d with 300: "+
				"the load waited for a store that had left its queue", e, stalls[0], stalls[1])
		}
	}
}

// TestDualResolutionClearsFastForwardMemos: a younger LVAQ load whose
// fast-forward scan stopped at an unresolved dual store must rescan once
// that store resolves, in either stream. In each loop iteration the load
// is dispatched with the store and scans while the store is still dual,
// so it fast-forwards only if the resolution cleared its "no bypass" memo
// and woke it before its own address arrived.
//
//   - right: the dual store resolves local and stays in the LVAQ, which
//     clears its dual flag under the load's scan;
//   - wrong: the dual store resolves non-local and its shadow copy leaves
//     the LVAQ, uncovering an older matching store;
//   - asleep: as right, but 32 instructions between the store and the
//     load wait on the same $sp producer and use up two cycles' issue
//     width, so the load sleeps past the resolution until its own
//     address generation unless the resolution wakes it.
func TestDualResolutionClearsFastForwardMemos(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		n         uint64 // loop iterations: one dual store and one load each
	}{
		{"right", `
        .text
main:
        addi $sp, $sp, -16
        li   $s1, 0
        li   $s3, 40
loop:
        sw   $s1, 4($sp)
        lw   $t0, 4($sp) !local
        add  $s2, $s2, $t0
        addi $s1, $s1, 1
        bne  $s1, $s3, loop
        addi $sp, $sp, 16
        out  $s2
        halt
`, 40},
		{"wrong", `
        .text
main:
        addi $sp, $sp, -16
        la   $s5, g
        li   $s1, 0
        li   $s3, 40
loop:
        sw   $s1, 8($sp) !local
        sw   $s1, 0($s5)
        lw   $t0, 8($sp) !local
        add  $s2, $s2, $t0
        addi $s1, $s1, 1
        bne  $s1, $s3, loop
        addi $sp, $sp, 16
        out  $s2
        halt
        .data
g:      .word 0
`, 40},
		{"asleep", `
        .text
main:
        addi $sp, $sp, -16
        li   $s4, 0
        li   $s5, 1
        li   $s1, 0
        li   $s3, 10
loop:
        div  $t7, $s4, $s5
        add  $sp, $sp, $t7
        sw   $s1, 4($sp)
` + strings.Repeat("        addi $t3, $sp, 0\n", 32) + `        lw   $t0, 4($sp) !local
        add  $s2, $s2, $t0
        addi $s1, $s1, 1
        bne  $s1, $s3, loop
        addi $sp, $sp, 16
        out  $s2
        halt
`, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := compile(t, tc.src)
			cfg := config.Default().WithPorts(2, 2).WithOptimizations(2)
			cfg.Steering = config.SteerDual
			for _, e := range []Engine{EngineTick, EngineEvent} {
				res, err := runProgram(t, prog, cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				checkFunctional(t, prog, res)
				if res.DualInserted != tc.n {
					t.Fatalf("%v: %d dual insertions, want %d", e, res.DualInserted, tc.n)
				}
				if res.FastFwdLoads != tc.n || res.FwdLoads != 0 {
					t.Errorf("%v: %d fast-forwarded and %d forwarded loads, want %d and 0",
						e, res.FastFwdLoads, res.FwdLoads, tc.n)
				}
			}
		})
	}
}
