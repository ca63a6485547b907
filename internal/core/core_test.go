package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/workload"
)

func compile(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func simulate(t *testing.T, prog *asm.Program, cfg config.Config) *Result {
	t.Helper()
	c, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// checkFunctional verifies that the timing core produced exactly the same
// observable output as the reference emulator.
func checkFunctional(t *testing.T, prog *asm.Program, res *Result) {
	t.Helper()
	ref := emu.New(prog)
	if _, err := ref.Run(50_000_000); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(res.Output) != len(ref.Output) {
		t.Fatalf("output length %d, want %d", len(res.Output), len(ref.Output))
	}
	for i := range ref.Output {
		if res.Output[i] != ref.Output[i] {
			t.Fatalf("output[%d] = %d, want %d", i, res.Output[i], ref.Output[i])
		}
	}
	for i := range ref.FOutput {
		if res.FOutput[i] != ref.FOutput[i] {
			t.Fatalf("foutput[%d] = %g, want %g", i, res.FOutput[i], ref.FOutput[i])
		}
	}
}

const fibProgram = `
        .text
main:
        li   $a0, 15
        jal  fib
        out  $v0
        halt
fib:
        addi $sp, $sp, -12
        sw   $ra, 8($sp) !local
        sw   $s0, 4($sp) !local
        sw   $a0, 0($sp) !local
        li   $v0, 1
        slti $t0, $a0, 2
        bnez $t0, fib_done
        addi $a0, $a0, -1
        jal  fib
        move $s0, $v0
        lw   $a0, 0($sp) !local
        addi $a0, $a0, -2
        jal  fib
        add  $v0, $v0, $s0
fib_done:
        lw   $s0, 4($sp) !local
        lw   $ra, 8($sp) !local
        addi $sp, $sp, 12
        jr   $ra
`

func TestFunctionalEquivalenceUnified(t *testing.T) {
	prog := compile(t, fibProgram)
	res := simulate(t, prog, config.Default().WithPorts(2, 0))
	checkFunctional(t, prog, res)
	if res.Committed == 0 || res.Cycles == 0 {
		t.Fatalf("empty run: %+v", res.Stats)
	}
}

func TestFunctionalEquivalenceDecoupled(t *testing.T) {
	prog := compile(t, fibProgram)
	res := simulate(t, prog, config.Default().WithPorts(2, 2).WithOptimizations(2))
	checkFunctional(t, prog, res)
	if res.LVAQDispatched == 0 {
		t.Error("no accesses steered to the LVAQ")
	}
	if res.LVC.Accesses() == 0 {
		t.Error("LVC never accessed")
	}
}

func TestIndependentALUOpsReachHighIPC(t *testing.T) {
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n")
	for i := 0; i < 2000; i++ {
		// 8 independent chains.
		b.WriteString("\taddi $t0, $t0, 1\n\taddi $t1, $t1, 1\n\taddi $t2, $t2, 1\n\taddi $t3, $t3, 1\n")
		b.WriteString("\taddi $t4, $t4, 1\n\taddi $t5, $t5, 1\n\taddi $t6, $t6, 1\n\taddi $t7, $t7, 1\n")
	}
	b.WriteString("\thalt\n")
	res := simulate(t, compile(t, b.String()), config.Default().WithPorts(2, 0))
	if ipc := res.IPC(); ipc < 6 {
		t.Errorf("independent ALU IPC = %.2f, want >= 6", ipc)
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n")
	for i := 0; i < 5000; i++ {
		b.WriteString("\taddi $t0, $t0, 1\n")
	}
	b.WriteString("\thalt\n")
	res := simulate(t, compile(t, b.String()), config.Default().WithPorts(2, 0))
	if ipc := res.IPC(); ipc > 1.2 {
		t.Errorf("dependent chain IPC = %.2f, want ~1", ipc)
	}
}

// loadHeavy builds a program issuing many independent global-array loads.
func loadHeavy(t *testing.T, n int) *asm.Program {
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n\tla $s0, arr\n")
	for i := 0; i < n; i++ {
		off := (i * 4) % 1024
		reg := i % 8
		b.WriteString("\tlw $t" + string(rune('0'+reg)) + ", " +
			itoa(off) + "($s0) !nonlocal\n")
	}
	b.WriteString("\thalt\n\t.data\narr:\t.space 1024\n")
	return compile(t, b.String())
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var d []byte
	for v > 0 {
		d = append([]byte{byte('0' + v%10)}, d...)
		v /= 10
	}
	return string(d)
}

func TestMorePortsHelpLoadHeavyCode(t *testing.T) {
	prog := loadHeavy(t, 4000)
	one := simulate(t, prog, config.Default().WithPorts(1, 0))
	four := simulate(t, prog, config.Default().WithPorts(4, 0))
	if four.Cycles >= one.Cycles {
		t.Errorf("4 ports (%d cycles) not faster than 1 port (%d cycles)", four.Cycles, one.Cycles)
	}
	// With 1 port, at most ~1 load/cycle: cycles >= loads.
	if one.Cycles < one.Loads {
		t.Errorf("1-port run at %d cycles beat its %d-load port bound", one.Cycles, one.Loads)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	src := `
        .text
main:
        la  $s0, arr
        li  $t0, 7
        sw  $t0, 0($s0) !nonlocal
        lw  $t1, 0($s0) !nonlocal
        out $t1
        halt
        .data
arr:    .space 32
`
	prog := compile(t, src)
	res := simulate(t, prog, config.Default().WithPorts(2, 0))
	checkFunctional(t, prog, res)
	if res.FwdLoads != 1 {
		t.Errorf("FwdLoads = %d, want 1", res.FwdLoads)
	}
}

func TestPartialOverlapDoesNotForward(t *testing.T) {
	src := `
        .text
main:
        la  $s0, arr
        li  $t0, 0x01020304
        sw  $t0, 0($s0) !nonlocal
        lb  $t1, 1($s0) !nonlocal
        out $t1
        halt
        .data
arr:    .space 32
`
	prog := compile(t, src)
	res := simulate(t, prog, config.Default().WithPorts(2, 0))
	checkFunctional(t, prog, res)
	if res.FwdLoads != 0 {
		t.Errorf("partial overlap forwarded (FwdLoads=%d)", res.FwdLoads)
	}
	if res.Output[0] != 3 {
		t.Errorf("lb result = %d, want 3", res.Output[0])
	}
}

// spillProgram has dense same-frame store→reload pairs, the pattern fast
// data forwarding targets.
const spillProgram = `
        .text
main:
        li   $s0, 0
        li   $s1, 400
loop:
        addi $sp, $sp, -32
        sw   $s0, 0($sp) !local
        sw   $s0, 4($sp) !local
        sw   $s0, 8($sp) !local
        lw   $t0, 0($sp) !local
        lw   $t1, 4($sp) !local
        lw   $t2, 8($sp) !local
        add  $t3, $t0, $t1
        add  $t3, $t3, $t2
        addi $sp, $sp, 32
        addi $s0, $s0, 1
        bne  $s0, $s1, loop
        out  $t3
        halt
`

func TestFastForwardingFiresOnSpillCode(t *testing.T) {
	prog := compile(t, spillProgram)
	cfg := config.Default().WithPorts(3, 2)
	cfg.FastForward = true
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)
	if res.FastFwdLoads == 0 {
		t.Error("fast forwarding never fired on spill code")
	}

	cfg.FastForward = false
	base := simulate(t, prog, cfg)
	if base.FastFwdLoads != 0 {
		t.Error("fast forwards counted while disabled")
	}
	if res.Cycles > base.Cycles {
		t.Errorf("fast forwarding slowed the run: %d > %d cycles", res.Cycles, base.Cycles)
	}
}

func TestFastForwardingRespectsFrameGenerations(t *testing.T) {
	// The caller stores to its frame, the callee loads the same *offset*
	// in its own (different) frame: fast forwarding must not match.
	src := `
        .text
main:
        addi $sp, $sp, -16
        li   $t0, 99
        sw   $t0, 0($sp) !local
        jal  child
        out  $v0
        addi $sp, $sp, 16
        halt
child:
        addi $sp, $sp, -16
        sw   $zero, 0($sp) !local
        lw   $v0, 0($sp) !local
        addi $sp, $sp, 16
        jr   $ra
`
	prog := compile(t, src)
	cfg := config.Default().WithPorts(2, 2)
	cfg.FastForward = true
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)
	if res.Output[0] != 0 {
		t.Fatalf("child read %d, want 0", res.Output[0])
	}
}

// burstProgram saves/restores many registers per call: contiguous stack
// accesses that access combining targets.
const burstProgram = `
        .text
main:
        li   $s0, 0
        li   $s1, 300
loop:
        jal  leaf
        addi $s0, $s0, 1
        bne  $s0, $s1, loop
        out  $s0
        halt
leaf:
        addi $sp, $sp, -32
        sw   $s0, 0($sp) !local
        sw   $s1, 4($sp) !local
        sw   $s2, 8($sp) !local
        sw   $s3, 12($sp) !local
        sw   $s4, 16($sp) !local
        sw   $s5, 20($sp) !local
        sw   $s6, 24($sp) !local
        sw   $s7, 28($sp) !local
        lw   $s0, 0($sp) !local
        lw   $s1, 4($sp) !local
        lw   $s2, 8($sp) !local
        lw   $s3, 12($sp) !local
        lw   $s4, 16($sp) !local
        lw   $s5, 20($sp) !local
        lw   $s6, 24($sp) !local
        lw   $s7, 28($sp) !local
        addi $sp, $sp, 32
        jr   $ra
`

func TestAccessCombining(t *testing.T) {
	prog := compile(t, burstProgram)
	cfg := config.Default().WithPorts(3, 1)
	none := simulate(t, prog, cfg)
	if none.CombinedAccesses != 0 {
		t.Errorf("combining fired while disabled: %d", none.CombinedAccesses)
	}

	cfg.CombineWidth = 2
	two := simulate(t, prog, cfg)
	checkFunctional(t, prog, two)
	if two.CombinedAccesses == 0 {
		t.Error("2-way combining never fired on bursty stack code")
	}
	if two.Cycles > none.Cycles {
		t.Errorf("combining slowed the run: %d > %d cycles", two.Cycles, none.Cycles)
	}

	cfg.CombineWidth = 4
	four := simulate(t, prog, cfg)
	if four.CombinedAccesses < two.CombinedAccesses {
		t.Errorf("4-way combined fewer accesses (%d) than 2-way (%d)",
			four.CombinedAccesses, two.CombinedAccesses)
	}
}

func TestSteeringByHints(t *testing.T) {
	prog := compile(t, fibProgram)
	res := simulate(t, prog, config.Default().WithPorts(2, 2))
	if res.Misroutes != 0 {
		t.Errorf("accurate hints misrouted %d accesses", res.Misroutes)
	}
	// All hinted-local accesses are truly stack accesses in fib.
	if res.LVAQDispatched != res.LocalLoads+res.LocalStores {
		t.Errorf("LVAQ got %d accesses, ground truth says %d local",
			res.LVAQDispatched, res.LocalLoads+res.LocalStores)
	}
}

func TestSteeringOracleNeverMisroutes(t *testing.T) {
	// Strip the hints so the oracle has to work from addresses alone.
	src := strings.ReplaceAll(fibProgram, " !local", "")
	prog := compile(t, src)
	cfg := config.Default().WithPorts(2, 2)
	cfg.Steering = config.SteerOracle
	res := simulate(t, prog, cfg)
	if res.Misroutes != 0 {
		t.Errorf("oracle misrouted %d", res.Misroutes)
	}
	if res.LVAQDispatched == 0 {
		t.Error("oracle steered nothing to the LVAQ")
	}
}

func TestSteeringSPHeuristic(t *testing.T) {
	src := strings.ReplaceAll(fibProgram, " !local", "")
	prog := compile(t, src)
	cfg := config.Default().WithPorts(2, 2)
	cfg.Steering = config.SteerSP
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)
	// In fib every local access is $sp-based, so no misroutes either.
	if res.Misroutes != 0 {
		t.Errorf("sp heuristic misrouted %d", res.Misroutes)
	}
	if res.LVAQDispatched == 0 {
		t.Error("sp heuristic steered nothing to the LVAQ")
	}
}

func TestMisrouteRecovery(t *testing.T) {
	// A global access deliberately hinted "local" must be detected at
	// address resolution, re-steered, and charged a recovery stall.
	src := `
        .text
main:
        la  $s0, g
        li  $t0, 5
        sw  $t0, 0($s0) !local
        lw  $t1, 0($s0) !local
        out $t1
        halt
        .data
g:      .word 0
`
	prog := compile(t, src)
	res := simulate(t, prog, config.Default().WithPorts(2, 2))
	checkFunctional(t, prog, res)
	if res.Misroutes != 2 {
		t.Errorf("misroutes = %d, want 2", res.Misroutes)
	}
	if res.RecoveryStallCycles == 0 {
		t.Error("no recovery stall charged")
	}
	// After recovery the accesses must have gone to the L1, not the LVC.
	if res.LVC.Accesses() != 0 {
		t.Errorf("misrouted access reached the LVC (%d accesses)", res.LVC.Accesses())
	}
}

func TestPredictorLearnsAmbiguousAccess(t *testing.T) {
	// An unhinted global access through a non-$sp register: the default
	// guess (non-local) is right, so no misroute. Then an unhinted STACK
	// access through a copied pointer: default guess non-local is wrong;
	// the predictor learns, and the second execution steers correctly.
	src := `
        .text
main:
        move $s0, $sp
        addi $sp, $sp, -8
        li   $s1, 0
        li   $s2, 3
loop:
        sw   $s1, -4($s0)
        lw   $t0, -4($s0)
        addi $s1, $s1, 1
        bne  $s1, $s2, loop
        addi $sp, $sp, 8
        out  $t0
        halt
`
	prog := compile(t, src)
	res := simulate(t, prog, config.Default().WithPorts(2, 2))
	checkFunctional(t, prog, res)
	if res.Misroutes == 0 {
		t.Error("expected at least one misroute before the predictor learns")
	}
	// 2 static accesses * 3 iterations = 6 dynamic; only the first
	// encounter of each should misroute.
	if res.Misroutes > 2 {
		t.Errorf("misroutes = %d, predictor did not learn", res.Misroutes)
	}
}

func TestNoLVCMeansNoLVAQTraffic(t *testing.T) {
	prog := compile(t, fibProgram)
	res := simulate(t, prog, config.Default().WithPorts(4, 0))
	if res.LVAQDispatched != 0 || res.LVC.Accesses() != 0 {
		t.Errorf("(4+0) used the LVAQ/LVC: %d/%d", res.LVAQDispatched, res.LVC.Accesses())
	}
	if res.LSQDispatched != res.Loads+res.Stores {
		t.Errorf("LSQ %d != refs %d", res.LSQDispatched, res.Loads+res.Stores)
	}
}

// TestMaxInstsBudget: MaxInsts bounds committed instructions. A misroute
// squash reopens dispatch for exactly the squashed window, so a run whose
// accesses misroute after the budget is dispatched still commits the
// whole budget: dualProgram's pointer-based stack accesses misroute on
// every iteration under the $sp heuristic, and m88ksim's misroute too.
func TestMaxInstsBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n")
	for i := 0; i < 100; i++ {
		b.WriteString("\taddi $t0, $t0, 1\n")
	}
	b.WriteString("\thalt\n")
	m88ksim, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	sp := config.Default().WithPorts(2, 2)
	sp.Steering = config.SteerSP
	for _, tc := range []struct {
		name   string
		prog   *asm.Program
		cfg    config.Config
		budget uint64
	}{
		{"straight-line", compile(t, b.String()), config.Default().WithPorts(2, 0), 50},
		{"dualProgram-sp", compile(t, dualProgram), sp, 300},
		{"m88ksim-sp", m88ksim.Program(0.02), sp, 5000},
	} {
		for _, e := range []Engine{EngineTick, EngineEvent} {
			cfg := tc.cfg
			cfg.MaxInsts = tc.budget
			c, err := New(tc.prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.RunWith(context.Background(), RunOptions{Engine: e})
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, e, err)
			}
			if res.Committed != tc.budget {
				t.Errorf("%s/%v: committed %d, want %d", tc.name, e, res.Committed, tc.budget)
			}
			if tc.cfg.Steering == config.SteerSP && res.Misroutes == 0 {
				t.Errorf("%s/%v: no misroutes, so no squash reopened dispatch", tc.name, e)
			}
			assertPipelineDrained(t, c, tc.name+"/"+e.String())
		}
	}
}

func TestLocalCountsMatchGroundTruth(t *testing.T) {
	prog := compile(t, fibProgram)
	res := simulate(t, prog, config.Default().WithPorts(2, 0))
	// fib: every sw/lw in the program is $sp-based.
	if res.LocalLoads != res.Loads || res.LocalStores != res.Stores {
		t.Errorf("local %d/%d, total %d/%d — fib only has stack accesses",
			res.LocalLoads, res.LocalStores, res.Loads, res.Stores)
	}
	if res.LocalFraction() != 1.0 {
		t.Errorf("local fraction = %f, want 1", res.LocalFraction())
	}
}

func TestWiderLVCPortsNotSlower(t *testing.T) {
	prog := compile(t, burstProgram)
	m1 := simulate(t, prog, config.Default().WithPorts(2, 1))
	m2 := simulate(t, prog, config.Default().WithPorts(2, 2))
	m3 := simulate(t, prog, config.Default().WithPorts(2, 3))
	if m2.Cycles > m1.Cycles {
		t.Errorf("(2+2) %d cycles slower than (2+1) %d", m2.Cycles, m1.Cycles)
	}
	if m3.Cycles > m2.Cycles {
		t.Errorf("(2+3) %d cycles slower than (2+2) %d", m3.Cycles, m2.Cycles)
	}
}

func TestResultStringRenders(t *testing.T) {
	prog := compile(t, fibProgram)
	res := simulate(t, prog, config.Default().WithPorts(2, 2))
	s := res.String()
	for _, want := range []string{"IPC", "LVC", "loads", "misroutes"} {
		if !strings.Contains(s, want) {
			t.Errorf("result string missing %q:\n%s", want, s)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	prog := compile(t, fibProgram)
	cfg := config.Default()
	cfg.DCachePorts = 0
	if _, err := New(prog, cfg); err == nil {
		t.Error("zero-port config accepted")
	}
}

func TestInfiniteLoopHitsCycleBudget(t *testing.T) {
	prog := compile(t, "\t.text\nmain:\n\tb main\n")
	cfg := config.Default().WithPorts(2, 0)
	cfg.MaxInsts = 200_000_000 // won't be reached: it never commits past budget
	c, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An infinite loop of branches commits fine, so this program *does*
	// make progress; cap it tightly instead.
	c.cfg.MaxInsts = 10_000
	res, err := c.Run()
	if err != nil {
		t.Fatalf("bounded run failed: %v", err)
	}
	if res.Committed != 10_000 {
		t.Errorf("committed %d", res.Committed)
	}
}
