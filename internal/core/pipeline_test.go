package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// Targeted micro-architecture tests: each pins one pipeline mechanism.

func TestROBFullStalls(t *testing.T) {
	// A long dependent divide chain backs up the ROB: with 128 entries
	// and 35-cycle divides, dispatch must hit the ROB-full condition.
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n\tli $t1, 3\n")
	for i := 0; i < 600; i++ {
		b.WriteString("\tdiv $t0, $t0, $t1\n")
	}
	b.WriteString("\thalt\n")
	res := simulate(t, compile(t, b.String()), config.Default().WithPorts(2, 0))
	if res.ROBFullStalls == 0 {
		t.Error("divide chain never filled the ROB")
	}
}

func TestQueueFullStalls(t *testing.T) {
	// More outstanding loads than LSQ entries, all missing to memory.
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n\tla $s0, arr\n")
	for i := 0; i < 300; i++ {
		b.WriteString("\tlw $t0, " + itoa(i*4096%65536) + "($s0) !nonlocal\n")
	}
	b.WriteString("\thalt\n\t.data\narr:\t.space 65536\n")
	cfg := config.Default().WithPorts(1, 0)
	cfg.LSQSize = 8
	res := simulate(t, compile(t, b.String()), cfg)
	if res.QueueFullStalls == 0 {
		t.Error("tiny LSQ never filled")
	}
}

func TestFUContentionOnDivides(t *testing.T) {
	// 8 independent divide chains vs 1 divider: FU stalls must appear
	// and the 4-divider default must be faster.
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n\tli $s1, 3\n")
	for i := 0; i < 200; i++ {
		for r := 0; r < 8; r++ {
			b.WriteString("\tdiv $t" + itoa(r) + ", $t" + itoa(r) + ", $s1\n")
		}
	}
	b.WriteString("\thalt\n")
	prog := compile(t, b.String())

	one := config.Default().WithPorts(2, 0)
	one.IntMulDiv = 1
	r1 := simulate(t, prog, one)
	r4 := simulate(t, prog, config.Default().WithPorts(2, 0))
	if r1.FUStalls == 0 {
		t.Error("single divider never contended")
	}
	if r4.Cycles >= r1.Cycles {
		t.Errorf("4 dividers (%d cycles) not faster than 1 (%d)", r4.Cycles, r1.Cycles)
	}
}

func TestLoadWaitsForOlderStoreAddress(t *testing.T) {
	// A store whose base register comes off a divide chain delays every
	// younger load in the same queue (order stalls).
	src := `
        .text
main:
        la   $s0, arr
        li   $t1, 3
        div  $t2, $t1, $t1
        div  $t2, $t2, $t1
        add  $t3, $s0, $t2
        sw   $t1, 0($t3) !nonlocal
        lw   $t4, 64($s0) !nonlocal
        out  $t4
        halt
        .data
arr:    .space 128
`
	prog := compile(t, src)
	res := simulate(t, prog, config.Default().WithPorts(2, 0))
	checkFunctional(t, prog, res)
	if res.LoadOrderStalls == 0 {
		t.Error("load never waited for the unresolved store address")
	}
}

func TestRecoveryPenaltyConfigurable(t *testing.T) {
	src := `
        .text
main:
        la  $s0, g
        li  $s1, 0
loop:
        sw  $s1, 0($s0) !local
        addi $s1, $s1, 1
        slti $t0, $s1, 40
        bnez $t0, loop
        out $s1
        halt
        .data
g:      .word 0
`
	prog := compile(t, src)
	cheap := config.Default().WithPorts(2, 2)
	cheap.RecoveryPenalty = 1
	costly := cheap
	costly.RecoveryPenalty = 60
	rc := simulate(t, prog, cheap)
	rx := simulate(t, prog, costly)
	if rc.Misroutes == 0 {
		t.Fatal("mishinted store never misrouted")
	}
	if rx.Cycles <= rc.Cycles {
		t.Errorf("60-cycle recovery (%d cycles) not slower than 1-cycle (%d)",
			rx.Cycles, rc.Cycles)
	}
}

func TestFastForwardWidthMismatchBlocksBypass(t *testing.T) {
	// Store a word, load a byte at the same offset: fast forwarding must
	// decline (width mismatch) and the value still be correct.
	src := `
        .text
main:
        addi $sp, $sp, -8
        li   $t0, 0x0102
        sw   $t0, 0($sp) !local
        lb   $t1, 0($sp) !local
        out  $t1
        addi $sp, $sp, 8
        halt
`
	prog := compile(t, src)
	cfg := config.Default().WithPorts(2, 2)
	cfg.FastForward = true
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)
	if res.FastFwdLoads != 0 {
		t.Error("width-mismatched pair fast-forwarded")
	}
	if res.Output[0] != 2 {
		t.Errorf("lb got %d, want 2", res.Output[0])
	}
}

func TestFastForwardBlockedByNonSPStore(t *testing.T) {
	// An intervening store through a derived pointer could alias: fast
	// forwarding must stop scanning at it. Here it *does* alias.
	src := `
        .text
main:
        addi $sp, $sp, -8
        li   $t0, 1
        sw   $t0, 0($sp) !local
        move $t1, $sp
        li   $t2, 2
        sw   $t2, 0($t1) !local
        lw   $t3, 0($sp) !local
        out  $t3
        addi $sp, $sp, 8
        halt
`
	prog := compile(t, src)
	cfg := config.Default().WithPorts(2, 2)
	cfg.FastForward = true
	res := simulate(t, prog, cfg)
	checkFunctional(t, prog, res)
	if res.Output[0] != 2 {
		t.Fatalf("load got %d, want the aliased store's 2", res.Output[0])
	}
	if res.FastFwdLoads != 0 {
		t.Error("fast forwarding bypassed a potentially aliasing store")
	}
}

func TestCombiningRespectsWindow(t *testing.T) {
	// Two same-line stores separated by more than CombineWidth LVAQ
	// entries must not combine; adjacent ones must.
	mk := func(gap int) *asm.Program {
		var b strings.Builder
		b.WriteString("\t.text\nmain:\n\taddi $sp, $sp, -64\n\tli $s0, 200\nloop:\n")
		b.WriteString("\tsw $t0, 0($sp) !local\n")
		for i := 0; i < gap; i++ {
			b.WriteString("\tlw $t1, 60($sp) !local\n")
		}
		b.WriteString("\tsw $t0, 4($sp) !local\n")
		b.WriteString("\taddi $s0, $s0, -1\n\tbnez $s0, loop\n")
		b.WriteString("\taddi $sp, $sp, 64\n\thalt\n")
		return compileHelper(b.String())
	}
	cfg := config.Default().WithPorts(3, 1)
	cfg.CombineWidth = 2

	adjacent, err := New(mk(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resAdj, err := adjacent.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resAdj.CombinedAccesses == 0 {
		t.Error("adjacent same-line stores never combined")
	}
}

// compileHelper mirrors compile but without a *testing.T (used by table
// constructors).
func compileHelper(src string) *asm.Program {
	p, err := asm.Assemble("h.s", src)
	if err != nil {
		panic(err)
	}
	return p
}

func TestStorePortStallsUnderOnePort(t *testing.T) {
	// Bursty local stores against a single LVC port: store commits must
	// contend for the port.
	var b strings.Builder
	b.WriteString("\t.text\nmain:\n\taddi $sp, $sp, -256\n\tli $s0, 100\nloop:\n")
	for i := 0; i < 16; i++ {
		b.WriteString("\tsw $t0, " + itoa(i*36%256) + "($sp) !local\n")
	}
	b.WriteString("\taddi $s0, $s0, -1\n\tbnez $s0, loop\n\taddi $sp, $sp, 256\n\thalt\n")
	prog := compile(t, b.String())
	res := simulate(t, prog, config.Default().WithPorts(3, 1))
	if res.StorePortStalls == 0 {
		t.Error("16 stores/iteration never stalled on 1 LVC port")
	}
}

func TestMemRefsAndLocalFraction(t *testing.T) {
	prog := compile(t, fibProgram)
	res := simulate(t, prog, config.Default())
	if res.MemRefs() != res.Loads+res.Stores {
		t.Error("MemRefs mismatch")
	}
	if res.LocalFraction() != 1 {
		t.Errorf("fib local fraction = %f", res.LocalFraction())
	}
}

// misrouteLoop makes misroute recovery replay into a full queue. Under
// SteerSP the $t0-based store is steered to the LSQ and resolves to the
// stack; by then the younger lw $t4 has dispatched into the LVAQ behind a
// store whose value waits on a memory miss. The squash sends lw $t4 and
// everything after it back to the fetch deque, the misrouted store moves
// into the LVAQ, and the two-entry LVAQ then stays full until the miss
// returns, long after the recovery stall ends.
const misrouteLoop = `
        .text
main:
        la   $s0, arr
        addi $sp, $sp, -64
        move $t0, $sp
        li   $t1, 0
        li   $t2, 40
loop:
        lw   $t3, 0($s0)
        sw   $t3, 4($sp)
        sw   $t1, 0($t0)
        lw   $t4, 8($sp)
        add  $t5, $t4, $t1
        out  $t5
        addi $s0, $s0, 4096
        addi $t1, $t1, 1
        bne  $t1, $t2, loop
        addi $sp, $sp, 64
        halt
        .data
arr:    .space 163840
`

// TestFetchDequeReplaysInOrderUnderQueuePressure forces the dispatch
// hazard of a replayed effect stalling on a full queue: misroute squashes
// refill the fetch deque while two-entry queues keep stalling its front.
// The test counts the cycles that end with a stalled front and a younger
// replayed effect behind it (the emulator refills only an empty deque, so
// any second entry came from a squash), and requires the run to commit
// exactly the emulator's instruction stream and outputs, identically
// under both engines.
func TestFetchDequeReplaysInOrderUnderQueuePressure(t *testing.T) {
	tiny := config.Default().WithPorts(2, 2).WithOptimizations(2)
	tiny.LSQSize, tiny.LVAQSize = 2, 2
	sp := tiny
	sp.Steering = config.SteerSP

	m88k, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog *asm.Program
		cfg  config.Config
	}{
		{"misroute-loop/sp", compile(t, misrouteLoop), sp},
		// Stripped hints leave steering to the region predictor: its
		// mispredictions squash, and its PredictedSteers counter moves on
		// every stalled dispatch attempt, skipped cycles included.
		{"m88ksim-stripped/hint", m88k.ProgramStripped(0.02), tiny},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.prog, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stalledReplays := 0
			for !c.done() && c.now < 10_000_000 {
				stalls := c.stats.QueueFullStalls
				c.cycle()
				if c.stats.QueueFullStalls > stalls && c.fetchN >= 2 {
					stalledReplays++
				}
			}
			if !c.done() {
				t.Fatalf("run did not finish by cycle %d", c.now)
			}
			if stalledReplays == 0 {
				t.Fatal("no replayed effect ever stalled on a full queue; the test lost its scenario")
			}
			ref := emu.New(tc.prog)
			if _, err := ref.Run(0); err != nil {
				t.Fatal(err)
			}
			res := c.result()
			if res.Committed != ref.InstCount {
				t.Errorf("committed %d instructions, emulator retired %d", res.Committed, ref.InstCount)
			}
			if !reflect.DeepEqual(res.Output, ref.Output) || !reflect.DeepEqual(res.FOutput, ref.FOutput) {
				t.Errorf("outputs diverge from the emulator's")
			}

			var results [2]*Result
			for i, e := range []Engine{EngineTick, EngineEvent} {
				c, err := New(tc.prog, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if results[i], err = c.RunWith(context.Background(), RunOptions{Engine: e}); err != nil {
					t.Fatalf("engine %v: %v", e, err)
				}
			}
			assertResultsIdentical(t, results[0], results[1])
			if !reflect.DeepEqual(results[0], res) {
				t.Error("RunWith's tick engine diverges from the hand-driven cycle loop")
			}
		})
	}
}

// issueLog is a Tracer that keeps the committed instructions' timelines
// in commit order.
type issueLog []TraceEvent

func (l *issueLog) Trace(ev TraceEvent) {
	if !ev.Squashed {
		*l = append(*l, ev)
	}
}

// checkIssueAfterOperands asserts the dataflow the wakeup push enforces:
// every committed instruction issued no earlier than each operand gating
// its issue was ready — both sources of a non-memory instruction, the
// base register of a memory access (a store's data gates only its
// completion). A fast-forwarded load never issues and is skipped.
func checkIssueAfterOperands(t *testing.T, c *Core, log issueLog) {
	t.Helper()
	var readyAt [isa.NumRegs]uint64 // of each register's latest writer
	for _, ev := range log {
		d := c.decodedAt(ev.PC)
		srcs := d.src[:d.nsrc]
		if d.isMem {
			srcs = srcs[:min(len(srcs), 1)]
		}
		for _, r := range srcs {
			if ev.IssuedAt != 0 && ev.IssuedAt < readyAt[r] {
				t.Errorf("seq %d (%s) issued at cycle %d, before its operand %s was ready at %d",
					ev.Seq, ev.Inst, ev.IssuedAt, r, readyAt[r])
			}
		}
		if d.hasDest {
			readyAt[d.dest] = ev.ReadyAt
		}
	}
}

// TestSquashedConsumerLeavesNoWakeup: a producer's completion push must
// skip the records of consumers that were squashed meanwhile. The stack
// load through the pointer copy $s0 misroutes under the $sp heuristic
// and squashes the window div, add, out, halt while the second divide
// waits for the first. The pool hands squashed entries out last-in
// first-out, so the replayed out takes the add's old entry, and the
// second divide still holds the add's record. That divide issues after
// the replay and pushes its result, ready at cycle 73, into the entry,
// while the replayed add waits on the replayed divide of the loaded value
// and is ready only at 103: a push that did not skip the stale record
// would let the out issue thirty cycles before its operand.
func TestSquashedConsumerLeavesNoWakeup(t *testing.T) {
	prog := compile(t, `
        .text
main:
        li   $s4, 7
        li   $s6, 1
        move $s0, $sp
        div  $t7, $s4, $s6
        div  $t8, $t7, $s6
        lw   $t0, -4($s0)
        div  $t9, $t0, $s6
        add  $t1, $t8, $t9
        out  $t1
        halt
`)
	cfg := config.Default().WithPorts(2, 2)
	cfg.Steering = config.SteerSP
	for _, e := range []Engine{EngineTick, EngineEvent} {
		c, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var log issueLog
		c.SetTracer(&log)
		res, err := c.RunWith(context.Background(), RunOptions{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		checkFunctional(t, prog, res)
		if res.Misroutes != 1 || res.Squashed != 4 {
			t.Fatalf("%v: %d misroutes, %d squashed; want 1 and 4", e, res.Misroutes, res.Squashed)
		}
		checkIssueAfterOperands(t, c, log)
	}
}
