package emu

import (
	"errors"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p)
	halted, err := m.Run(1_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !halted {
		t.Fatal("program did not halt within budget")
	}
	return m
}

func wantOutput(t *testing.T, m *Machine, want ...int64) {
	t.Helper()
	if len(m.Output) != len(want) {
		t.Fatalf("output = %v, want %v", m.Output, want)
	}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, m.Output[i], want[i])
		}
	}
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
        .text
main:
        li   $t0, 21
        li   $t1, 2
        mul  $t2, $t0, $t1
        out  $t2
        sub  $t3, $t2, $t0
        out  $t3
        div  $t4, $t2, $t1
        out  $t4
        rem  $t5, $t0, $t1
        out  $t5
        halt
`)
	wantOutput(t, m, 42, 21, 21, 1)
}

func TestDivideByZeroIsZero(t *testing.T) {
	m := run(t, `
        .text
main:
        li  $t0, 7
        div $t1, $t0, $zero
        out $t1
        rem $t2, $t0, $zero
        out $t2
        halt
`)
	wantOutput(t, m, 0, 0)
}

func TestLogicAndShifts(t *testing.T) {
	m := run(t, `
        .text
main:
        li   $t0, 0xF0
        li   $t1, 0x0F
        or   $t2, $t0, $t1
        out  $t2
        and  $t3, $t0, $t1
        out  $t3
        xor  $t4, $t0, $t1
        out  $t4
        slli $t5, $t1, 4
        out  $t5
        srli $t6, $t0, 4
        out  $t6
        li   $t7, -8
        srai $t7, $t7, 1
        out  $t7
        halt
`)
	wantOutput(t, m, 0xFF, 0, 0xFF, 0xF0, 0x0F, -4)
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := run(t, `
        .text
main:
        li  $zero, 99
        out $zero
        halt
`)
	wantOutput(t, m, 0)
}

func TestMemoryLoadsStores(t *testing.T) {
	m := run(t, `
        .text
main:
        la  $t0, buf
        li  $t1, -2
        sw  $t1, 0($t0)
        lw  $t2, 0($t0)
        out $t2
        lh  $t3, 0($t0)
        out $t3
        lhu $t4, 0($t0)
        out $t4
        lb  $t5, 0($t0)
        out $t5
        lbu $t6, 0($t0)
        out $t6
        li  $t1, 300
        sb  $t1, 4($t0)
        lbu $t2, 4($t0)
        out $t2
        sh  $t1, 8($t0)
        lh  $t2, 8($t0)
        out $t2
        halt
        .data
buf:    .space 16
`)
	wantOutput(t, m, -2, -2, 0xFFFE, -2, 0xFE, 300&0xFF, 300)
}

func TestStackPushPop(t *testing.T) {
	m := run(t, `
        .text
main:
        addi $sp, $sp, -8
        li   $t0, 123
        sw   $t0, 0($sp) !local
        sw   $t0, 4($sp) !local
        lw   $t1, 4($sp) !local
        out  $t1
        addi $sp, $sp, 8
        halt
`)
	wantOutput(t, m, 123)
	if uint32(m.GPR[isa.RegSP]) != isa.StackBase {
		t.Errorf("$sp = %#x, want %#x", uint32(m.GPR[isa.RegSP]), isa.StackBase)
	}
}

func TestCallReturn(t *testing.T) {
	m := run(t, `
        .text
main:
        li   $a0, 5
        jal  double
        out  $v0
        halt
double:
        add  $v0, $a0, $a0
        jr   $ra
`)
	wantOutput(t, m, 10)
}

func TestRecursiveFactorial(t *testing.T) {
	m := run(t, `
        .text
main:
        li   $a0, 6
        jal  fact
        out  $v0
        halt
fact:
        addi $sp, $sp, -8
        sw   $ra, 4($sp) !local
        sw   $a0, 0($sp) !local
        li   $v0, 1
        blez $a0, fact_done
        addi $a0, $a0, -1
        jal  fact
        lw   $a0, 0($sp) !local
        mul  $v0, $v0, $a0
fact_done:
        lw   $ra, 4($sp) !local
        addi $sp, $sp, 8
        jr   $ra
`)
	wantOutput(t, m, 720)
}

func TestLoopSum(t *testing.T) {
	m := run(t, `
        .text
main:
        li   $t0, 0      # sum
        li   $t1, 1      # i
        li   $t2, 100
loop:
        add  $t0, $t0, $t1
        addi $t1, $t1, 1
        ble_check:
        bge  $t2, $t1, loop
        out  $t0
        halt
`)
	wantOutput(t, m, 5050)
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, `
        .text
main:
        li    $t0, 3
        cvtif $f0, $t0
        li    $t1, 4
        cvtif $f1, $t1
        fmul  $f2, $f0, $f0
        fmul  $f3, $f1, $f1
        fadd  $f4, $f2, $f3
        fout  $f4
        fdiv  $f5, $f0, $f1
        fout  $f5
        fneg  $f6, $f5
        fout  $f6
        fabs  $f7, $f6
        fout  $f7
        cvtfi $t2, $f4
        out   $t2
        fclt  $t3, $f0, $f1
        out   $t3
        halt
`)
	wantF := []float64{25, 0.75, -0.75, 0.75}
	if len(m.FOutput) != len(wantF) {
		t.Fatalf("foutput = %v", m.FOutput)
	}
	for i, w := range wantF {
		if m.FOutput[i] != w {
			t.Errorf("foutput[%d] = %g, want %g", i, m.FOutput[i], w)
		}
	}
	wantOutput(t, m, 25, 1)
}

func TestFloatMemory(t *testing.T) {
	m := run(t, `
        .text
main:
        la   $t0, vals
        fld  $f0, 0($t0)
        fld  $f1, 8($t0)
        fadd $f2, $f0, $f1
        fout $f2
        fsd  $f2, 16($t0)
        fld  $f3, 16($t0)
        fout $f3
        flw  $f4, 24($t0)
        fout $f4
        fsw  $f4, 28($t0)
        flw  $f5, 28($t0)
        fout $f5
        halt
        .data
vals:   .double 1.5, 2.25
        .space 8
        .float 0.5, 0.0
`)
	want := []float64{3.75, 3.75, 0.5, 0.5}
	if len(m.FOutput) != len(want) {
		t.Fatalf("foutput = %v", m.FOutput)
	}
	for i, w := range want {
		if m.FOutput[i] != w {
			t.Errorf("foutput[%d] = %g, want %g", i, m.FOutput[i], w)
		}
	}
}

func TestBranchVariants(t *testing.T) {
	m := run(t, `
        .text
main:
        li   $t0, -1
        bltz $t0, l1
        out  $zero
l1:     bgez $t0, bad
        li   $t1, 1
        bgtz $t1, l2
        out  $zero
l2:     blez $t1, bad
        li   $t2, 5
        li   $t3, 5
        beq  $t2, $t3, l3
        out  $zero
l3:     bne  $t2, $t3, bad
        blt  $t0, $t1, l4
        out  $zero
l4:     bge  $t1, $t0, l5
        out  $zero
l5:     li   $v0, 77
        out  $v0
        halt
bad:    out  $zero
        halt
`)
	wantOutput(t, m, 77)
}

func TestEffectMetadata(t *testing.T) {
	p, err := asm.Assemble("fx.s", `
        .text
main:
        addi $sp, $sp, -8
        sw   $t0, 4($sp) !local
        lw   $t1, 4($sp) !local
        beq  $t1, $t0, skip
        nop
skip:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)

	ef, _ := m.Step() // addi
	if ef.Inst.Op != isa.ADDI || ef.NextPC != p.Entry+4 {
		t.Errorf("addi effect = %+v", ef)
	}
	ef, _ = m.Step() // sw
	wantAddr := isa.StackBase - 8 + 4
	if !ef.Inst.IsStore() || ef.Addr != wantAddr || ef.Bytes != 4 {
		t.Errorf("sw effect = %+v, want addr %#x", ef, wantAddr)
	}
	if !isa.InStackRegion(ef.Addr) {
		t.Error("stack store address not in stack region")
	}
	ef, _ = m.Step() // lw
	if !ef.Inst.IsLoad() || ef.Addr != wantAddr {
		t.Errorf("lw effect = %+v", ef)
	}
	ef, _ = m.Step() // beq taken (t0 == t1 == 0)
	if !ef.Taken {
		t.Error("equal beq not taken")
	}
	if ef.NextPC != m.Prog.Symbols["skip"] {
		t.Errorf("branch NextPC = %#x, want %#x", ef.NextPC, m.Prog.Symbols["skip"])
	}
}

// TestStepIntoReusedSlot steps one machine with Step and a twin with
// StepInto into a single reused Effect: every effect must match, so no
// field of a previous effect (a taken branch, a memory address) survives
// into the next one written over it.
func TestStepIntoReusedSlot(t *testing.T) {
	p, err := asm.Assemble("slot.s", `
        .text
main:
        addi $sp, $sp, -8
        li   $t0, 3
loop:
        sw   $t0, 4($sp) !local
        addi $t0, $t0, -1
        bgtz $t0, loop
        lw   $t1, 4($sp) !local
        out  $t1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	ref, m := New(p), New(p)
	var ef Effect
	for !ref.Halted {
		want, werr := ref.Step()
		if err := m.StepInto(&ef); err != nil || werr != nil {
			t.Fatalf("step errors: Step=%v StepInto=%v", werr, err)
		}
		if ef != want {
			t.Fatalf("StepInto wrote %+v, Step returned %+v", ef, want)
		}
	}
	if m.InstCount != ref.InstCount || !m.Halted {
		t.Errorf("StepInto machine: %d instructions, halted=%v; Step machine: %d", m.InstCount, m.Halted, ref.InstCount)
	}
	if err := m.StepInto(&ef); err == nil {
		t.Error("StepInto after halt did not error")
	}
}

func TestJalrAndJr(t *testing.T) {
	m := run(t, `
        .text
main:
        la   $t0, target
        jalr $ra, $t0
        out  $v0
        halt
target:
        li   $v0, 9
        jr   $ra
`)
	wantOutput(t, m, 9)
}

func TestLUI(t *testing.T) {
	m := run(t, `
        .text
main:
        lui $t0, 1
        out $t0
        halt
`)
	wantOutput(t, m, 65536)
}

func TestRunBudget(t *testing.T) {
	p, err := asm.Assemble("loop.s", "\t.text\nmain:\n\tb main\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	halted, err := m.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if halted {
		t.Error("infinite loop reported as halted")
	}
	if m.InstCount != 100 {
		t.Errorf("InstCount = %d, want 100", m.InstCount)
	}
}

func TestPCOutsideText(t *testing.T) {
	p, err := asm.Assemble("fall.s", "\t.text\nmain:\n\tnop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if _, err := m.Step(); err != nil {
		t.Fatalf("first step: %v", err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("fall off the end did not error")
	}
}

func TestStepAfterHalt(t *testing.T) {
	m := run(t, "\t.text\nmain:\n\thalt\n")
	if _, err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("step after halt: err = %v, want ErrHalted", err)
	}
}

// TestMemoryEffectWidths steps every load and store opcode once: each
// case in StepInto sets its access width as a constant, and it must equal
// the ISA's MemBytes for that opcode, with the address base plus
// displacement.
func TestMemoryEffectWidths(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		in := isa.Inst{Op: op, Rd: isa.RegT0, Rs: isa.RegSP, Rt: isa.RegA0, Imm: -12}
		if !in.IsMem() {
			continue
		}
		m := New(&asm.Program{Entry: isa.TextBase, TextBase: isa.TextBase, Text: []isa.Inst{in}})
		var ef Effect
		if err := m.StepInto(&ef); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if int(ef.Bytes) != in.MemBytes() || ef.Addr != isa.StackBase-12 {
			t.Errorf("%v: effect addr %#x, %d bytes; want %#x, %d", op, ef.Addr, ef.Bytes, isa.StackBase-12, in.MemBytes())
		}
	}
}

func TestCVTFISaturation(t *testing.T) {
	m := run(t, `
        .text
main:
        li    $t0, 1000000
        cvtif $f0, $t0
        fmul  $f0, $f0, $f0    # 1e12 > MaxInt32
        cvtfi $t1, $f0
        out   $t1
        fneg  $f1, $f0
        cvtfi $t2, $f1
        out   $t2
        halt
`)
	wantOutput(t, m, math.MaxInt32, math.MinInt32)
}

func TestGPInitialized(t *testing.T) {
	p, _ := asm.Assemble("gp.s", "\t.text\nmain:\n\thalt\n")
	m := New(p)
	if uint32(m.GPR[isa.RegGP]) != p.DataBase {
		t.Errorf("$gp = %#x, want %#x", uint32(m.GPR[isa.RegGP]), p.DataBase)
	}
}
