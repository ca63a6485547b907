// Package emu implements the functional (architectural) emulator for the
// simulator's ISA.
//
// The emulator plays two roles. Standalone, it runs programs to completion
// for functional verification and for the paper's profiling experiments
// (instruction mix, frame sizes, LVC miss rates). Inside the timing core it
// is the oracle front end: with the paper's perfect I-cache and perfect
// branch prediction, the fetch stage follows exactly the architectural
// path, so the timing model executes instructions functionally as they are
// fetched and replays their dependences and latencies (the `sim-outorder`
// approach).
package emu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

var (
	// ErrNoInst is returned when the PC leaves the text segment.
	ErrNoInst = errors.New("emu: PC outside text segment")
	// ErrHalted is returned when a halted machine is stepped.
	ErrHalted = errors.New("emu: machine is halted")
)

// Effect records the architectural effect of one executed instruction. The
// timing core uses it to know the true next PC and the effective address
// of memory operations; profilers use the remaining fields.
type Effect struct {
	PC     uint32
	Inst   isa.Inst
	NextPC uint32
	// Addr and Bytes describe the data memory access, if Inst.IsMem().
	Addr  uint32
	Bytes uint8
	// Taken reports whether a conditional branch was taken.
	Taken bool
}

// Machine is the architectural state of a running program.
type Machine struct {
	Prog *asm.Program
	Mem  *mem.Memory

	PC  uint32
	GPR [32]int32
	FPR [32]float64

	// Output and FOutput collect the values emitted by OUT and FOUT, the
	// ISA's only observable side channel. Tests compare them across the
	// emulator and the timing core.
	Output  []int64
	FOutput []float64

	Halted    bool
	InstCount uint64
}

// New loads prog into a fresh machine: data segment at its base, $sp at the
// stack base, $gp at the data base, PC at the entry point.
func New(prog *asm.Program) *Machine {
	m := &Machine{
		Prog: prog,
		Mem:  mem.New(),
		PC:   prog.Entry,
	}
	if len(prog.Data) > 0 {
		m.Mem.Write(prog.DataBase, prog.Data)
	}
	m.GPR[isa.RegSP] = int32(isa.StackBase)
	m.GPR[isa.RegFP] = int32(isa.StackBase)
	m.GPR[isa.RegGP] = int32(prog.DataBase)
	return m
}

func (m *Machine) gpr(r isa.Reg) int32 {
	return m.GPR[r&31]
}

func (m *Machine) setGPR(r isa.Reg, v int32) {
	if r != isa.RegZero {
		m.GPR[r&31] = v
	}
}

func (m *Machine) fpr(r isa.Reg) float64 {
	return m.FPR[r&31]
}

func (m *Machine) setFPR(r isa.Reg, v float64) {
	m.FPR[r&31] = v
}

// Step executes the instruction at the current PC and advances the machine.
// It returns the instruction's architectural effect.
func (m *Machine) Step() (Effect, error) {
	var ef Effect
	if err := m.StepInto(&ef); err != nil {
		return Effect{}, err
	}
	return ef, nil
}

// StepInto is Step writing the effect into storage the caller owns, so a
// front end that buffers effects fills its slots in place instead of
// copying each one out through a return value. It stores every field of
// *ef, so a reused slot keeps nothing of the effect it held before. On
// error the machine has not advanced and *ef holds no meaningful effect.
//
//ddvet:hotpath
func (m *Machine) StepInto(ef *Effect) error {
	if m.Halted {
		return ErrHalted
	}
	pc := m.PC
	in, ok := m.Prog.InstAt(pc)
	if !ok {
		//ddvet:allow hotpath-fmt -- fault path: the PC left the text segment, which ends the run
		return fmt.Errorf("%w: pc=%#x", ErrNoInst, pc) //ddvet:allow hotpath-escape -- boxing the fault's PC, once per run
	}
	ef.PC, ef.Inst, ef.NextPC = pc, in, pc+isa.InstBytes
	ef.Addr, ef.Bytes, ef.Taken = 0, 0, false

	switch in.Op {
	case isa.NOP:

	case isa.ADD:
		m.setGPR(in.Rd, m.gpr(in.Rs)+m.gpr(in.Rt))
	case isa.SUB:
		m.setGPR(in.Rd, m.gpr(in.Rs)-m.gpr(in.Rt))
	case isa.AND:
		m.setGPR(in.Rd, m.gpr(in.Rs)&m.gpr(in.Rt))
	case isa.OR:
		m.setGPR(in.Rd, m.gpr(in.Rs)|m.gpr(in.Rt))
	case isa.XOR:
		m.setGPR(in.Rd, m.gpr(in.Rs)^m.gpr(in.Rt))
	case isa.NOR:
		m.setGPR(in.Rd, ^(m.gpr(in.Rs) | m.gpr(in.Rt)))
	case isa.SLL:
		m.setGPR(in.Rd, m.gpr(in.Rs)<<(uint32(m.gpr(in.Rt))&31))
	case isa.SRL:
		m.setGPR(in.Rd, int32(uint32(m.gpr(in.Rs))>>(uint32(m.gpr(in.Rt))&31)))
	case isa.SRA:
		m.setGPR(in.Rd, m.gpr(in.Rs)>>(uint32(m.gpr(in.Rt))&31))
	case isa.SLT:
		m.setGPR(in.Rd, b2i(m.gpr(in.Rs) < m.gpr(in.Rt)))
	case isa.SLTU:
		m.setGPR(in.Rd, b2i(uint32(m.gpr(in.Rs)) < uint32(m.gpr(in.Rt))))
	case isa.ADDI:
		m.setGPR(in.Rd, m.gpr(in.Rs)+in.Imm)
	case isa.ANDI:
		m.setGPR(in.Rd, m.gpr(in.Rs)&in.Imm)
	case isa.ORI:
		m.setGPR(in.Rd, m.gpr(in.Rs)|in.Imm)
	case isa.XORI:
		m.setGPR(in.Rd, m.gpr(in.Rs)^in.Imm)
	case isa.SLLI:
		m.setGPR(in.Rd, m.gpr(in.Rs)<<(uint32(in.Imm)&31))
	case isa.SRLI:
		m.setGPR(in.Rd, int32(uint32(m.gpr(in.Rs))>>(uint32(in.Imm)&31)))
	case isa.SRAI:
		m.setGPR(in.Rd, m.gpr(in.Rs)>>(uint32(in.Imm)&31))
	case isa.SLTI:
		m.setGPR(in.Rd, b2i(m.gpr(in.Rs) < in.Imm))
	case isa.LUI:
		m.setGPR(in.Rd, in.Imm<<16)

	case isa.MUL:
		m.setGPR(in.Rd, m.gpr(in.Rs)*m.gpr(in.Rt))
	case isa.DIV:
		// Division by zero and INT_MIN/-1 are defined to produce zero so
		// that generated workloads never fault.
		d := m.gpr(in.Rt)
		if d == 0 || (m.gpr(in.Rs) == math.MinInt32 && d == -1) {
			m.setGPR(in.Rd, 0)
		} else {
			m.setGPR(in.Rd, m.gpr(in.Rs)/d)
		}
	case isa.DIVU:
		if d := uint32(m.gpr(in.Rt)); d == 0 {
			m.setGPR(in.Rd, 0)
		} else {
			m.setGPR(in.Rd, int32(uint32(m.gpr(in.Rs))/d))
		}
	case isa.REM:
		d := m.gpr(in.Rt)
		if d == 0 || (m.gpr(in.Rs) == math.MinInt32 && d == -1) {
			m.setGPR(in.Rd, 0)
		} else {
			m.setGPR(in.Rd, m.gpr(in.Rs)%d)
		}

	case isa.FADD:
		m.setFPR(in.Rd, m.fpr(in.Rs)+m.fpr(in.Rt))
	case isa.FSUB:
		m.setFPR(in.Rd, m.fpr(in.Rs)-m.fpr(in.Rt))
	case isa.FMUL:
		m.setFPR(in.Rd, m.fpr(in.Rs)*m.fpr(in.Rt))
	case isa.FDIV:
		m.setFPR(in.Rd, m.fpr(in.Rs)/m.fpr(in.Rt))
	case isa.FNEG:
		m.setFPR(in.Rd, -m.fpr(in.Rs))
	case isa.FABS:
		m.setFPR(in.Rd, math.Abs(m.fpr(in.Rs)))
	case isa.FMOV:
		m.setFPR(in.Rd, m.fpr(in.Rs))
	case isa.CVTIF:
		m.setFPR(in.Rd, float64(m.gpr(in.Rs)))
	case isa.CVTFI:
		f := m.fpr(in.Rs)
		switch {
		case math.IsNaN(f):
			m.setGPR(in.Rd, 0)
		case f >= math.MaxInt32:
			m.setGPR(in.Rd, math.MaxInt32)
		case f <= math.MinInt32:
			m.setGPR(in.Rd, math.MinInt32)
		default:
			m.setGPR(in.Rd, int32(f))
		}
	case isa.FCLT:
		m.setGPR(in.Rd, b2i(m.fpr(in.Rs) < m.fpr(in.Rt)))
	case isa.FCLE:
		m.setGPR(in.Rd, b2i(m.fpr(in.Rs) <= m.fpr(in.Rt)))
	case isa.FCEQ:
		m.setGPR(in.Rd, b2i(m.fpr(in.Rs) == m.fpr(in.Rt)))

	// Loads and stores record the access in the effect; each case sets
	// its width as a constant (isa's OpInfo.MemBytes for the opcode).
	case isa.LB:
		ef.Addr, ef.Bytes = m.ea(in), 1
		m.setGPR(in.Rd, int32(int8(m.Mem.LoadByte(ef.Addr))))
	case isa.LBU:
		ef.Addr, ef.Bytes = m.ea(in), 1
		m.setGPR(in.Rd, int32(m.Mem.LoadByte(ef.Addr)))
	case isa.LH:
		ef.Addr, ef.Bytes = m.ea(in), 2
		m.setGPR(in.Rd, int32(int16(m.Mem.ReadUint16(ef.Addr))))
	case isa.LHU:
		ef.Addr, ef.Bytes = m.ea(in), 2
		m.setGPR(in.Rd, int32(m.Mem.ReadUint16(ef.Addr)))
	case isa.LW:
		ef.Addr, ef.Bytes = m.ea(in), 4
		m.setGPR(in.Rd, int32(m.Mem.ReadUint32(ef.Addr)))
	case isa.FLW:
		ef.Addr, ef.Bytes = m.ea(in), 4
		m.setFPR(in.Rd, float64(math.Float32frombits(m.Mem.ReadUint32(ef.Addr))))
	case isa.FLD:
		ef.Addr, ef.Bytes = m.ea(in), 8
		m.setFPR(in.Rd, math.Float64frombits(m.Mem.ReadUint64(ef.Addr)))

	case isa.SB:
		ef.Addr, ef.Bytes = m.ea(in), 1
		m.Mem.StoreByte(ef.Addr, byte(m.gpr(in.Rt)))
	case isa.SH:
		ef.Addr, ef.Bytes = m.ea(in), 2
		m.Mem.WriteUint16(ef.Addr, uint16(m.gpr(in.Rt)))
	case isa.SW:
		ef.Addr, ef.Bytes = m.ea(in), 4
		m.Mem.WriteUint32(ef.Addr, uint32(m.gpr(in.Rt)))
	case isa.FSW:
		ef.Addr, ef.Bytes = m.ea(in), 4
		m.Mem.WriteUint32(ef.Addr, math.Float32bits(float32(m.fpr(in.Rt))))
	case isa.FSD:
		ef.Addr, ef.Bytes = m.ea(in), 8
		m.Mem.WriteUint64(ef.Addr, math.Float64bits(m.fpr(in.Rt)))

	case isa.BEQ:
		m.branch(ef, m.gpr(in.Rs) == m.gpr(in.Rt))
	case isa.BNE:
		m.branch(ef, m.gpr(in.Rs) != m.gpr(in.Rt))
	case isa.BLT:
		m.branch(ef, m.gpr(in.Rs) < m.gpr(in.Rt))
	case isa.BGE:
		m.branch(ef, m.gpr(in.Rs) >= m.gpr(in.Rt))
	case isa.BLEZ:
		m.branch(ef, m.gpr(in.Rs) <= 0)
	case isa.BGTZ:
		m.branch(ef, m.gpr(in.Rs) > 0)
	case isa.BLTZ:
		m.branch(ef, m.gpr(in.Rs) < 0)
	case isa.BGEZ:
		m.branch(ef, m.gpr(in.Rs) >= 0)

	case isa.J:
		ef.NextPC = uint32(in.Imm)
	case isa.JAL:
		m.setGPR(isa.RegRA, int32(pc+isa.InstBytes))
		ef.NextPC = uint32(in.Imm)
	case isa.JR:
		ef.NextPC = uint32(m.gpr(in.Rs))
	case isa.JALR:
		ret := int32(pc + isa.InstBytes)
		ef.NextPC = uint32(m.gpr(in.Rs))
		m.setGPR(in.Rd, ret)

	case isa.HALT:
		m.Halted = true
		ef.NextPC = pc
	case isa.OUT:
		//ddvet:allow hotpath-append -- OUT is the ISA's output channel, run once per printed value rather than per instruction; the slice grows by doubling
		m.Output = append(m.Output, int64(m.gpr(in.Rs)))
	case isa.FOUT:
		//ddvet:allow hotpath-append -- FOUT is the ISA's output channel, run once per printed value rather than per instruction; the slice grows by doubling
		m.FOutput = append(m.FOutput, m.fpr(in.Rs))

	default:
		//ddvet:allow hotpath-fmt -- fault path: an opcode the emulator does not implement ends the run
		return fmt.Errorf("emu: unimplemented opcode %v at pc=%#x", in.Op, pc) //ddvet:allow hotpath-escape -- boxing the fault's opcode and PC, once per run
	}

	m.PC = ef.NextPC
	m.InstCount++
	return nil
}

// ea returns a load or store's effective address, base plus displacement.
func (m *Machine) ea(in isa.Inst) uint32 {
	return uint32(m.gpr(in.Rs) + in.Imm)
}

func (m *Machine) branch(ef *Effect, taken bool) {
	ef.Taken = taken
	if taken {
		ef.NextPC = ef.PC + isa.InstBytes + uint32(ef.Inst.Imm)*isa.InstBytes
	}
}

// Run executes until HALT or until maxInsts instructions have retired
// (maxInsts <= 0 means no limit). It reports whether the program halted.
func (m *Machine) Run(maxInsts uint64) (bool, error) {
	var ef Effect
	for !m.Halted {
		if maxInsts > 0 && m.InstCount >= maxInsts {
			return false, nil
		}
		if err := m.StepInto(&ef); err != nil {
			return false, err
		}
	}
	return true, nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
