// Package asm implements a two-pass assembler for the simulator's ISA and
// the loadable Program image it produces.
//
// Source syntax (MIPS-flavoured):
//
//	        .text
//	        .global main
//	main:   addi  $sp, $sp, -16
//	        sw    $ra, 12($sp) !local
//	        li    $t0, 42
//	        la    $t1, table
//	        lw    $t2, 0($t1) !nonlocal
//	        jal   helper
//	        lw    $ra, 12($sp) !local
//	        addi  $sp, $sp, 16
//	        jr    $ra
//	        .data
//	table:  .word 1, 2, 3, end
//	buf:    .space 64
//	pi:     .double 3.14159
//
// `#` starts a comment. A trailing `!local` / `!nonlocal` on a memory
// instruction sets the compiler access-region hint (paper §2.2.3).
package asm

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// Program is a loadable program image: an assembled text segment, an
// initialized data segment and the symbol table.
type Program struct {
	// Name identifies the program (for reports).
	Name string
	// Entry is the address execution starts at.
	Entry uint32
	// TextBase is the address of Text[0]; instruction i lives at
	// TextBase + i*isa.InstBytes.
	TextBase uint32
	// Text is the decoded text segment.
	Text []isa.Inst
	// DataBase is the load address of Data.
	DataBase uint32
	// Data is the initialized data segment image.
	Data []byte
	// BSSBytes is the size of the zero-initialized region that follows
	// Data in memory.
	BSSBytes uint32
	// Symbols maps every label to its resolved address.
	Symbols map[string]uint32
}

// instShift is log2(isa.InstBytes); the index expression fails to compile
// if the two ever disagree.
const instShift = 2

var _ = [1]struct{}{}[isa.InstBytes-1<<instShift]

// InstAt returns the instruction at byte address pc; ok is false when pc is
// outside the text segment or not instruction-aligned.
//
// It is the emulator's fetch, so it makes one check: rotating pc's offset
// from TextBase right by instShift turns the offset into the slot index
// when it is aligned, and moves a misaligned remainder into the top two
// bits otherwise, which puts the index at 2^30 or above, past any text
// segment a 32-bit address space can hold. A pc below TextBase wraps to a
// large offset, so the same unsigned comparison with len(Text) rejects all
// three cases.
func (p *Program) InstAt(pc uint32) (isa.Inst, bool) {
	i := uint(bits.RotateLeft32(pc-p.TextBase, -instShift))
	if i >= uint(len(p.Text)) {
		return isa.Inst{}, false
	}
	return p.Text[i], true
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint32 {
	return p.TextBase + uint32(len(p.Text))*isa.InstBytes
}

// Symbol returns the address of a label.
func (p *Program) Symbol(name string) (uint32, error) {
	addr, ok := p.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("asm: undefined symbol %q", name)
	}
	return addr, nil
}

// StripHints returns a copy of the program with every compiler
// access-region hint cleared (isa.HintNone), as if the source had been
// written with no !local/!nonlocal annotations. The data segment and
// symbol table are shared with the receiver; only the text is copied.
func (p *Program) StripHints() *Program {
	return p.WithHints(nil)
}

// WithHints returns a copy of the program whose memory instructions carry
// exactly the hints in table (PC → hint); memory instructions absent from
// the table — and every instruction when table is nil — get HintNone.
// Existing hints never survive: the table is the complete assignment.
func (p *Program) WithHints(table map[uint32]isa.Hint) *Program {
	q := *p
	q.Text = make([]isa.Inst, len(p.Text))
	copy(q.Text, p.Text)
	for i := range q.Text {
		if !q.Text[i].IsMem() {
			continue
		}
		q.Text[i].Hint = table[p.TextBase+uint32(i)*isa.InstBytes]
	}
	return &q
}

// Disassemble renders the text segment with addresses and labels.
func (p *Program) Disassemble() string {
	byAddr := make(map[uint32]string, len(p.Symbols))
	for name, addr := range p.Symbols {
		if addr >= p.TextBase && addr < p.TextEnd() {
			byAddr[addr] = name
		}
	}
	out := make([]byte, 0, 32*len(p.Text))
	for i, in := range p.Text {
		addr := p.TextBase + uint32(i)*isa.InstBytes
		if name, ok := byAddr[addr]; ok {
			out = append(out, fmt.Sprintf("%s:\n", name)...)
		}
		out = append(out, fmt.Sprintf("  %08x: %s\n", addr, in)...)
	}
	return string(out)
}
