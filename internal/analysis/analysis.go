// Package analysis is a static access-region analyzer for assembled
// programs: the compiler-side half of the paper's decoupling mechanism
// (§2.2.3). It builds a control-flow graph over the text segment, runs a
// forward dataflow (abstract interpretation) pass per discovered function
// that tracks which registers hold stack-derived pointers — seeded from
// $sp/$fp, propagated through addi/add/move/la, killed by loads and
// non-stack arithmetic — and classifies every memory instruction as Local
// (provably a stack access), NonLocal (provably outside the stack region)
// or Ambiguous, each with a human-readable reason chain.
//
// On top of the classification sit two consumers:
//
//   - a lint layer (the Diags field, surfaced by cmd/ddlint and
//     `ddasm -lint`) with typed findings: compiler hints contradicted by
//     the analysis, unbalanced $sp adjustments across paths, stack
//     addresses escaping into non-stack memory, and statically
//     out-of-frame accesses;
//   - the hint-assignment pass (Assign), whose per-PC table the
//     config.SteerStatic and config.SteerSpec steering modes of
//     internal/core feed into dispatch instead of trusting the
//     per-instruction hint bits.
//
// Soundness: a Local claim is made only for addresses provably below the
// enclosing function's incoming $sp (assuming frames fit in the 16 MB
// stack area), so a dynamically non-local access is never classified
// Local; a NonLocal claim is made only for address ranges that provably
// miss the stack region. Everything else — in particular any pointer that
// went through memory — stays Ambiguous.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Class is the static classification of one memory instruction.
type Class uint8

const (
	ClassAmbiguous Class = iota
	ClassLocal
	ClassNonLocal
)

func (c Class) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassNonLocal:
		return "nonlocal"
	default:
		return "ambiguous"
	}
}

// Hint converts the classification into the ISA's hint encoding (Ambiguous
// maps to HintNone).
func (c Class) Hint() isa.Hint {
	switch c {
	case ClassLocal:
		return isa.HintLocal
	case ClassNonLocal:
		return isa.HintNonLocal
	default:
		return isa.HintNone
	}
}

// ClassInfo is the classification of one instruction with its derivation.
type ClassInfo struct {
	Class  Class
	Reason string
	// Spec marks an Ambiguous access the dataflow still recommends
	// speculating local on: the base is stack-derived (so the address is
	// almost always inside the stack region at run time) but the frame
	// offset is path-dependent or not provably below the entry $sp. The
	// hint-assignment pass (Assign) turns this into ConfSpecLocal;
	// misroute recovery absorbs the rare miss.
	Spec bool
}

// Analysis is the result of analyzing one program.
type Analysis struct {
	Prog *asm.Program
	// Classes is indexed like Prog.Text; entries for non-memory
	// instructions are zero. Memory instructions never reached from any
	// discovered entry stay Ambiguous with an "unreachable" reason.
	Classes []ClassInfo
	// Diags are the lint findings, sorted by PC then kind.
	Diags []Diag
	// Funcs counts the analyzed function entries.
	Funcs int
}

// Summary aggregates the classification of all memory instructions.
type Summary struct {
	Mem, Local, NonLocal, Ambiguous, Unreached int
}

// AmbiguousFrac is the fraction of memory instructions left unclassified.
func (s Summary) AmbiguousFrac() float64 {
	if s.Mem == 0 {
		return 0
	}
	return float64(s.Ambiguous) / float64(s.Mem)
}

func (s Summary) String() string {
	return fmt.Sprintf("%d memory instructions: %d local, %d nonlocal, %d ambiguous (%.1f%%, %d unreachable)",
		s.Mem, s.Local, s.NonLocal, s.Ambiguous, 100*s.AmbiguousFrac(), s.Unreached)
}

// widenLimit is how many times a register may change at one join point
// before its value is widened.
const widenLimit = 3

// Analyze runs the static access-region analysis on prog.
func Analyze(prog *asm.Program) *Analysis {
	a := &analyzer{
		prog:    prog,
		g:       buildCFG(prog),
		classes: make([]ClassInfo, len(prog.Text)),
		reached: make([]bool, len(prog.Text)),
		seen:    make(map[string]bool),
	}
	for _, entry := range a.g.entries {
		a.analyzeFunc(entry)
	}
	res := &Analysis{
		Prog:    prog,
		Classes: a.classes,
		Diags:   a.diags,
		Funcs:   len(a.g.entries),
	}
	for i, in := range prog.Text {
		if in.IsMem() && !a.reached[i] {
			res.Classes[i] = ClassInfo{Class: ClassAmbiguous, Reason: "unreachable from any discovered entry"}
		}
	}
	sort.SliceStable(res.Diags, func(i, j int) bool {
		if res.Diags[i].PC != res.Diags[j].PC {
			return res.Diags[i].PC < res.Diags[j].PC
		}
		return res.Diags[i].Kind < res.Diags[j].Kind
	})
	return res
}

// At returns the classification of the instruction at pc.
func (r *Analysis) At(pc uint32) (ClassInfo, bool) {
	idx := textIndex(r.Prog, pc)
	if idx < 0 {
		return ClassInfo{}, false
	}
	return r.Classes[idx], true
}

// HintTable returns the per-PC table of proven classifications: only
// Local/NonLocal entries appear. Tests check Assign's proven classes
// against it; the timing core steers from Assign's table.
func (r *Analysis) HintTable() map[uint32]isa.Hint {
	t := make(map[uint32]isa.Hint)
	for i, in := range r.Prog.Text {
		if !in.IsMem() {
			continue
		}
		if h := r.Classes[i].Class.Hint(); h != isa.HintNone {
			t[r.Prog.TextBase+uint32(i)*isa.InstBytes] = h
		}
	}
	return t
}

// Summarize tallies the classification over all memory instructions.
func (r *Analysis) Summarize() Summary {
	var s Summary
	for i, in := range r.Prog.Text {
		if !in.IsMem() {
			continue
		}
		s.Mem++
		switch r.Classes[i].Class {
		case ClassLocal:
			s.Local++
		case ClassNonLocal:
			s.NonLocal++
		default:
			s.Ambiguous++
			if strings.HasPrefix(r.Classes[i].Reason, "unreachable") {
				s.Unreached++
			}
		}
	}
	return s
}

// Errors returns only the error-severity findings.
func (r *Analysis) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Sev == SevError {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any error-severity finding exists.
func (r *Analysis) HasErrors() bool { return len(r.Errors()) > 0 }

// Report renders the per-instruction classification of every memory
// instruction, for debugging and the ddlint -dump flag.
func (r *Analysis) Report() string {
	var b strings.Builder
	for i, in := range r.Prog.Text {
		if !in.IsMem() {
			continue
		}
		ci := r.Classes[i]
		fmt.Fprintf(&b, "%08x: %-9s %-28s %s\n",
			r.Prog.TextBase+uint32(i)*isa.InstBytes, ci.Class, in, ci.Reason)
	}
	return b.String()
}

// ---------------------------------------------------------------- engine

type blockState struct {
	seeded bool
	reg    regState
	wid    [32]uint8
}

type analyzer struct {
	prog    *asm.Program
	g       *cfg
	classes []ClassInfo
	reached []bool
	diags   []Diag
	seen    map[string]bool // diag dedup across functions

	// gpWritten is computed lazily: whether any instruction in the
	// program writes $gp (if not, $gp is the data base everywhere).
	gpChecked, gpWritten bool
}

func (a *analyzer) pcOf(idx int) uint32 {
	return a.prog.TextBase + uint32(idx)*isa.InstBytes
}

// fnName resolves the label at addr, if any.
func (a *analyzer) fnName(addr uint32) string {
	var names []string
	for name, sym := range a.prog.Symbols {
		if sym == addr {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Sprintf("fn@%08x", addr)
	}
	sort.Strings(names)
	return names[0]
}

// gpPreserved reports whether $gp is never written anywhere in the
// program, making its load-time value (the data base) a global invariant.
func (a *analyzer) gpPreserved() bool {
	if !a.gpChecked {
		a.gpChecked = true
		for _, in := range a.prog.Text {
			if dest, ok := in.Dest(); ok && dest&31 == isa.RegGP && !dest.IsFP() {
				a.gpWritten = true
				break
			}
		}
	}
	return !a.gpWritten
}

// entryState is the abstract register file at a function entry: $sp is the
// (symbolic) incoming stack pointer, $fp some stack-derived pointer with
// unknown offset, $zero the constant zero, and $gp the data base when the
// program provably never changes it. For the program entry point the
// loader's exact register file is used instead.
func (a *analyzer) entryState(entryIdx int) regState {
	var st regState
	pc := a.pcOf(entryIdx)
	st.set(isa.RegSP, stackVal(0, 0))
	if a.gpPreserved() {
		st.set(isa.RegGP, constVal(int32(a.prog.DataBase), 0))
	}
	st[0] = constVal(0, 0)
	if pc == a.prog.Entry {
		// emu.New zeroes every register and points $fp at the stack base,
		// which is exactly the entry $sp.
		for i := 1; i < 32; i++ {
			st[i] = constVal(0, 0)
		}
		st.set(isa.RegSP, stackVal(0, 0))
		st.set(isa.RegFP, stackVal(0, 0))
		if a.gpPreserved() {
			st.set(isa.RegGP, constVal(int32(a.prog.DataBase), 0))
		}
	} else {
		st.set(isa.RegFP, stackAnyVal())
	}
	return st
}

// solve runs the forward dataflow over one function's blocks to a
// fixpoint and returns the converged abstract register state at every
// seeded block entry. Shared by the classification pass (analyzeFunc) and
// the interprocedural dependence pass (Dependences).
func (a *analyzer) solve(entry int, blocks []int) map[int]*blockState {
	states := make(map[int]*blockState, len(blocks))
	states[entry] = &blockState{seeded: true, reg: a.entryState(a.g.blocks[entry].start)}
	for _, bi := range blocks {
		if _, ok := states[bi]; !ok {
			states[bi] = &blockState{}
		}
	}

	// Round-robin to a fixpoint; widening bounds the number of changes
	// per (block, register), so this terminates.
	for changed := true; changed; {
		changed = false
		for _, bi := range blocks {
			bs := states[bi]
			if !bs.seeded {
				continue
			}
			out := bs.reg
			b := &a.g.blocks[bi]
			for i := b.start; i < b.end; i++ {
				step(&out, a.pcOf(i), a.prog.Text[i])
			}
			for _, si := range b.succs {
				if merge(states[si], out) {
					changed = true
				}
			}
			if b.indirect {
				for _, si := range blocks {
					if si != bi && merge(states[si], out) {
						changed = true
					}
				}
			}
		}
	}
	return states
}

func (a *analyzer) analyzeFunc(entry int) {
	blocks := a.g.funcBlocks(entry)
	states := a.solve(entry, blocks)

	// Final pass over the converged states: classify and lint.
	fn := a.fnName(a.pcOf(a.g.blocks[entry].start))
	for _, bi := range blocks {
		bs := states[bi]
		if !bs.seeded {
			continue
		}
		st := bs.reg
		b := &a.g.blocks[bi]
		for i := b.start; i < b.end; i++ {
			in := a.prog.Text[i]
			pc := a.pcOf(i)
			if in.IsMem() {
				a.reached[i] = true
				base := st.get(in.BaseReg())
				cls, reason, spec := classify(base, in.Imm, int64(in.MemBytes()))
				a.record(i, cls, reason, spec)
				a.lintMem(fn, pc, in, cls, base, &st)
			}
			if in.IsReturn() {
				a.lintReturn(fn, pc, in, &st)
			}
			step(&st, pc, in)
		}
	}
}

func merge(dst *blockState, src regState) bool {
	if !dst.seeded {
		dst.seeded = true
		dst.reg = src
		return true
	}
	changed := false
	for i := range src {
		nv := join(dst.reg[i], src[i])
		if nv.sameAbstract(dst.reg[i]) {
			continue
		}
		dst.wid[i]++
		if dst.wid[i] > widenLimit {
			nv = widen(nv)
		}
		if !nv.sameAbstract(dst.reg[i]) {
			dst.reg[i] = nv
			changed = true
		}
	}
	return changed
}

// classify decides the access region of one memory instruction from the
// abstract value of its base register. The third result is the
// speculation recommendation for Ambiguous accesses: true when the base
// is stack-derived, so steering the access to the local stream is right
// whenever the (unprovable) offset stays inside the stack region.
func classify(base absVal, imm int32, width int64) (Class, string, bool) {
	switch base.k {
	case kStack:
		if !base.deltaOK {
			return ClassAmbiguous, "base is stack-derived but its frame offset is path-dependent", true
		}
		eff := int64(base.delta) + int64(imm)
		if eff < 0 {
			return ClassLocal, fmt.Sprintf("base %s, displacement %+d → frame slot %d below the entry $sp", base, imm, eff), false
		}
		return ClassAmbiguous, fmt.Sprintf("base %s, displacement %+d lands at/above the entry $sp", base, imm), true
	case kRange:
		lo, hi := base.lo+int64(imm), base.hi+int64(imm)
		if lo < -1<<31 || hi+width-1 > 1<<31-1 {
			return ClassAmbiguous, fmt.Sprintf("base %s: address arithmetic may wrap", base), false
		}
		hi += width - 1
		sLo, sHi := int64(isa.StackLimit), int64(isa.StackBase)-1
		switch {
		case hi < sLo || lo > sHi:
			return ClassNonLocal, fmt.Sprintf("base %s, address range misses the stack region", base), false
		case lo >= sLo && hi <= sHi:
			return ClassLocal, fmt.Sprintf("base %s, address range inside the stack region", base), false
		default:
			return ClassAmbiguous, fmt.Sprintf("base %s, address range straddles the stack boundary", base), false
		}
	default:
		what := "base value is unknown"
		if base.def != 0 {
			what = fmt.Sprintf("base value is unknown (defined at %08x)", base.def)
		}
		return ClassAmbiguous, what, false
	}
}

// leansLocal reports whether a recorded classification is compatible with
// steering the access to the local stream: provably local, or ambiguous
// with a speculate-local recommendation.
func leansLocal(ci ClassInfo) bool {
	return ci.Class == ClassLocal || (ci.Class == ClassAmbiguous && ci.Spec)
}

// record joins a classification into the per-instruction table; the same
// instruction analyzed under several functions (shared code) must agree,
// otherwise it degrades to Ambiguous. The speculation recommendation
// survives a conflict only when every view of the instruction leans local.
func (a *analyzer) record(idx int, cls Class, reason string, spec bool) {
	if !a.reached[idx] {
		a.classes[idx] = ClassInfo{Class: cls, Reason: reason, Spec: spec}
		return
	}
	// reached[idx] is set just before record is called on the first
	// visit too, so use the stored reason to detect a real prior visit.
	prev := a.classes[idx]
	if prev.Reason == "" {
		a.classes[idx] = ClassInfo{Class: cls, Reason: reason, Spec: spec}
		return
	}
	next := ClassInfo{Class: cls, Reason: reason, Spec: spec}
	switch {
	case prev.Class != cls:
		a.classes[idx] = ClassInfo{
			Class:  ClassAmbiguous,
			Reason: "conflicting classifications across functions",
			Spec:   leansLocal(prev) && leansLocal(next),
		}
	case cls == ClassAmbiguous && prev.Spec != spec:
		// Same class, disagreeing recommendations: only speculate when
		// every analyzed context recommends it.
		prev.Spec = false
		a.classes[idx] = prev
	}
}

func (a *analyzer) addDiag(d Diag) {
	key := fmt.Sprintf("%d|%d|%x|%s", d.Kind, d.Sev, d.PC, d.Msg)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.diags = append(a.diags, d)
}

// lintMem checks one memory instruction: hint soundness, out-of-frame
// offsets, and stack-address escapes.
func (a *analyzer) lintMem(fn string, pc uint32, in isa.Inst, cls Class, base absVal, st *regState) {
	switch {
	case in.Hint == isa.HintLocal && cls == ClassNonLocal:
		a.addDiag(Diag{DiagUnsoundLocalHint, SevError, pc, fn, in.String(),
			"hinted !local but the access is provably outside the stack region; hint steering misroutes it every time"})
	case in.Hint == isa.HintNonLocal && cls == ClassLocal:
		a.addDiag(Diag{DiagUnsoundNonLocalHint, SevError, pc, fn, in.String(),
			"hinted !nonlocal but the access is provably a stack access; hint steering misroutes it every time"})
	}

	if base.k == kStack && base.deltaOK {
		eff := int64(base.delta) + int64(in.Imm)
		if eff >= 0 {
			a.addDiag(Diag{DiagOutOfFrame, SevWarning, pc, fn, in.String(),
				fmt.Sprintf("frame offset %+d is at/above the function's incoming $sp", eff)})
		} else if sp := st.get(isa.RegSP); sp.k == kStack && sp.deltaOK && eff < int64(sp.delta) {
			a.addDiag(Diag{DiagOutOfFrame, SevWarning, pc, fn, in.String(),
				fmt.Sprintf("frame offset %+d is below the current $sp (%+d)", eff, sp.delta)})
		}
	}

	// A GPR store whose value is a stack-derived pointer going anywhere
	// that is not provably the stack lets stack addresses leak into data
	// structures, defeating static classification of later loads.
	if (in.Op == isa.SB || in.Op == isa.SH || in.Op == isa.SW) && cls != ClassLocal {
		if v := st.get(in.Rt); v.k == kStack {
			a.addDiag(Diag{DiagStackEscape, SevWarning, pc, fn, in.String(),
				fmt.Sprintf("stores a stack-derived address (%s) to a %s target", v, cls)})
		}
	}
}

// lintReturn checks the frame balance at a JR $ra.
func (a *analyzer) lintReturn(fn string, pc uint32, in isa.Inst, st *regState) {
	sp := st.get(isa.RegSP)
	switch {
	case sp.k == kStack && sp.deltaOK && sp.delta == 0:
		// balanced
	case sp.k == kStack && sp.deltaOK:
		a.addDiag(Diag{DiagUnbalancedSP, SevError, pc, fn, in.String(),
			fmt.Sprintf("returns with $sp offset %+d relative to the function entry", sp.delta)})
	case sp.k == kStack:
		a.addDiag(Diag{DiagUnbalancedSP, SevError, pc, fn, in.String(),
			"returns with a path-dependent $sp adjustment (paths disagree on the frame size)"})
	default:
		a.addDiag(Diag{DiagUnbalancedSP, SevWarning, pc, fn, in.String(),
			"$sp is not stack-derived at this return"})
	}
}
