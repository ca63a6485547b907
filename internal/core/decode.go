package core

import (
	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// decoded is the pre-decoded form of one static instruction: everything
// dispatch, steering and commit derive from the instruction word and the
// static analysis tables, computed once per text slot by New rather than
// once per dynamic instruction.
type decoded struct {
	class         isa.Class
	isMem, isLoad bool
	hasDest       bool
	dest          isa.Reg
	// src holds the nsrc source registers in Inst.Srcs order; for a
	// memory access src[0] is the base register and, for a store,
	// src[1] the stored value.
	nsrc uint8
	src  [2]isa.Reg

	// steer is the access's dispatch-time stream choice under the core's
	// steering policy. spBase (the base register is $sp or $fp) is the
	// predictor's cold-start guess and a dual access's primary stream.
	steer  steerKind
	spBase bool
	// pred is the 1-bit region predictor of a steerPredict access (paper
	// §2.2.3), trained at every address resolution; the table's only
	// mutable field.
	pred predState

	// combineGroup is the statically-proven combining group under
	// CombineStatic (memsys.GroupNone: none). fwdStore is the store PC of
	// the load's statically-proven forwarding pair under ForwardStatic,
	// valid when hasFwd is set.
	combineGroup int
	fwdStore     uint32
	hasFwd       bool
}

// steerKind is a memory access's steering decision as far as the static
// instruction and the steering policy fix it.
type steerKind uint8

const (
	steerNonLocal  steerKind = iota // the conventional stream
	steerLocal                      // the local stream
	steerSpecLocal                  // the local stream on a speculate-local assignment
	steerDual                       // both streams until the address resolves
	steerPredict                    // the region predictor decides
	steerOracle                     // the effective address decides
)

// predState is one region-predictor entry.
type predState uint8

const (
	predUnset predState = iota // never resolved: fall back to spBase
	predNonLocal
	predLocal
)

// decodeText builds the decode table for prog under cfg, consulting the
// analysis pass each steering or static-optimization option calls for.
func decodeText(prog *asm.Program, cfg config.Config) []decoded {
	var (
		conf   map[uint32]analysis.ConfClass
		fwd    map[uint32]uint32
		groups map[uint32]int
	)
	if cfg.Decoupled() {
		if cfg.Steering == config.SteerStatic || cfg.Steering == config.SteerSpec {
			conf = analysis.Assign(prog).SteerTable()
		}
		if cfg.ForwardStatic || cfg.CombineStatic {
			dep := analysis.Dependences(prog, cfg.LVC.LineBytes)
			if cfg.ForwardStatic {
				fwd = dep.ForwardTable()
			}
			if cfg.CombineStatic {
				groups = dep.CombineTable()
			}
		}
	}
	text := make([]decoded, len(prog.Text))
	for i, in := range prog.Text {
		pc := prog.TextBase + uint32(i)*isa.InstBytes
		d := &text[i]
		d.class = in.Op.Info().Class
		d.isMem, d.isLoad = in.IsMem(), in.IsLoad()
		d.dest, d.hasDest = in.Dest()
		a, b, n := in.Srcs()
		d.src, d.nsrc = [2]isa.Reg{a, b}, uint8(n)
		d.combineGroup = memsys.GroupNone
		if !d.isMem {
			continue
		}
		d.spBase = in.BaseReg() == isa.RegSP || in.BaseReg() == isa.RegFP
		d.steer = steerOf(cfg, in, d.spBase, conf[pc])
		if g, ok := groups[pc]; ok {
			d.combineGroup = g
		}
		d.fwdStore, d.hasFwd = fwd[pc]
	}
	return text
}

// steerOf resolves the steering policy for one memory instruction (paper
// §2.1): its hint bits, or the Assign pass's confidence class
// (SteerStatic, SteerSpec). Whatever the policy leaves ambiguous goes to
// the region predictor.
func steerOf(cfg config.Config, in isa.Inst, spBase bool, conf analysis.ConfClass) steerKind {
	if !cfg.Decoupled() {
		return steerNonLocal
	}
	switch cfg.Steering {
	case config.SteerOracle:
		return steerOracle
	case config.SteerSP:
		if spBase {
			return steerLocal
		}
		return steerNonLocal
	case config.SteerDual:
		return steerByHint(in.Hint, steerDual)
	case config.SteerStatic, config.SteerSpec:
		// The Assign table replaces the hint bits. Only SteerSpec acts on
		// a speculate-local class; SteerStatic leaves it to the predictor.
		switch conf {
		case analysis.ConfProvenLocal:
			return steerLocal
		case analysis.ConfProvenNonLocal:
			return steerNonLocal
		case analysis.ConfSpecLocal:
			if cfg.Steering == config.SteerSpec {
				return steerSpecLocal
			}
		}
		return steerPredict
	}
	return steerByHint(in.Hint, steerPredict) // SteerHint
}

// steerByHint steers by a classification: proven local or non-local
// accesses go to their stream, ambiguous ones as the policy says.
func steerByHint(h isa.Hint, ambiguous steerKind) steerKind {
	switch h {
	case isa.HintLocal:
		return steerLocal
	case isa.HintNonLocal:
		return steerNonLocal
	}
	return ambiguous
}

// decodedAt returns the decode-table entry of the instruction at pc,
// which must lie in the text segment (every effect's PC does).
func (c *Core) decodedAt(pc uint32) *decoded {
	return &c.text[(pc-c.textBase)/isa.InstBytes]
}

// steer classifies a memory access at dispatch (paper §2.1): local
// accesses go to the local stream, everything else to the conventional
// one. A dual access (SteerDual, unhinted) is inserted into both streams
// and the wrong copy is killed at address resolution (§2.1 footnote 3); a
// spec access (SteerSpec, speculate-local) is steered local on an
// unproven assignment, and a later misroute of it is accounted as a
// misspeculation.
func (c *Core) steer(ef *emu.Effect, d *decoded) (local, dual, spec bool) {
	switch d.steer {
	case steerLocal:
		return true, false, false
	case steerSpecLocal:
		return true, false, true
	case steerDual:
		return d.spBase, true, false
	case steerPredict:
		c.stats.PredictedSteers++
		if d.pred == predUnset {
			return d.spBase, false, false
		}
		return d.pred == predLocal, false, false
	case steerOracle:
		return isa.InStackRegion(ef.Addr), false, false
	}
	return false, false, false
}
