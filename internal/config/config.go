// Package config defines the simulated machine configuration. The defaults
// reproduce Table 1 of the paper: a 16-issue out-of-order processor with a
// 128-entry ROB, a 64-entry LSQ (plus a 64-entry LVAQ when data decoupling
// is enabled), MIPS R10000 instruction latencies, a 32 KB 2-way L1 data
// cache with 2-cycle hits, a 512 KB 4-way L2 with 12-cycle access, 50-cycle
// main memory, and a 2 KB direct-mapped LVC with 1-cycle hits.
package config

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// SteeringPolicy selects how memory instructions are classified into the
// LSQ or LVAQ streams at dispatch (paper §2.1, §2.2.3).
type SteeringPolicy uint8

const (
	// SteerHint trusts the compiler hint bits and falls back to a 1-bit
	// per-PC region predictor for unhinted (ambiguous) accesses.
	SteerHint SteeringPolicy = iota
	// SteerSP classifies an access as local iff its base register is $sp
	// or $fp (the hardware-only heuristic of §2.2.3).
	SteerSP
	// SteerOracle uses the true effective-address region; it never
	// misclassifies. Used for limit studies.
	SteerOracle
	// SteerDual trusts hints, but inserts unhinted (ambiguous) accesses
	// into BOTH queues; the wrongly-placed copy is killed when the
	// address resolves (paper §2.1 footnote: "it can copy a reference
	// into both the memory access queues to eliminate any communication
	// between them"). No misprediction recovery is ever needed, at the
	// cost of queue occupancy and conservative ordering in both streams.
	SteerDual
	// SteerStatic consumes the analysis.Assign table, as SteerSpec does,
	// instead of the instruction hint bits: provably-local accesses go to
	// the LVAQ, provably-non-local ones to the LSQ, and everything else,
	// speculate-local included, falls back to the 1-bit region predictor.
	// It models a compiler doing the §2.2.3 classification without any
	// ISA hint encoding.
	SteerStatic
	// SteerSpec consumes the analysis.Assign confidence table: provably
	// local/non-local accesses are steered by their proof, speculate-local
	// accesses are steered to the LVAQ *speculatively* (misses recover via
	// the ordinary misroute squash-and-replay path and are tallied in the
	// per-stream misspeculation counters), and leave-dynamic accesses fall
	// back to the 1-bit region predictor. It models the prove-what-you-can
	// / speculate-on-the-rest compiler contract of arXiv 2501.13553.
	SteerSpec
)

func (s SteeringPolicy) String() string {
	switch s {
	case SteerHint:
		return "hint"
	case SteerSP:
		return "sp"
	case SteerOracle:
		return "oracle"
	case SteerDual:
		return "dual"
	case SteerStatic:
		return "static"
	case SteerSpec:
		return "spec"
	default:
		return fmt.Sprintf("steer%d", uint8(s))
	}
}

// ParseSteering parses a steering-policy name as accepted by the CLIs and
// the service job schema (the inverse of SteeringPolicy.String).
func ParseSteering(s string) (SteeringPolicy, error) {
	switch s {
	case "", "hint":
		return SteerHint, nil
	case "sp":
		return SteerSP, nil
	case "oracle":
		return SteerOracle, nil
	case "dual":
		return SteerDual, nil
	case "static":
		return SteerStatic, nil
	case "spec":
		return SteerSpec, nil
	default:
		return 0, fmt.Errorf("config: unknown steering policy %q", s)
	}
}

// PortModel selects how a cache provides its ports (paper §1 discusses
// the alternatives and their drawbacks).
type PortModel uint8

const (
	// PortsIdeal is the paper's evaluation assumption: an N-port cache
	// services any N requests per cycle.
	PortsIdeal PortModel = iota
	// PortsBanked models an N-way line-interleaved cache of single-ported
	// banks: two same-cycle accesses to the same bank conflict.
	PortsBanked
	// PortsReplicated models N replicated copies: loads may use any copy,
	// but a store must broadcast to all copies and consumes every port
	// that cycle.
	PortsReplicated
)

func (p PortModel) String() string {
	switch p {
	case PortsBanked:
		return "banked"
	case PortsReplicated:
		return "replicated"
	default:
		return "ideal"
	}
}

// CacheParams configures one cache of the hierarchy.
type CacheParams struct {
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency uint64
}

// Config is the full machine configuration.
type Config struct {
	// Pipeline widths. Decode and commit widths equal the issue width
	// (Table 1).
	IssueWidth int
	ROBSize    int
	LSQSize    int
	LVAQSize   int

	// Functional units (Table 1: 16 integer + 16 FP ALUs, 4 integer + 4 FP
	// MULT/DIV units).
	IntALUs   int
	FPALUs    int
	IntMulDiv int
	FPMulDiv  int

	// DCachePorts is N and LVCPorts is M in the paper's "(N+M)" notation.
	// LVCPorts == 0 disables data decoupling entirely (no LVAQ/LVC).
	DCachePorts int
	LVCPorts    int
	// DCachePortModel and LVCPortModel select how the ports are built
	// (ideal multi-porting, interleaved banks, or replication — §1).
	DCachePortModel PortModel
	LVCPortModel    PortModel

	L1         CacheParams
	L2         CacheParams
	LVC        CacheParams
	MemLatency uint64

	// Steering selects the dispatch-time stream classifier.
	Steering SteeringPolicy
	// TLBEntries enables the §2.1 annotation-TLB verification model when
	// positive: steering verification (and thus the cache access) waits
	// for the annotation on a TLB miss. 0 models perfect (free)
	// verification, the paper's default.
	TLBEntries int
	// TLBMissLatency is the annotation fill latency in cycles.
	TLBMissLatency uint64
	// RecoveryPenalty is the dispatch stall charged when a memory access
	// is found in the wrong queue and must be re-steered (handled "like a
	// branch misprediction", §2.1).
	RecoveryPenalty uint64

	// FastForward enables offset-based store→load forwarding in the LVAQ
	// before effective addresses are known (§2.2.2).
	FastForward bool
	// CombineWidth is the access-combining degree for the LVC: an LVC
	// port grant covers up to CombineWidth consecutive same-line LVAQ
	// accesses. 1 disables combining.
	CombineWidth int
	// ForwardStatic restricts fast data forwarding to the store→load
	// pairs proven by the internal/analysis interprocedural dependence
	// pass. Requires FastForward.
	ForwardStatic bool
	// CombineStatic restricts access combining to the same-line groups
	// proven by the dependence pass: the combining window only opens for
	// (and only admits) members of one static group. Requires
	// CombineWidth > 1.
	CombineStatic bool

	// MaxInsts bounds the number of committed instructions (0 = run to
	// HALT).
	MaxInsts uint64
}

// StreamSpec is the canonical description of one memory access stream:
// the queue in front of a cache, that cache's parameters, its port
// arbitration, and the stream-local optimizations. The legacy flat Config
// fields map onto a slice of these via Streams(); the core builds one
// memsys.Stream and one access queue per spec.
type StreamSpec struct {
	// Name labels the stream in statistics and traces ("LSQ", "LVAQ").
	Name string
	// Local marks the stream that receives accesses classified as local
	// (stack-region) by the steering policy.
	Local bool

	QueueSize int
	Ports     int
	PortModel PortModel
	Cache     CacheParams

	// FastForward enables the §2.2.2 offset-based store→load bypass in
	// this stream's queue.
	FastForward bool
	// CombineWidth is the access-combining degree on this stream's cache
	// port (1 disables combining).
	CombineWidth int
	// CombineStatic restricts the combining window to members of one
	// statically-proven same-line group.
	CombineStatic bool
}

// Streams returns the canonical per-stream view of the configuration: the
// conventional LSQ/L1 stream, plus the LVAQ/LVC stream when decoupling is
// enabled. The paper's "two streams" is exactly len(Streams()) == 2;
// every Config field relevant to the memory system maps onto one spec.
func (c Config) Streams() []StreamSpec {
	ss := []StreamSpec{{
		Name:         "LSQ",
		QueueSize:    c.LSQSize,
		Ports:        c.DCachePorts,
		PortModel:    c.DCachePortModel,
		Cache:        c.L1,
		CombineWidth: 1,
	}}
	if c.Decoupled() {
		ss = append(ss, StreamSpec{
			Name:          "LVAQ",
			Local:         true,
			QueueSize:     c.LVAQSize,
			Ports:         c.LVCPorts,
			PortModel:     c.LVCPortModel,
			Cache:         c.LVC,
			FastForward:   c.FastForward,
			CombineWidth:  c.CombineWidth,
			CombineStatic: c.CombineStatic,
		})
	}
	return ss
}

// Default returns the paper's base machine model (Table 1) in the (2+0)
// configuration; use WithPorts to select other (N+M) points.
func Default() Config {
	return Config{
		IssueWidth: 16,
		ROBSize:    128,
		LSQSize:    64,
		LVAQSize:   64,
		IntALUs:    16,
		FPALUs:     16,
		IntMulDiv:  4,
		FPMulDiv:   4,

		DCachePorts: 2,
		LVCPorts:    0,

		L1:         CacheParams{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 2, HitLatency: 2},
		L2:         CacheParams{SizeBytes: 512 * 1024, LineBytes: 32, Assoc: 4, HitLatency: 12},
		LVC:        CacheParams{SizeBytes: 2 * 1024, LineBytes: 32, Assoc: 1, HitLatency: 1},
		MemLatency: 50,

		Steering:        SteerHint,
		RecoveryPenalty: 8,
		FastForward:     false,
		CombineWidth:    1,
	}
}

// WithPorts returns a copy of the configuration with an N-port data cache
// and an M-port LVC — the paper's "(N+M)" notation.
func (c Config) WithPorts(n, m int) Config {
	c.DCachePorts = n
	c.LVCPorts = m
	return c
}

// WithOptimizations returns a copy with fast data forwarding and the given
// access-combining degree enabled.
func (c Config) WithOptimizations(combine int) Config {
	c.FastForward = true
	c.CombineWidth = combine
	return c
}

// WithStaticOptimizations returns a copy with both LVAQ optimizations
// enabled but restricted to the pairs/groups proven by the static
// dependence analysis.
func (c Config) WithStaticOptimizations(combine int) Config {
	c = c.WithOptimizations(combine)
	c.ForwardStatic = true
	c.CombineStatic = combine > 1
	return c
}

// Decoupled reports whether the configuration uses the LVAQ/LVC.
func (c Config) Decoupled() bool { return c.LVCPorts > 0 }

// Name returns the paper's "(N+M)" name for the configuration.
func (c Config) Name() string {
	return fmt.Sprintf("(%d+%d)", c.DCachePorts, c.LVCPorts)
}

// Key returns a canonical, field-order-stable identity string for the
// configuration, suitable as a cache key: equal configurations always
// produce equal keys, and any change to any field changes the key. Unlike
// fmt.Sprintf("%+v", c) it does not depend on struct declaration order or
// on the default formatting of nested values, so it cannot silently alias
// two configurations (or split one) when fields are added or reordered.
func (c Config) Key() string {
	var b strings.Builder
	b.Grow(160)
	f := func(tag string, v uint64) {
		b.WriteString(tag)
		b.WriteString(strconv.FormatUint(v, 10))
		b.WriteByte('|')
	}
	cp := func(tag string, p CacheParams) {
		b.WriteString(tag)
		b.WriteByte('{')
		f("sz", uint64(p.SizeBytes))
		f("ln", uint64(p.LineBytes))
		f("as", uint64(p.Assoc))
		f("hl", p.HitLatency)
		b.WriteString("}|")
	}
	f("iw", uint64(c.IssueWidth))
	f("rob", uint64(c.ROBSize))
	f("lsq", uint64(c.LSQSize))
	f("lvaq", uint64(c.LVAQSize))
	f("ialu", uint64(c.IntALUs))
	f("falu", uint64(c.FPALUs))
	f("imd", uint64(c.IntMulDiv))
	f("fmd", uint64(c.FPMulDiv))
	f("dp", uint64(c.DCachePorts))
	f("lp", uint64(c.LVCPorts))
	f("dpm", uint64(c.DCachePortModel))
	f("lpm", uint64(c.LVCPortModel))
	cp("l1", c.L1)
	cp("l2", c.L2)
	cp("lvc", c.LVC)
	f("mem", c.MemLatency)
	f("st", uint64(c.Steering))
	f("tlb", uint64(c.TLBEntries))
	f("tlbml", c.TLBMissLatency)
	f("rp", c.RecoveryPenalty)
	bit := func(tag string, v bool) {
		if v {
			f(tag, 1)
		} else {
			f(tag, 0)
		}
	}
	bit("ff", c.FastForward)
	f("cw", uint64(c.CombineWidth))
	bit("ffs", c.ForwardStatic)
	bit("cs", c.CombineStatic)
	f("mi", c.MaxInsts)
	return b.String()
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.IssueWidth <= 0:
		return fmt.Errorf("config: issue width %d", c.IssueWidth)
	case c.ROBSize <= 0:
		return fmt.Errorf("config: ROB size %d", c.ROBSize)
	case c.LSQSize <= 0:
		return fmt.Errorf("config: LSQ size %d", c.LSQSize)
	case c.Decoupled() && c.LVAQSize <= 0:
		return fmt.Errorf("config: LVAQ size %d with decoupling enabled", c.LVAQSize)
	case c.IntALUs <= 0 || c.FPALUs <= 0 || c.IntMulDiv <= 0 || c.FPMulDiv <= 0:
		return fmt.Errorf("config: functional unit counts must be positive")
	case c.DCachePorts <= 0:
		return fmt.Errorf("config: %d data cache ports", c.DCachePorts)
	case c.LVCPorts < 0:
		return fmt.Errorf("config: %d LVC ports", c.LVCPorts)
	case c.CombineWidth < 1:
		return fmt.Errorf("config: combine width %d", c.CombineWidth)
	case c.L1.HitLatency == 0 || c.L2.HitLatency == 0:
		return fmt.Errorf("config: zero cache hit latency")
	case c.Decoupled() && c.LVC.HitLatency == 0:
		return fmt.Errorf("config: zero LVC hit latency")
	case c.ForwardStatic && !c.FastForward:
		return fmt.Errorf("config: ForwardStatic requires FastForward")
	case c.CombineStatic && c.CombineWidth < 2:
		return fmt.Errorf("config: CombineStatic requires CombineWidth > 1")
	}
	return nil
}

// ParseNM parses the paper's "(N+M)" or "N+M" configuration notation.
func ParseNM(s string) (n, m int, err error) {
	t := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(s), "("), ")")
	a, b, ok := strings.Cut(t, "+")
	if !ok {
		return 0, 0, fmt.Errorf("config: %q is not of the form N+M", s)
	}
	if n, err = strconv.Atoi(strings.TrimSpace(a)); err != nil {
		return 0, 0, fmt.Errorf("config: bad N in %q", s)
	}
	if m, err = strconv.Atoi(strings.TrimSpace(b)); err != nil {
		return 0, 0, fmt.Errorf("config: bad M in %q", s)
	}
	if n < 1 || m < 0 {
		return 0, 0, fmt.Errorf("config: out-of-range ports in %q", s)
	}
	return n, m, nil
}

// Latency returns the execution latency in cycles of a non-memory
// instruction class — the MIPS R10000 values the paper uses (Table 1).
// Loads and stores are timed by the memory model, not this table.
func Latency(class isa.Class) uint64 {
	switch class {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSys, isa.ClassNop:
		return 1
	case isa.ClassIntMul:
		return 6
	case isa.ClassIntDiv:
		return 35
	case isa.ClassFPALU:
		return 2
	case isa.ClassFPMul:
		return 2
	case isa.ClassFPDiv:
		return 19
	default:
		return 1
	}
}
