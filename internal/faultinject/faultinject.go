// Package faultinject deterministically perturbs the memory subsystem of a
// running simulation to prove the harness's robustness properties: every
// injected fault must end in either architecturally-correct recovery (the
// perturbations below are timing-only, so the functional outputs and
// committed-instruction count must match the fault-free run exactly) or a
// typed *simerr.SimError — never a hang, a process crash, or silent stat
// corruption.
//
// An Injector implements core.FaultInjector. All randomness comes from one
// seeded source consumed at the core's (deterministic) hook points, so a
// seed fully reproduces a fault campaign: rerunning the same seed on the
// same workload and configuration replays the identical faults and the
// identical cycle count.
//
// Fault kinds:
//
//   - DropGrant: each cache-port grant is independently denied with
//     probability DropRate. The access stalls and retries, exactly like a
//     structural port conflict.
//   - BurstStall: periodically denies every port grant for BurstLen
//     consecutive cycles (a delayed-grant blackout), stretching queue
//     residency and exercising the watchdog's tolerance of long stalls.
//   - FlipSteer: corrupts the dispatch-time local/non-local classification
//     with probability FlipRate per access, forcing the steering
//     verification and misroute-recovery (squash + replay) machinery to
//     absorb wrong-queue placements.
//   - QueuePressure: periodically collapses a stream's effective queue
//     capacity to PressureCap entries for PressureLen cycles, exercising
//     dispatch back-pressure.
//   - CommitDesync: corrupts the core's stream bookkeeping for one memory
//     access at its commit point — a deliberate invariant violation that
//     the core's head-only checks on its memory queues must catch and the
//     run must contain into a KindPanic SimError. Unlike the other kinds
//     this fault is not recoverable by design; it proves the containment
//     path.
//
// One Injector instruments one run: it is stateful (cycle phase, RNG,
// fired-fault bookkeeping) and not safe for concurrent use.
package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
)

// Fault is a bitmask of fault kinds to arm.
type Fault uint8

const (
	// DropGrant denies individual port grants at random.
	DropGrant Fault = 1 << iota
	// BurstStall periodically denies all port grants for a burst of cycles.
	BurstStall
	// FlipSteer corrupts dispatch-time steering classifications at random.
	FlipSteer
	// QueuePressure periodically collapses effective queue capacity.
	QueuePressure
	// CommitDesync corrupts one access's stream bookkeeping at commit,
	// violating the head-only-commit invariant on purpose.
	CommitDesync
)

// Recoverable is the set of timing-only faults: a run injected with any
// subset of these must still produce the fault-free architectural result.
const Recoverable = DropGrant | BurstStall | FlipSteer | QueuePressure

func (f Fault) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	add := func(bit Fault, name string) {
		if f&bit != 0 {
			parts = append(parts, name)
		}
	}
	add(DropGrant, "drop-grant")
	add(BurstStall, "burst-stall")
	add(FlipSteer, "flip-steer")
	add(QueuePressure, "queue-pressure")
	add(CommitDesync, "commit-desync")
	return strings.Join(parts, "+")
}

// Params tunes the armed fault kinds. Zero fields select the defaults
// filled in by New.
type Params struct {
	Faults Fault

	// DropRate is the per-grant denial probability under DropGrant.
	DropRate float64
	// BurstPeriod/BurstLen shape the BurstStall blackouts: every
	// BurstPeriod cycles, all grants are denied for BurstLen cycles.
	BurstPeriod uint64
	BurstLen    uint64
	// FlipRate is the per-access classification-corruption probability
	// under FlipSteer.
	FlipRate float64
	// PressurePeriod/PressureLen/PressureCap shape the QueuePressure
	// windows: every PressurePeriod cycles, every stream's effective
	// capacity drops to PressureCap entries for PressureLen cycles.
	PressurePeriod uint64
	PressureLen    uint64
	PressureCap    int
	// DesyncAfter is how many commit-head encounters of memory
	// instructions to let pass before CommitDesync corrupts one.
	DesyncAfter uint64
}

// Stats counts the faults an Injector actually delivered.
type Stats struct {
	GrantsDropped  uint64 // DropGrant denials
	BurstDenials   uint64 // BurstStall denials
	SteersFlipped  uint64 // FlipSteer corruptions
	PressureCycles uint64 // cycles spent inside a QueuePressure window
	Desyncs        uint64 // CommitDesync corruptions (0 or 1)
}

// Injector is a deterministic fault campaign over one simulation run. It
// implements core.FaultInjector.
type Injector struct {
	seed int64
	p    Params
	rng  *rand.Rand

	inBurst    bool
	inPressure bool

	desyncSeen  uint64
	desyncFired bool

	stats Stats
}

// New builds an injector for one run from a seed and parameters. Zero
// Params fields take moderate defaults chosen so that any Recoverable
// subset perturbs timing heavily without livelocking the pipeline.
func New(seed int64, p Params) *Injector {
	if p.DropRate == 0 {
		p.DropRate = 0.10
	}
	if p.BurstPeriod == 0 {
		p.BurstPeriod = 1024
	}
	if p.BurstLen == 0 {
		p.BurstLen = 64
	}
	if p.FlipRate == 0 {
		p.FlipRate = 0.01
	}
	if p.PressurePeriod == 0 {
		p.PressurePeriod = 2048
	}
	if p.PressureLen == 0 {
		p.PressureLen = 128
	}
	if p.PressureCap == 0 {
		p.PressureCap = 2
	}
	if p.DesyncAfter == 0 {
		p.DesyncAfter = 100
	}
	return &Injector{seed: seed, p: p, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the campaign's seed (for failure reports).
func (in *Injector) Seed() int64 { return in.seed }

// Params returns the campaign's resolved parameters.
func (in *Injector) Params() Params { return in.p }

// Stats returns the faults delivered so far.
func (in *Injector) Stats() Stats { return in.stats }

// Delivered reports whether the campaign injected at least one fault.
func (in *Injector) Delivered() bool {
	s := in.stats
	return s.GrantsDropped+s.BurstDenials+s.SteersFlipped+s.PressureCycles+s.Desyncs > 0
}

func (in *Injector) String() string {
	return fmt.Sprintf("faultinject{seed=%d faults=%s}", in.seed, in.p.Faults)
}

// BeginCycle implements core.FaultInjector: it resolves which periodic
// windows (burst blackout, queue pressure) cover the new cycle.
func (in *Injector) BeginCycle(now uint64) {
	in.inBurst = in.p.Faults&BurstStall != 0 && now%in.p.BurstPeriod < in.p.BurstLen
	in.inPressure = in.p.Faults&QueuePressure != 0 && now%in.p.PressurePeriod < in.p.PressureLen
	if in.inPressure {
		in.stats.PressureCycles++
	}
}

// FlipSteer implements core.FaultInjector.
func (in *Injector) FlipSteer(pc uint32, local bool) bool {
	if in.p.Faults&FlipSteer != 0 && in.rng.Float64() < in.p.FlipRate {
		in.stats.SteersFlipped++
		return !local
	}
	return local
}

// QueueCap implements core.FaultInjector.
func (in *Injector) QueueCap(id, arch int) int {
	if in.inPressure && in.p.PressureCap < arch {
		return in.p.PressureCap
	}
	return arch
}

// AllowGrant implements core.FaultInjector.
func (in *Injector) AllowGrant(id int, addr uint32, isLoad bool) bool {
	if in.inBurst {
		in.stats.BurstDenials++
		return false
	}
	if in.p.Faults&DropGrant != 0 && in.rng.Float64() < in.p.DropRate {
		in.stats.GrantsDropped++
		return false
	}
	return true
}

// CommitDesync implements core.FaultInjector: it corrupts exactly one
// memory access's stream bookkeeping, after DesyncAfter commit-head
// encounters.
func (in *Injector) CommitDesync(seq uint64) bool {
	if in.p.Faults&CommitDesync == 0 || in.desyncFired {
		return false
	}
	in.desyncSeen++
	if in.desyncSeen <= in.p.DesyncAfter {
		return false
	}
	in.desyncFired = true
	in.stats.Desyncs++
	return true
}
