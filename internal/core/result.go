package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/stats"
)

// Stats are the raw counters collected while simulating. The per-stream
// counters (dispatch counts, forwarding, port/MSHR stalls, occupancy) are
// collected by the streams themselves (memsys.Stats) and aggregated into
// the legacy LSQ/LVAQ-named fields when the result is built.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Issued    uint64

	Loads       uint64
	Stores      uint64
	LocalLoads  uint64 // ground truth: effective address in the stack region
	LocalStores uint64

	LSQDispatched  uint64
	LVAQDispatched uint64

	// Forwarding.
	FwdLoads     uint64 // store→load forwards after address resolution
	LVAQFwdLoads uint64 // subset of FwdLoads that happened in the LVAQ
	FastFwdLoads uint64 // offset-based forwards before address resolution

	// Access combining.
	CombinedAccesses uint64 // LVC accesses that shared a port grant

	// Steering.
	Misroutes           uint64
	SpecSteers          uint64 // accesses steered local on a speculate-local assignment
	SpecMisroutes       uint64 // subset of Misroutes caused by that speculation
	PredictedSteers     uint64
	DualInserted        uint64 // ambiguous accesses copied into both queues
	DualMisguessed      uint64 // dual accesses whose primary guess was wrong
	Squashed            uint64 // instructions squashed by misroute recovery
	RecoveryStallCycles uint64

	// TLBMissStalls counts memory operations delayed by an annotation
	// TLB miss.
	TLBMissStalls uint64

	// Stall accounting (events, not unique instructions).
	ROBFullStalls        uint64
	QueueFullStalls      uint64
	FUStalls             uint64
	LoadPortStalls       uint64
	StorePortStalls      uint64
	LoadMSHRStalls       uint64
	StoreMSHRStalls      uint64
	LoadOrderStalls      uint64
	PartialOverlapStalls uint64

	// Occupancy integrals (divide by Cycles for averages).
	ROBOccupancy  uint64
	LSQOccupancy  uint64
	LVAQOccupancy uint64

	FetchError error
}

// StreamResult is the per-stream view of a run: the stream's own counters
// plus its cache behaviour.
type StreamResult struct {
	Name  string
	Local bool
	Stats memsys.Stats
	Cache cache.Stats
}

// Result is everything a simulation run produces.
type Result struct {
	Stats

	Config string // the "(N+M)" name

	// Streams holds one entry per memory stream, in steering order
	// (conventional stream first in the paper's configuration).
	Streams []StreamResult

	L1  cache.Stats
	LVC cache.Stats
	L2  cache.Stats

	MemReads  uint64
	MemWrites uint64

	// Annotation-TLB behaviour (zero when the TLB model is off).
	TLBHits   uint64
	TLBMisses uint64

	// Functional outputs, for cross-checking against the emulator.
	Output  []int64
	FOutput []float64
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// MemRefs returns the total number of data memory references.
func (r *Result) MemRefs() uint64 { return r.Loads + r.Stores }

// LocalFraction returns the fraction of memory references to the stack
// region.
func (r *Result) LocalFraction() float64 {
	return stats.Ratio(r.LocalLoads+r.LocalStores, r.MemRefs())
}

// String renders the full statistics block.
func (r *Result) String() string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p("config            %s\n", r.Config)
	p("cycles            %d\n", r.Cycles)
	p("committed         %d\n", r.Committed)
	p("IPC               %.3f\n", r.IPC())
	p("loads             %d (%.1f%% local)\n", r.Loads, stats.Pct(r.LocalLoads, r.Loads))
	p("stores            %d (%.1f%% local)\n", r.Stores, stats.Pct(r.LocalStores, r.Stores))
	p("LSQ/LVAQ dispatch %d / %d\n", r.LSQDispatched, r.LVAQDispatched)
	p("fwd loads         %d (fast %d)\n", r.FwdLoads, r.FastFwdLoads)
	p("combined accesses %d\n", r.CombinedAccesses)
	p("misroutes         %d (recovery stall %d cycles)\n", r.Misroutes, r.RecoveryStallCycles)
	if r.SpecSteers > 0 {
		p("spec steers       %d (%d misrouted, %.2f%%)\n",
			r.SpecSteers, r.SpecMisroutes, 100*stats.Ratio(r.SpecMisroutes, r.SpecSteers))
	}
	p("L1D               %d acc, %d miss (%.2f%%), %d wb\n",
		r.L1.Accesses(), r.L1.Misses(), 100*r.L1.MissRate(), r.L1.Writebacks)
	if r.LVC.Accesses() > 0 {
		p("LVC               %d acc, %d miss (%.2f%%), %d wb\n",
			r.LVC.Accesses(), r.LVC.Misses(), 100*r.LVC.MissRate(), r.LVC.Writebacks)
	}
	p("L2                %d acc, %d miss (%.2f%%)\n",
		r.L2.Accesses(), r.L2.Misses(), 100*r.L2.MissRate())
	p("memory            %d reads, %d writes\n", r.MemReads, r.MemWrites)
	p("avg occupancy     ROB %.1f  LSQ %.1f  LVAQ %.1f\n",
		stats.Ratio(r.ROBOccupancy, r.Cycles),
		stats.Ratio(r.LSQOccupancy, r.Cycles),
		stats.Ratio(r.LVAQOccupancy, r.Cycles))
	p("stalls            rob %d, queue %d, fu %d, ldport %d, stport %d, order %d\n",
		r.ROBFullStalls, r.QueueFullStalls, r.FUStalls,
		r.LoadPortStalls, r.StorePortStalls, r.LoadOrderStalls)
	for _, s := range r.Streams {
		p("stream %-11s %d dispatched, fwd %d (fast %d), combined %d, avg occ %.1f\n",
			s.Name, s.Stats.Dispatched, s.Stats.FwdLoads, s.Stats.FastFwdLoads,
			s.Stats.Combined, stats.Ratio(s.Stats.Occupancy, r.Cycles))
	}
	return b.String()
}

func (c *Core) result() *Result {
	r := &Result{
		Stats:     c.stats,
		Config:    c.cfg.Name(),
		L2:        c.l2.Stats,
		MemReads:  c.mem.Reads,
		MemWrites: c.mem.Writes,
		Output:    c.emu.Output,
		FOutput:   c.emu.FOutput,
	}
	for _, s := range c.streams {
		st := s.Stats
		r.Streams = append(r.Streams, StreamResult{
			Name: s.Spec.Name, Local: s.Spec.Local, Stats: st, Cache: s.Cache.Stats,
		})
		r.SpecSteers += st.SpecSteered
		r.SpecMisroutes += st.SpecMisrouted
		r.FwdLoads += st.FwdLoads
		r.FastFwdLoads += st.FastFwdLoads
		r.CombinedAccesses += st.Combined
		r.LoadPortStalls += st.LoadPortStalls
		r.StorePortStalls += st.StorePortStalls
		r.LoadMSHRStalls += st.LoadMSHRStalls
		r.StoreMSHRStalls += st.StoreMSHRStalls
		if s.Spec.Local {
			r.LVAQDispatched += st.Dispatched
			r.LVAQFwdLoads += st.FwdLoads
			r.LVAQOccupancy += st.Occupancy
			r.LVC = s.Cache.Stats
		} else {
			r.LSQDispatched += st.Dispatched
			r.LSQOccupancy += st.Occupancy
			r.L1 = s.Cache.Stats
		}
	}
	if c.annotTLB != nil {
		r.TLBHits = c.annotTLB.Hits
		r.TLBMisses = c.annotTLB.Misses
	}
	return r
}
