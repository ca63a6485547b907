package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/memsys"
)

// probeStreams are the memory streams the per-layer metrics name: the
// conventional queue and, in decoupled machines, the local one.
var probeStreams = []string{"LSQ", "LVAQ"}

// probe makes the reference calls of a traced run, after its timed phase:
// each input is simulated twice more on the event engine (timing core.New
// and RunWith apart and counting heap allocations) and twice on the tick
// engine, replayed through the cache hierarchy alone, and re-hinted by
// analysis.Assign. The untraced run skips it.
func probe(r *run, in *inputSet, cfg config.Config) error {
	if r.tr == nil {
		return nil
	}
	root := r.tr.begin(nil, "probe")
	defer root.end(nil)
	ctx := context.Background()
	var newS, eventS, tickS, replayS, assignS float64
	var mallocs, accesses uint64
	var cycles, committed, squashed, misroutes uint64
	var l1, lvc, l2 cache.Stats
	streams := map[string]*memsys.Stats{}
	for _, name := range probeStreams {
		streams[name] = &memsys.Stats{}
	}
	for i, x := range in.ins {
		// Each engine runs twice, in ABBA order that alternates between
		// programs, so that a host speeding up or slowing down during the
		// probe, or a warm heap, favours neither engine.
		order := []core.Engine{core.EngineEvent, core.EngineTick, core.EngineTick, core.EngineEvent}
		if i%2 == 1 {
			order = []core.Engine{core.EngineTick, core.EngineEvent, core.EngineEvent, core.EngineTick}
		}
		var results []*core.Result
		var ev *core.Result
		for _, engine := range order {
			var res *core.Result
			var err error
			if engine == core.EngineTick {
				t0 := time.Now()
				res, err = simulate(ctx, r.tr, root, x.prog, cfg, core.EngineTick)
				tickS += time.Since(t0).Seconds()
			} else {
				var n, e float64
				var m uint64
				res, n, e, m, err = measuredRun(ctx, r.tr, root, x.prog, cfg)
				newS, eventS = newS+n, eventS+e
				if ev == nil {
					ev, mallocs = res, mallocs+m
				}
			}
			if err != nil {
				return fmt.Errorf("probe %s: %w", x.name, err)
			}
			results = append(results, res)
		}
		for _, res := range results {
			r.checkf(reflect.DeepEqual(ev, res), "%s: event and tick engine runs simulated different results", x.name)
		}
		r.sameOutput(x, ev)

		refs, err := addressStream(r.tr, root, x.prog)
		if err != nil {
			return fmt.Errorf("probe %s: %w", x.name, err)
		}
		s := r.tr.begin(root, "cache.replay")
		t0 := time.Now()
		replay(refs, cfg)
		replayS += time.Since(t0).Seconds()
		s.end(map[string]uint64{"accesses": uint64(len(refs))})
		accesses += uint64(len(refs))

		stripped := x.prog.StripHints()
		s = r.tr.begin(root, "analysis.Assign")
		t0 = time.Now()
		analysis.Assign(stripped)
		assignS += time.Since(t0).Seconds()
		s.end(nil)

		cycles += ev.Cycles
		committed += ev.Committed
		squashed += ev.Squashed
		misroutes += ev.Misroutes
		l1, lvc, l2 = addCache(l1, ev.L1), addCache(lvc, ev.LVC), addCache(l2, ev.L2)
		for _, st := range ev.Streams {
			if agg, ok := streams[st.Name]; ok {
				addStream(agg, st.Stats)
			}
		}
	}
	// Every time below covers two runs per program; per-run figures halve it.
	n := len(in.ins)
	coreS := newS + eventS
	r.setTiming("emu.share", 2*in.emuS/coreS, "fraction", n)
	r.setTiming("core.new_ms", 1000*newS/float64(2*n), "ms", 2*n)
	r.setTiming("core.ns_per_inst", 1e9*coreS/float64(2*committed), "ns", 2*n)
	r.setTiming("core.ns_per_sim_cycle", 1e9*coreS/float64(2*cycles), "ns", 2*n)
	r.set("core.allocs_per_kinst", 1000*float64(mallocs)/float64(committed), "count")
	r.set("core.sim_cycles", float64(cycles), "count")
	r.set("core.committed", float64(committed), "count")
	r.set("core.ipc", float64(committed)/float64(cycles), "inst/cycle")
	r.set("core.squashed", float64(squashed), "count")
	r.set("core.misroutes", float64(misroutes), "count")
	r.setTiming("sched.tick_run_s", tickS/2, "s", 2*n)
	r.setTiming("sched.skip_speedup", tickS/coreS, "x", 2*n)
	var combined, fwd, fastFwd uint64
	for _, name := range probeStreams {
		st := streams[name]
		r.set("memsys.dispatched."+name, float64(st.Dispatched), "count")
		r.set("memsys.port_stalls."+name, float64(st.LoadPortStalls+st.StorePortStalls), "count")
		r.set("memsys.mshr_stalls."+name, float64(st.LoadMSHRStalls+st.StoreMSHRStalls), "count")
		r.set("memsys.avg_occ."+name, float64(st.Occupancy)/float64(cycles), "entries")
		combined, fwd, fastFwd = combined+st.Combined, fwd+st.FwdLoads, fastFwd+st.FastFwdLoads
	}
	r.set("memsys.combined", float64(combined), "count")
	r.set("memsys.fwd_loads", float64(fwd), "count")
	r.set("memsys.fast_fwd_loads", float64(fastFwd), "count")
	r.set("cache.l1_miss_rate", l1.MissRate(), "fraction")
	r.set("cache.lvc_miss_rate", lvc.MissRate(), "fraction")
	r.set("cache.l2_miss_rate", l2.MissRate(), "fraction")
	r.setTiming("cache.replay_ns_per_access", 1e9*replayS/float64(accesses), "ns", n)
	r.setTiming("analysis.assign_s", assignS, "s", n)
	return nil
}

// measuredRun is one event-engine simulation with core.New and RunWith
// timed apart and the heap allocations of both counted.
func measuredRun(ctx context.Context, tr *tracer, parent *span, prog *asm.Program, cfg config.Config) (res *core.Result, newS, runS float64, mallocs uint64, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	s := tr.begin(parent, "core.New")
	t0 := time.Now()
	c, err := core.New(prog, cfg)
	newS = time.Since(t0).Seconds()
	s.end(nil)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	s = tr.begin(parent, "core.RunWith.event")
	t0 = time.Now()
	res, err = c.RunWith(ctx, core.RunOptions{})
	runS = time.Since(t0).Seconds()
	if err != nil {
		s.end(nil)
		return nil, 0, 0, 0, err
	}
	s.end(map[string]uint64{"committed": res.Committed, "cycles": res.Cycles})
	runtime.ReadMemStats(&ms)
	return res, newS, runS, ms.Mallocs - m0, nil
}

type access struct {
	addr  uint32
	store bool
}

// addressStream runs prog on the emulator and returns its data accesses
// in program order.
func addressStream(tr *tracer, parent *span, prog *asm.Program) ([]access, error) {
	s := tr.begin(parent, "emu.Step")
	defer s.end(nil)
	var refs []access
	m := emu.New(prog)
	for !m.Halted {
		ef, err := m.Step()
		if err != nil {
			return nil, err
		}
		if ef.Inst.IsMem() {
			refs = append(refs, access{addr: ef.Addr, store: ef.Inst.IsStore()})
		}
	}
	return refs, nil
}

// replay feeds an address stream through an L1 -> L2 -> memory hierarchy
// built from cfg, one access at a time: each starts when the previous one
// has its data, so no miss is ever refused for want of an MSHR.
func replay(refs []access, cfg config.Config) {
	mem := &cache.MainMemory{Name: "memory", Latency: cfg.MemLatency}
	l2 := cache.New(cacheConfig("L2", cfg.L2), mem)
	l1 := cache.New(cacheConfig("L1", cfg.L1), l2)
	var now uint64
	for _, a := range refs {
		if ready, _ := l1.Access(now, a.addr, a.store); ready > now {
			now = ready
		}
	}
}

func cacheConfig(name string, p config.CacheParams) cache.Config {
	return cache.Config{Name: name, SizeBytes: p.SizeBytes, LineBytes: p.LineBytes, Assoc: p.Assoc, HitLatency: p.HitLatency}
}

func addCache(a, b cache.Stats) cache.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.ReadMisses += b.ReadMisses
	a.WriteMisses += b.WriteMisses
	return a
}

func addStream(a *memsys.Stats, b memsys.Stats) {
	a.Dispatched += b.Dispatched
	a.FwdLoads += b.FwdLoads
	a.FastFwdLoads += b.FastFwdLoads
	a.Combined += b.Combined
	a.LoadPortStalls += b.LoadPortStalls
	a.StorePortStalls += b.StorePortStalls
	a.LoadMSHRStalls += b.LoadMSHRStalls
	a.StoreMSHRStalls += b.StoreMSHRStalls
	a.Occupancy += b.Occupancy
}
