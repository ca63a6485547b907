package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

// params sizes a workload. The benchmark uses the values in workloads;
// the smoke test shrinks them.
type params struct {
	scale    float64
	programs []string
	// cfg is the machine the programs run on in the simulation loops, and
	// the machine the layer probe of a traced run uses in every workload.
	cfg config.Config
	// experiments lists the figure experiments to run; nil runs the
	// whole suite except alt-small-l1.
	experiments []string
	// prewarm is how many jobs per program serve-mix completes during
	// set-up, so that they are disk-cache hits in the timed phase.
	prewarm int
}

type workloadDef struct {
	name string
	run  func(r *run, p params) error
	p    params
}

// paperConfig is the paper's (3+2) machine with fast forwarding and 2-way
// access combining.
func paperConfig() config.Config {
	return config.Default().WithPorts(3, 2).WithOptimizations(2)
}

// memConfig shrinks the caches and slows memory until the programs'
// working sets overflow both levels, so that stalls dominate.
func memConfig() config.Config {
	c := config.Default().WithPorts(2, 2).WithOptimizations(2)
	c.L1 = config.CacheParams{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 2, HitLatency: 2}
	c.L2 = config.CacheParams{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 4, HitLatency: 20}
	c.MemLatency = 200
	return c
}

// The workloads and why each was chosen are described in bench/README.md.
var workloads = []*workloadDef{
	{name: "core-dense", run: runSimLoop, p: params{scale: 1, cfg: paperConfig(),
		programs: []string{"go", "tomcatv", "su2cor", "m88ksim", "li", "ijpeg", "perl"}}},
	{name: "mem-bound", run: runSimLoop, p: params{scale: 1, cfg: memConfig(),
		programs: []string{"swim", "mgrid", "gcc", "compress", "vortex"}}},
	{name: "figures", run: runFigures, p: params{scale: 0.05, cfg: paperConfig(), programs: workload.Names()}},
	{name: "serve-mix", run: runServeMix, p: params{scale: 0.1, cfg: paperConfig(), programs: workload.Names(), prewarm: 2}},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// input is one program with its functional reference: what the standalone
// emulator outputs and how many instructions it executes.
type input struct {
	name  string
	prog  *asm.Program
	out   []int64
	fout  []float64
	insts uint64
}

// inputSet is what one set-up build produces, with the time it spent in
// the program generator and in the emulator.
type inputSet struct {
	ins []*input
	// emuS is the last build's emulator time, the base of emu.share.
	emuS          float64
	buildsProgS   []float64
	buildsEmuRate []float64
}

// build generates the programs and runs each on the emulator. Repeated
// builds accumulate their layer timings, whose medians the traced run
// reports.
func (s *inputSet) build(r *run, parent *span, names []string, scale float64, seed uint64) error {
	s.ins = s.ins[:0]
	var progS, emuS float64
	var insts uint64
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		sp := r.tr.begin(parent, "workload.ProgramSeeded")
		t0 := time.Now()
		prog := w.ProgramSeeded(scale, seed)
		progS += time.Since(t0).Seconds()
		sp.end(nil)

		sp = r.tr.begin(parent, "emu.Run")
		t0 = time.Now()
		m := emu.New(prog)
		_, err = m.Run(0)
		emuS += time.Since(t0).Seconds()
		sp.end(map[string]uint64{"insts": m.InstCount})
		if err != nil {
			return fmt.Errorf("emulating %s: %w", name, err)
		}
		insts += m.InstCount
		s.ins = append(s.ins, &input{name: name, prog: prog, out: m.Output, fout: m.FOutput, insts: m.InstCount})
	}
	s.buildsProgS = append(s.buildsProgS, progS)
	s.buildsEmuRate = append(s.buildsEmuRate, float64(insts)/emuS)
	s.emuS = emuS
	return nil
}

// setInputMetrics reports the generator and emulator layers.
func (s *inputSet) setInputMetrics(r *run) {
	r.setTiming("workload.program_s", median(s.buildsProgS), "s", len(s.buildsProgS))
	r.setTiming("emu.minst_per_s", median(s.buildsEmuRate)/1e6, "Minst/s", len(s.buildsEmuRate))
}

// simulate is one simulation as a user runs it: core.New, then RunWith
// on the given engine, each under its own span.
func simulate(ctx context.Context, tr *tracer, parent *span, prog *asm.Program, cfg config.Config, engine core.Engine) (*core.Result, error) {
	s := tr.begin(parent, "core.New")
	c, err := core.New(prog, cfg)
	s.end(nil)
	if err != nil {
		return nil, err
	}
	s = tr.begin(parent, "core.RunWith."+engine.String())
	res, err := c.RunWith(ctx, core.RunOptions{Engine: engine})
	if err != nil {
		s.end(nil)
		return nil, err
	}
	s.end(map[string]uint64{"committed": res.Committed, "cycles": res.Cycles})
	return res, nil
}

// sameOutput checks a timing-core result against the emulator reference.
func (r *run) sameOutput(in *input, res *core.Result) bool {
	return r.checkf(reflect.DeepEqual(res.Output, in.out) && reflect.DeepEqual(res.FOutput, in.fout),
		"%s: timing-core output differs from the emulator's", in.name)
}

// runSimLoop is the core-dense and mem-bound workload: a closed loop on
// one goroutine that simulates every program once per pass, core.New
// then RunWith on the default event engine, until the measuring time is
// used up.
func runSimLoop(r *run, p params) error {
	var in inputSet
	if err := r.setup(func(s *span) error { return in.build(r, s, p.programs, p.scale, r.seed) }); err != nil {
		return err
	}
	ctx := context.Background()
	var minst, jobs []float64
	jobMS := map[string][]float64{}
	first := map[string]*core.Result{}
	u := startUsage()
	start := time.Now()
	var last time.Duration
	for pass := 1; pass == 1 || r.more(start, last); pass++ {
		t0 := time.Now()
		ps := r.tr.begin(nil, "pass")
		var committed uint64
		var simS float64
		sims := 0
		for _, x := range in.ins {
			t := time.Now()
			res, err := simulate(ctx, r.tr, ps, x.prog, p.cfg, core.EngineEvent)
			d := time.Since(t)
			if !r.opDone(x.name, err) {
				continue
			}
			committed += res.Committed
			simS += d.Seconds()
			sims++
			jobMS[x.name] = append(jobMS[x.name], float64(d.Nanoseconds())/1e6)
			if f, ok := first[x.name]; ok {
				r.checkf(f.Cycles == res.Cycles && f.Committed == res.Committed,
					"%s: pass %d simulated different counts than the first", x.name, pass)
				continue
			}
			first[x.name] = res
			r.sameOutput(x, res)
			r.checkSim(fmt.Sprintf("%s@%g/s%d/%s", r.name, p.scale, r.seed, x.name), res.Cycles, res.Committed)
		}
		ps.end(nil)
		last = time.Since(t0)
		if simS > 0 {
			minst = append(minst, float64(committed)/simS/1e6)
			jobs = append(jobs, float64(sims)/simS)
		}
	}
	// Each program is a kind of job. The 90th percentile is taken over the
	// programs' medians, so that it does not jump from one program's time
	// to the next as the number of passes varies.
	var kinds [][]float64
	var progMS []float64
	simulated := 0
	for _, x := range in.ins {
		if ms := jobMS[x.name]; len(ms) > 0 {
			kinds = append(kinds, ms)
			progMS = append(progMS, median(ms))
			simulated += len(ms)
		}
	}
	u.finish(r, simulated)
	r.setTiming("sim_minst_per_s", median(minst), "Minst/s", len(minst))
	r.setTiming("jobs_per_s", median(jobs), "jobs/s", len(jobs))
	r.jobLatencies(kinds, progMS, simulated)
	in.setInputMetrics(r)
	r.unused("experiments.")
	r.unused("serve.")
	return probe(r, &in, p.cfg)
}
