package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/workload"
)

func cfgNM(n, m int) config.Config { return config.Default().WithPorts(n, m) }

// relPerf returns the performance of res relative to base (ratio of
// cycles: >1 means res is faster).
func relPerf(baseCycles, cycles uint64) float64 {
	return stats.Speedup(baseCycles, cycles)
}

// workloadsNamed looks the named workloads up, in order.
func workloadsNamed(names ...string) ([]workload.Workload, error) {
	ws := make([]workload.Workload, len(names))
	for i, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

func init() {
	registerExperiment(Experiment{
		ID:    "table1",
		Title: "Table 1: base machine model",
		Description: "The simulated machine parameters, mirroring the " +
			"paper's Table 1.",
		Run: runTable1,
	})
	registerExperiment(Experiment{
		ID:    "table2",
		Title: "Table 2: benchmark programs",
		Description: "The synthetic workload suite standing in for the " +
			"paper's SPEC95 programs, with dynamic instruction counts.",
		Run: runTable2,
	})
	registerExperiment(Experiment{
		ID:    "fig2",
		Title: "Figure 2: frequency of memory access instructions",
		Description: "Loads and stores as a fraction of all instructions " +
			"and the share of each that references the run-time stack.",
		Run: runFig2,
	})
	registerExperiment(Experiment{
		ID:    "fig3",
		Title: "Figure 3: dynamic frame size distribution",
		Description: "Frame-size statistics of the integer programs " +
			"(dynamic and static), in words.",
		Run: runFig3,
	})
	registerExperiment(Experiment{
		ID:    "fig5",
		Title: "Figure 5: program bandwidth requirements",
		Description: "Performance of (N+0) configurations relative to " +
			"the (16+0) limit, N = 1..5.",
		plan: planFig5,
	})
	registerExperiment(Experiment{
		ID:    "fig6",
		Title: "Figure 6: LVC miss rates vs size",
		Description: "Miss rate of a direct-mapped LVC from 0.5 KB to " +
			"4 KB, replaying each program's local access stream.",
		Run: runFig6,
	})
	registerExperiment(Experiment{
		ID:    "fig7",
		Title: "Figure 7: (N+M) performance, no optimizations",
		Description: "Relative performance over (2+0) for N in {2,3,4} " +
			"and M in {0,1,2,3,16}, without fast forwarding or combining.",
		plan: planFig7,
	})
	registerExperiment(Experiment{
		ID:    "table3",
		Title: "Table 3: fast data forwarding speedup under (3+2)",
		Description: "Per-program speedup of offset-based LVAQ " +
			"forwarding over the same configuration without it.",
		plan: planTable3,
	})
	registerExperiment(Experiment{
		ID:    "fig8",
		Title: "Figure 8: access combining",
		Description: "Speedup of 2-way and 4-way combining over no " +
			"combining under (3+1) and (3+2).",
		plan: planFig8,
	})
	registerExperiment(Experiment{
		ID:    "fig9",
		Title: "Figure 9: (N+M) performance with optimizations",
		Description: "Figure 7 repeated with fast data forwarding and " +
			"2-way access combining enabled.",
		plan: planFig9,
	})
	registerExperiment(Experiment{
		ID:    "fig10",
		Title: "Figure 10: sensitivity to cache access latency",
		Description: "Adding a cycle to the L1 hit time vs decoupling: " +
			"(2+0), (3+0), (4+0) at 2-cycle hits, (4+0) at 3 cycles, " +
			"and the decoupled (2+2)/(3+3) with optimizations.",
		plan: planFig10,
	})
	registerExperiment(Experiment{
		ID:    "fig11",
		Title: "Figure 11: per-program (N+M) surfaces",
		Description: "126.gcc, 130.li, 147.vortex and 102.swim across " +
			"all (N+M) points with optimizations.",
		plan: planFig11,
	})
	registerExperiment(Experiment{
		ID:    "l2traffic",
		Title: "§4.2.1: L2 traffic change from adding the LVC",
		Description: "L2 accesses under (2+2) relative to (2+0); the " +
			"paper reports li -24%, vortex -7%, gcc slightly up.",
		plan: planL2Traffic,
	})
	registerExperiment(Experiment{
		ID:    "ablation-steering",
		Title: "Ablation: steering policy",
		Description: "Hint bits vs the $sp heuristic vs an oracle vs " +
			"dual insertion (§2.1 footnote 3) vs static dataflow " +
			"classification (internal/analysis) under (2+2) with " +
			"optimizations: cycles, misroutes, squashes.",
		plan: planAblationSteering,
	})
	registerExperiment(Experiment{
		ID:    "ablation-lvaq",
		Title: "Ablation: LVAQ size",
		Description: "LVAQ of 8/16/32/64 entries under (3+2) with " +
			"optimizations.",
		plan: planAblationLVAQ,
	})
	registerExperiment(Experiment{
		ID:    "ablation-lvc-assoc",
		Title: "Ablation: LVC associativity",
		Description: "2 KB LVC at associativity 1/2/4 under (3+2) " +
			"(the paper argues direct-mapped is enough).",
		plan: planAblationLVCAssoc,
	})
	registerExperiment(Experiment{
		ID:    "ext-input-sensitivity",
		Title: "§4.2.1: LVC hit rate vs input data",
		Description: "The paper notes the LVC hit rate is \"relatively " +
			"insensitive to the input data, because the function frames " +
			"are generally determined at compile time\". Re-run the 2KB " +
			"LVC miss-rate measurement on three different inputs per " +
			"program.",
		Run: runInputSensitivity,
	})
	registerExperiment(Experiment{
		ID:    "ablation-tlb",
		Title: "Ablation: annotation-TLB verification cost",
		Description: "The §2.1 verification mechanism modeled with a real " +
			"annotation TLB (vs the paper's free verification): the cost " +
			"is negligible once the TLB is warm.",
		plan: planAblationTLB,
	})
	registerExperiment(Experiment{
		ID:    "alt-portmodel",
		Title: "§1 alternatives: ideal vs banked vs replicated ports",
		Description: "The multi-porting schemes the paper argues " +
			"against — bank interleaving (conflicts) and replication " +
			"(store broadcast) — compared with ideal ports and with " +
			"data decoupling.",
		plan: planAltPortModel,
	})
	registerExperiment(Experiment{
		ID:    "alt-small-l1",
		Title: "§4.4 alternative: a small fast L1 instead of an LVC",
		Description: "Replace the 32KB/2-cycle L1 with a 2KB/1-cycle one " +
			"(keeping 2 ports) — the paper's preliminary finding is that " +
			"its higher miss rate negates the latency win unless the L2 " +
			"is faster than ~4 cycles.",
		plan: planAltSmallL1,
	})
	registerExperiment(Experiment{
		ID:    "ablation-combine",
		Title: "Ablation: combining width",
		Description: "Access combining width 1..8 on the burstiest " +
			"programs under (3+1).",
		plan: planAblationCombine,
	})
	registerExperiment(Experiment{
		ID:    "ablation-static-opt",
		Title: "Ablation: static vs dynamic forwarding/combining",
		Description: "The LVAQ optimizations restricted to the " +
			"interprocedural dependence analyzer's proven forwarding " +
			"pairs and combining groups, against the unrestricted " +
			"dynamic mechanisms and against no optimizations.",
		plan: planAblationStaticOpt,
	})
}

func runTable1(*Runner) (string, error) {
	c := config.Default()
	t := stats.NewTable("Base machine model (paper Table 1)", "parameter", "value")
	t.AddRow("issue width", c.IssueWidth)
	t.AddRow("ROB / LSQ / LVAQ", fmt.Sprintf("%d / %d / %d", c.ROBSize, c.LSQSize, c.LVAQSize))
	t.AddRow("int ALUs / FP ALUs", fmt.Sprintf("%d / %d", c.IntALUs, c.FPALUs))
	t.AddRow("int / FP mult-div", fmt.Sprintf("%d / %d", c.IntMulDiv, c.FPMulDiv))
	t.AddRow("L1 D-cache", fmt.Sprintf("%dKB %d-way, %d-cycle hit", c.L1.SizeBytes/1024, c.L1.Assoc, c.L1.HitLatency))
	t.AddRow("L2 cache", fmt.Sprintf("%dKB %d-way, %d-cycle", c.L2.SizeBytes/1024, c.L2.Assoc, c.L2.HitLatency))
	t.AddRow("LVC", fmt.Sprintf("%dKB direct-mapped, %d-cycle hit", c.LVC.SizeBytes/1024, c.LVC.HitLatency))
	t.AddRow("memory", fmt.Sprintf("%d-cycle, fully interleaved", c.MemLatency))
	t.AddRow("front end", "perfect I-cache, perfect branch prediction")
	t.AddRow("latencies", "MIPS R10000")
	return t.Render(), nil
}

func runTable2(r *Runner) (string, error) {
	ws := workload.All()
	ps, err := r.profilesOf(ws)
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Benchmark programs (paper Table 2)",
		"program", "stands for", "kind", "paper insts", "simulated insts")
	for i, w := range ws {
		t.AddRow(w.Name, w.PaperName, w.Kind.String(), w.PaperInsts, ps[i].Insts)
	}
	return t.Render(), nil
}

func runFig2(r *Runner) (string, error) {
	ws := workload.All()
	ps, err := r.profilesOf(ws)
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Memory access instruction frequencies (paper Figure 2)",
		"program", "loads/inst", "stores/inst", "%loads local", "%stores local", "%refs local")
	var localLoadShares, localStoreShares []float64
	for i, w := range ws {
		p := ps[i]
		ll := stats.Pct(p.LocalLoads, p.Loads)
		ls := stats.Pct(p.LocalStores, p.Stores)
		localLoadShares = append(localLoadShares, ll)
		localStoreShares = append(localStoreShares, ls)
		t.AddRow(w.Name, p.LoadFreq(), p.StoreFreq(),
			fmt.Sprintf("%.1f", ll), fmt.Sprintf("%.1f", ls),
			fmt.Sprintf("%.1f", 100*p.LocalFraction()))
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	out := t.Render()
	out += fmt.Sprintf("\nmean local share: loads %.1f%%, stores %.1f%% (paper: 30%% and 48%%)\n",
		mean(localLoadShares), mean(localStoreShares))
	return out, nil
}

func runFig3(r *Runner) (string, error) {
	ws := workload.Integers()
	ps, err := r.profilesOf(ws)
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Frame sizes in words (paper Figure 3)",
		"program", "dyn mean", "dyn p50", "dyn p90", "dyn p99", "static mean", "static max")
	var statMeans []float64
	for i, w := range ws {
		p := ps[i]
		sf := p.StaticFrames()
		statMeans = append(statMeans, sf.Mean())
		t.AddRow(w.Name,
			p.DynFrames.Mean(),
			p.DynFrames.Percentile(0.5), p.DynFrames.Percentile(0.9), p.DynFrames.Percentile(0.99),
			sf.Mean(), sf.Max())
	}
	out := t.Render()
	var sum float64
	for _, m := range statMeans {
		sum += m
	}
	out += fmt.Sprintf("\nsuite static mean: %.1f words (paper: ~7 words over 4746 functions, max 282)\n",
		sum/float64(len(statMeans)))
	return out, nil
}

func planFig5(r *Runner) ([]point, func() (string, error), error) {
	ns := []int{1, 2, 3, 4, 5, 16}
	var cfgs []config.Config
	for _, n := range ns {
		cfgs = append(cfgs, cfgNM(n, 0))
	}
	render := func() (string, error) {
		t := stats.NewTable("Relative performance of (N+0) vs (16+0) (paper Figure 5)",
			"program", "(1+0)", "(2+0)", "(3+0)", "(4+0)", "(5+0)")
		perN := make([][]float64, 5)
		for _, w := range workload.All() {
			limit, err := r.Result(w, cfgNM(16, 0))
			if err != nil {
				return "", err
			}
			row := []any{w.Name}
			for i, n := range ns[:5] {
				res, err := r.Result(w, cfgNM(n, 0))
				if err != nil {
					return "", err
				}
				// Performance of (N+0) relative to (16+0): the (16+0) limit
				// is 1.0 and narrower configurations fall below it.
				v := float64(limit.Cycles) / float64(res.Cycles)
				perN[i] = append(perN[i], v)
				row = append(row, v)
			}
			t.AddRow(row...)
		}
		row := []any{"geomean"}
		for i := range perN {
			row = append(row, stats.GeoMean(perN[i]))
		}
		t.AddRow(row...)
		return t.Render(), nil
	}
	return cross(workload.All(), cfgs...), render, nil
}

func runFig6(r *Runner) (string, error) {
	sizes := []int{512, 1024, 2048, 4096}
	ws := workload.All()
	missRates, err := batch(len(ws)*len(sizes), func(i int) (float64, error) {
		res, err := profile.SimulateLVC(r.program(ws[i/len(sizes)]), sizes[i%len(sizes)], 32, 1, 0)
		return res.Stats.MissRate(), err
	})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("LVC miss rate % by size, direct-mapped (paper Figure 6)",
		"program", "0.5KB", "1KB", "2KB", "4KB")
	for i, w := range ws {
		row := []any{w.Name}
		for _, mr := range missRates[i*len(sizes) : (i+1)*len(sizes)] {
			row = append(row, fmt.Sprintf("%.3f", 100*mr))
		}
		t.AddRow(row...)
	}
	return t.Render(), nil
}

// cfgNMOpt is (N+M) with fast data forwarding and 2-way combining on the
// decoupled points. The LVAQ optimizations do nothing without an LVC, so
// an (N+0) point stays the plain one and shares its runs with Figure 7
// (TestOptimizationsInertWithoutLVC).
func cfgNMOpt(n, m int) config.Config {
	c := cfgNM(n, m)
	if m > 0 {
		c = c.WithOptimizations(2)
	}
	return c
}

// planNM plans the Fig 7/9 style tables: relative performance over (2+0)
// for N in {2,3,4} x M in {0,1,2,3,16}, each point configured by cfgFor.
// The (2+0) baseline is the grid's own (2+0) point.
func planNM(title string, cfgFor func(n, m int) config.Config) planFunc {
	return func(r *Runner) ([]point, func() (string, error), error) {
		ms := []int{0, 1, 2, 3, 16}
		var cfgs []config.Config
		for n := 2; n <= 4; n++ {
			for _, m := range ms {
				cfgs = append(cfgs, cfgFor(n, m))
			}
		}
		base := cfgNM(2, 0)
		render := func() (string, error) {
			var b strings.Builder
			for n := 2; n <= 4; n++ {
				t := stats.NewTable(fmt.Sprintf("%s — N=%d (relative to (2+0))", title, n),
					"program", fmt.Sprintf("(%d+0)", n), fmt.Sprintf("(%d+1)", n),
					fmt.Sprintf("(%d+2)", n), fmt.Sprintf("(%d+3)", n), fmt.Sprintf("(%d+16)", n))
				perM := make([][]float64, len(ms))
				for _, w := range workload.All() {
					baseRes, err := r.Result(w, base)
					if err != nil {
						return "", err
					}
					row := []any{w.Name}
					for i, m := range ms {
						res, err := r.Result(w, cfgFor(n, m))
						if err != nil {
							return "", err
						}
						v := relPerf(baseRes.Cycles, res.Cycles)
						perM[i] = append(perM[i], v)
						row = append(row, v)
					}
					t.AddRow(row...)
				}
				row := []any{"geomean"}
				for i := range perM {
					row = append(row, stats.GeoMean(perM[i]))
				}
				t.AddRow(row...)
				b.WriteString(t.Render())
				b.WriteByte('\n')
			}
			return b.String(), nil
		}
		return cross(workload.All(), cfgs...), render, nil
	}
}

var (
	planFig7 = planNM("Figure 7: no optimizations", cfgNM)
	planFig9 = planNM("Figure 9: fast forwarding + 2-way combining", cfgNMOpt)
)

func planTable3(r *Runner) ([]point, func() (string, error), error) {
	off := cfgNM(3, 2)
	on := off
	on.FastForward = true
	render := func() (string, error) {
		t := stats.NewTable("Fast data forwarding speedup under (3+2) (paper Table 3)",
			"program", "speedup %", "fast fwds", "%LVAQ loads fwd")
		for _, w := range workload.All() {
			ro, err := r.Result(w, off)
			if err != nil {
				return "", err
			}
			rn, err := r.Result(w, on)
			if err != nil {
				return "", err
			}
			speedup := 100 * (float64(ro.Cycles)/float64(rn.Cycles) - 1)
			fwdShare := stats.Pct(rn.FastFwdLoads+rn.LVAQFwdLoads, rn.LVAQDispatched)
			t.AddRow(w.Name, fmt.Sprintf("%.2f", speedup), rn.FastFwdLoads,
				fmt.Sprintf("%.1f", fwdShare))
		}
		return t.Render(), nil
	}
	return cross(workload.All(), off, on), render, nil
}

func planFig8(r *Runner) ([]point, func() (string, error), error) {
	widths := []int{1, 2, 4}
	machines := []struct{ n, m int }{{3, 1}, {3, 2}}
	cfgs := make([][]config.Config, len(machines))
	var all []config.Config
	for i, nm := range machines {
		for _, wdt := range widths {
			c := cfgNM(nm.n, nm.m)
			c.CombineWidth = wdt
			cfgs[i] = append(cfgs[i], c)
		}
		all = append(all, cfgs[i]...)
	}
	render := func() (string, error) {
		var b strings.Builder
		for mi, n := range machines {
			t := stats.NewTable(
				fmt.Sprintf("Figure 8: combining speedup %% over no combining, (%d+%d)", n.n, n.m),
				"program", "2-way", "4-way", "combined accesses (2-way)")
			var two, four []float64
			for _, w := range workload.All() {
				res := make([]uint64, len(widths))
				var combined uint64
				for i := range widths {
					rr, err := r.Result(w, cfgs[mi][i])
					if err != nil {
						return "", err
					}
					res[i] = rr.Cycles
					if widths[i] == 2 {
						combined = rr.CombinedAccesses
					}
				}
				s2 := 100 * (float64(res[0])/float64(res[1]) - 1)
				s4 := 100 * (float64(res[0])/float64(res[2]) - 1)
				two = append(two, 1+s2/100)
				four = append(four, 1+s4/100)
				t.AddRow(w.Name, fmt.Sprintf("%.2f", s2), fmt.Sprintf("%.2f", s4), combined)
			}
			t.AddRow("geomean", fmt.Sprintf("%.2f", 100*(stats.GeoMean(two)-1)),
				fmt.Sprintf("%.2f", 100*(stats.GeoMean(four)-1)), "")
			b.WriteString(t.Render())
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	return cross(workload.All(), all...), render, nil
}

func planFig10(r *Runner) ([]point, func() (string, error), error) {
	base := cfgNM(2, 0)
	slow40 := cfgNM(4, 0)
	slow40.L1.HitLatency = 3
	dec22 := cfgNM(2, 2).WithOptimizations(2)
	dec33 := cfgNM(3, 3).WithOptimizations(2)
	cfgs := []config.Config{base, cfgNM(3, 0), cfgNM(4, 0), slow40, dec22, dec33}
	names := []string{"(2+0)", "(3+0)", "(4+0)", "(4+0)3cy", "(2+2)opt", "(3+3)opt"}
	render := func() (string, error) {
		t := stats.NewTable("Figure 10: cache latency sensitivity (relative to (2+0))",
			append([]string{"program"}, names[1:]...)...)
		per := make([][]float64, len(cfgs)-1)
		for _, w := range workload.All() {
			baseRes, err := r.Result(w, base)
			if err != nil {
				return "", err
			}
			row := []any{w.Name}
			for i, c := range cfgs[1:] {
				res, err := r.Result(w, c)
				if err != nil {
					return "", err
				}
				v := relPerf(baseRes.Cycles, res.Cycles)
				per[i] = append(per[i], v)
				row = append(row, v)
			}
			t.AddRow(row...)
		}
		row := []any{"geomean"}
		for i := range per {
			row = append(row, stats.GeoMean(per[i]))
		}
		t.AddRow(row...)
		return t.Render(), nil
	}
	return cross(workload.All(), cfgs...), render, nil
}

func planFig11(r *Runner) ([]point, func() (string, error), error) {
	ws, err := workloadsNamed("gcc", "li", "vortex", "swim")
	if err != nil {
		return nil, nil, err
	}
	// The (2+0) baseline is the surface's own N=2, M=0 point.
	var cfgs []config.Config
	for n := 2; n <= 4; n++ {
		for m := 0; m <= 3; m++ {
			cfgs = append(cfgs, cfgNMOpt(n, m))
		}
	}
	base := cfgNM(2, 0)
	render := func() (string, error) {
		var b strings.Builder
		for _, w := range ws {
			baseRes, err := r.Result(w, base)
			if err != nil {
				return "", err
			}
			t := stats.NewTable(
				fmt.Sprintf("Figure 11: %s (%s), relative to (2+0), with optimizations", w.Name, w.PaperName),
				"N \\ M", "M=0", "M=1", "M=2", "M=3")
			for n := 2; n <= 4; n++ {
				row := []any{fmt.Sprintf("N=%d", n)}
				for m := 0; m <= 3; m++ {
					res, err := r.Result(w, cfgNMOpt(n, m))
					if err != nil {
						return "", err
					}
					row = append(row, relPerf(baseRes.Cycles, res.Cycles))
				}
				t.AddRow(row...)
			}
			b.WriteString(t.Render())
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	return cross(ws, cfgs...), render, nil
}

func planL2Traffic(r *Runner) ([]point, func() (string, error), error) {
	base := cfgNM(2, 0)
	dec := cfgNM(2, 2).WithOptimizations(2)
	render := func() (string, error) {
		t := stats.NewTable("L2 accesses: (2+2) vs (2+0) (paper §4.2.1)",
			"program", "L2 acc (2+0)", "L2 acc (2+2)", "change %")
		for _, w := range workload.All() {
			b, err := r.Result(w, base)
			if err != nil {
				return "", err
			}
			d, err := r.Result(w, dec)
			if err != nil {
				return "", err
			}
			change := 100 * (float64(d.L2.Accesses())/float64(b.L2.Accesses()) - 1)
			t.AddRow(w.Name, b.L2.Accesses(), d.L2.Accesses(), fmt.Sprintf("%+.1f", change))
		}
		return t.Render(), nil
	}
	return cross(workload.All(), base, dec), render, nil
}

func planAblationSteering(r *Runner) ([]point, func() (string, error), error) {
	ws, err := workloadsNamed("li", "vortex", "gcc", "perl")
	if err != nil {
		return nil, nil, err
	}
	policies := []config.SteeringPolicy{config.SteerHint, config.SteerSP, config.SteerOracle, config.SteerDual, config.SteerStatic}
	cfgs := make([]config.Config, len(policies))
	for i, pol := range policies {
		cfgs[i] = cfgNM(2, 2).WithOptimizations(2)
		cfgs[i].Steering = pol
	}
	render := func() (string, error) {
		t := stats.NewTable("Steering policy ablation under (2+2) with optimizations",
			"program", "policy", "cycles", "misroutes", "squashed", "LVAQ refs")
		for _, w := range ws {
			for i, pol := range policies {
				res, err := r.Result(w, cfgs[i])
				if err != nil {
					return "", err
				}
				t.AddRow(w.Name, pol.String(), res.Cycles, res.Misroutes, res.Squashed, res.LVAQDispatched)
			}
		}
		return t.Render(), nil
	}
	return cross(ws, cfgs...), render, nil
}

func planAblationLVAQ(r *Runner) ([]point, func() (string, error), error) {
	ws, err := workloadsNamed("li", "vortex", "ijpeg")
	if err != nil {
		return nil, nil, err
	}
	sizes := []int{8, 16, 32, 64}
	cfgs := make([]config.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = cfgNM(3, 2).WithOptimizations(2)
		cfgs[i].LVAQSize = size
	}
	render := func() (string, error) {
		t := stats.NewTable("LVAQ size ablation under (3+2) with optimizations",
			"program", "LVAQ=8", "LVAQ=16", "LVAQ=32", "LVAQ=64")
		for _, w := range ws {
			var c64 uint64
			row := []any{w.Name}
			var vals []float64
			for i, size := range sizes {
				res, err := r.Result(w, cfgs[i])
				if err != nil {
					return "", err
				}
				vals = append(vals, float64(res.Cycles))
				if size == 64 {
					c64 = res.Cycles
				}
			}
			for _, v := range vals {
				row = append(row, float64(c64)/v)
			}
			t.AddRow(row...)
		}
		return t.Render() + "\n(values are performance relative to the 64-entry LVAQ)\n", nil
	}
	return cross(ws, cfgs...), render, nil
}

func planAblationLVCAssoc(r *Runner) ([]point, func() (string, error), error) {
	ws, err := workloadsNamed("gcc", "li", "vortex")
	if err != nil {
		return nil, nil, err
	}
	assocs := []int{1, 2, 4}
	cfgs := make([]config.Config, len(assocs))
	for i, assoc := range assocs {
		cfgs[i] = cfgNM(3, 2).WithOptimizations(2)
		cfgs[i].LVC.Assoc = assoc
	}
	render := func() (string, error) {
		t := stats.NewTable("LVC associativity ablation under (3+2)",
			"program", "assoc", "cycles", "LVC miss %")
		for _, w := range ws {
			for i, assoc := range assocs {
				res, err := r.Result(w, cfgs[i])
				if err != nil {
					return "", err
				}
				t.AddRow(w.Name, assoc, res.Cycles, fmt.Sprintf("%.3f", 100*res.LVC.MissRate()))
			}
		}
		return t.Render(), nil
	}
	return cross(ws, cfgs...), render, nil
}

func planAblationStaticOpt(r *Runner) ([]point, func() (string, error), error) {
	ws, err := workloadsNamed("li", "vortex", "gcc", "ijpeg")
	if err != nil {
		return nil, nil, err
	}
	modes := []string{"off", "dynamic", "static"}
	cfgs := []config.Config{
		cfgNM(3, 2),
		cfgNM(3, 2).WithOptimizations(4),
		cfgNM(3, 2).WithStaticOptimizations(4),
	}
	render := func() (string, error) {
		t := stats.NewTable("Static vs dynamic LVAQ optimizations under (3+2), 4-way combining",
			"program", "mode", "cycles", "fast fwds", "combined")
		for _, w := range ws {
			for i, mode := range modes {
				res, err := r.Result(w, cfgs[i])
				if err != nil {
					return "", err
				}
				t.AddRow(w.Name, mode, res.Cycles, res.FastFwdLoads, res.CombinedAccesses)
			}
		}
		return t.Render(), nil
	}
	return cross(ws, cfgs...), render, nil
}

func runInputSensitivity(r *Runner) (string, error) {
	seeds := []uint64{1, 7, 23}
	ws := workload.All()
	missRates, err := batch(len(ws)*len(seeds), func(i int) (float64, error) {
		prog := ws[i/len(seeds)].ProgramSeeded(r.Scale, seeds[i%len(seeds)])
		res, err := profile.SimulateLVC(prog, 2048, 32, 1, 0)
		return res.Stats.MissRate(), err
	})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("2KB LVC miss % across input data (paper §4.2.1)",
		"program", "input A", "input B", "input C", "max spread (pp)")
	for i, w := range ws {
		row := []any{w.Name}
		lo, hi := 100.0, 0.0
		for _, rate := range missRates[i*len(seeds) : (i+1)*len(seeds)] {
			mr := 100 * rate
			if mr < lo {
				lo = mr
			}
			if mr > hi {
				hi = mr
			}
			row = append(row, fmt.Sprintf("%.3f", mr))
		}
		row = append(row, fmt.Sprintf("%.3f", hi-lo))
		t.AddRow(row...)
	}
	return t.Render(), nil
}

func planAblationTLB(r *Runner) ([]point, func() (string, error), error) {
	base := cfgNM(2, 2).WithOptimizations(2)
	big := base
	big.TLBEntries, big.TLBMissLatency = 64, 30
	small := base
	small.TLBEntries, small.TLBMissLatency = 16, 30
	render := func() (string, error) {
		t := stats.NewTable("Annotation-TLB verification cost under (2+2) with optimizations",
			"program", "free verify", "64-entry TLB", "16-entry TLB", "TLB hit % (64)")
		for _, w := range workload.All() {
			free, err := r.Result(w, base)
			if err != nil {
				return "", err
			}
			rb, err := r.Result(w, big)
			if err != nil {
				return "", err
			}
			rs, err := r.Result(w, small)
			if err != nil {
				return "", err
			}
			hitPct := 100 * float64(rb.TLBHits) / float64(rb.TLBHits+rb.TLBMisses)
			t.AddRow(w.Name, 1.0,
				relPerf(free.Cycles, rb.Cycles), relPerf(free.Cycles, rs.Cycles),
				fmt.Sprintf("%.3f", hitPct))
		}
		return t.Render(), nil
	}
	return cross(workload.All(), base, big, small), render, nil
}

func planAltPortModel(r *Runner) ([]point, func() (string, error), error) {
	base := cfgNM(2, 0)
	banked2 := base
	banked2.DCachePortModel = config.PortsBanked
	repl2 := base
	repl2.DCachePortModel = config.PortsReplicated
	banked4 := cfgNM(4, 0)
	banked4.DCachePortModel = config.PortsBanked
	dec := cfgNM(2, 2).WithOptimizations(2)
	cfgs := []config.Config{base, banked2, repl2, cfgNM(4, 0), banked4, dec}
	names := []string{"(2+0)banked", "(2+0)repl", "(4+0)ideal", "(4+0)banked", "(2+2)opt"}
	render := func() (string, error) {
		t := stats.NewTable("Multi-porting alternatives (relative to ideal (2+0))",
			append([]string{"program"}, names...)...)
		per := make([][]float64, len(cfgs)-1)
		for _, w := range workload.All() {
			b, err := r.Result(w, base)
			if err != nil {
				return "", err
			}
			row := []any{w.Name}
			for i, c := range cfgs[1:] {
				res, err := r.Result(w, c)
				if err != nil {
					return "", err
				}
				v := relPerf(b.Cycles, res.Cycles)
				per[i] = append(per[i], v)
				row = append(row, v)
			}
			t.AddRow(row...)
		}
		row := []any{"geomean"}
		for i := range per {
			row = append(row, stats.GeoMean(per[i]))
		}
		t.AddRow(row...)
		return t.Render(), nil
	}
	return cross(workload.All(), cfgs...), render, nil
}

func planAltSmallL1(r *Runner) ([]point, func() (string, error), error) {
	base := cfgNM(2, 0)
	tiny := cfgNM(2, 0)
	tiny.L1 = config.CacheParams{SizeBytes: 2 * 1024, LineBytes: 32, Assoc: 1, HitLatency: 1}
	tinyFastL2 := tiny
	tinyFastL2.L2.HitLatency = 3
	dec := cfgNM(2, 2).WithOptimizations(2)
	cfgs := []config.Config{base, tiny, tinyFastL2, dec}
	render := func() (string, error) {
		t := stats.NewTable("Small fast L1 vs decoupling (paper §4.4, relative to (2+0))",
			"program", "2KB L1 @1cy", "2KB L1 @1cy, L2@3", "(2+2)opt", "2KB-L1 miss %")
		per := make([][]float64, 3)
		for _, w := range workload.All() {
			b, err := r.Result(w, base)
			if err != nil {
				return "", err
			}
			row := []any{w.Name}
			for i, c := range cfgs[1:] {
				res, err := r.Result(w, c)
				if err != nil {
					return "", err
				}
				v := relPerf(b.Cycles, res.Cycles)
				per[i] = append(per[i], v)
				row = append(row, v)
			}
			tinyRes, err := r.Result(w, tiny)
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.2f", 100*tinyRes.L1.MissRate()))
			t.AddRow(row...)
		}
		row := []any{"geomean"}
		for i := range per {
			row = append(row, stats.GeoMean(per[i]))
		}
		row = append(row, "")
		t.AddRow(row...)
		return t.Render(), nil
	}
	return cross(workload.All(), cfgs...), render, nil
}

func planAblationCombine(r *Runner) ([]point, func() (string, error), error) {
	ws, err := workloadsNamed("vortex", "li", "ijpeg")
	if err != nil {
		return nil, nil, err
	}
	widths := []int{1, 2, 4, 8}
	cfgs := make([]config.Config, len(widths))
	for i, wdt := range widths {
		cfgs[i] = cfgNM(3, 1)
		cfgs[i].FastForward = true
		cfgs[i].CombineWidth = wdt
	}
	render := func() (string, error) {
		t := stats.NewTable("Combining width ablation under (3+1)",
			"program", "w=1", "w=2", "w=4", "w=8")
		for _, w := range ws {
			var base uint64
			row := []any{w.Name}
			for i, wdt := range widths {
				res, err := r.Result(w, cfgs[i])
				if err != nil {
					return "", err
				}
				if wdt == 1 {
					base = res.Cycles
				}
				row = append(row, float64(base)/float64(res.Cycles))
			}
			t.AddRow(row...)
		}
		return t.Render() + "\n(values are performance relative to no combining)\n", nil
	}
	return cross(ws, cfgs...), render, nil
}
