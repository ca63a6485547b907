// The ablation-assign experiment: does the analysis-driven hint
// assignment close the compiler loop? Every workload is stripped of its
// generator hints and re-hinted by analysis.Assign, then compared under
// the (3+2)×4-way optimized machine against the unhinted hardware
// heuristic (SteerSP), the generator's own hints (SteerHint), and the
// oracle upper bound; the speculative SteerSpec policy is the same
// assignment plus speculate-local steering. The two checked-in ambiguous
// examples (spec1/spec2) isolate the shapes only speculation wins on.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	registerExperiment(Experiment{
		ID:    "ablation-assign",
		Title: "Ablation: analysis-assigned hints and speculative steering",
		Description: "All workloads with generator hints stripped, " +
			"re-hinted by the analysis.Assign pass: unhinted ($sp " +
			"heuristic) vs generator hints vs assigned hints vs assigned+" +
			"speculative steering vs the oracle, plus the deliberately " +
			"ambiguous spec1/spec2 examples where only speculation wins.",
		plan: planAblationAssign,
	})
}

// assignAblationConfig is the machine every leg runs under.
func assignAblationConfig() config.Config {
	return cfgNM(3, 2).WithOptimizations(2)
}

// specExample1 and specExample2 are the canonical sources of
// examples/asm/spec{1,2}.s, inlined so the experiment does not depend on
// the repository layout at run time; TestSpecExamplesMatchCheckedIn pins
// them to the checked-in files.
const specExample1 = `# spec1 — path-dependent frame slots the dataflow cannot pin down.
#
# Each loop iteration picks one of two spill slots through a branch, so
# the slot pointer joins to a stack-derived value with a *path-dependent*
# offset: the analyzer can neither prove the access local (no exact
# offset) nor non-local (the base is still $sp-derived). ` + "`ddasm -assign`" + `
# classifies all four accesses speculate-local. Every execution stays
# inside the frame, so SteerSpec steers them to the local stream with
# zero misroutes, while hint-only steering must burn one misroute per PC
# teaching the region predictor. Used by the ablation-assign experiment.
	.text
	.global main
main:
	addi $sp, $sp, -32
	li   $s0, 0          # i
	li   $s1, 48         # iterations
	li   $v0, 0
loop:
	andi $t0, $s0, 1
	bnez $t0, odd1
	addi $t1, $sp, 0
	j    join1
odd1:
	addi $t1, $sp, 8
join1:
	sw   $s0, 0($t1)
	lw   $t2, 0($t1)
	add  $v0, $v0, $t2

	andi $t0, $s0, 2
	bnez $t0, odd2
	addi $t1, $sp, 16
	j    join2
odd2:
	addi $t1, $sp, 24
join2:
	sw   $v0, 0($t1)
	lw   $t3, 0($t1)
	add  $v0, $v0, $t3

	addi $s0, $s0, 1
	slt  $t0, $s0, $s1
	bnez $t0, loop
	addi $sp, $sp, 32
	out  $v0
	halt
`

const specExample2 = `# spec2 — a speculate-local assignment that is sometimes wrong.
#
# The slot pointer is again path-dependent (so the analyzer assigns
# speculate-local), but every eighth iteration it points *above* main's
# entry $sp — and main's entry $sp is the top of the stack region, so
# those accesses are dynamically non-local. Under SteerSpec the access
# is steered local on faith and the 1-in-8 misses pay the ordinary
# misroute squash-and-replay recovery (counted as SpecMisroutes); the
# architectural output never changes. The hint-only fallback predictor
# does worse: the local/non-local flip at each period boundary costs two
# misroutes per eight iterations. Used by the ablation-assign experiment
# and the speculation soak.
	.text
	.global main
main:
	li   $s0, 0          # i
	li   $s1, 64         # iterations
	li   $v0, 0
loop:
	andi $t0, $s0, 7
	bnez $t0, below
	addi $t1, $sp, 16    # i%8 == 0: above entry $sp -> outside the stack region
	j    join
below:
	addi $t1, $sp, -16   # otherwise: an ordinary (red-zone) frame slot
join:
	sw   $s0, 0($t1)
	lw   $t2, 0($t1)
	add  $v0, $v0, $t2

	addi $s0, $s0, 1
	slt  $t0, $s0, $s1
	bnez $t0, loop
	out  $v0
	halt
`

// specExamples assembles the two canonical ambiguous examples.
func specExamples() ([]*asm.Program, error) {
	var progs []*asm.Program
	for _, s := range []struct{ name, src string }{
		{"spec1.s", specExample1},
		{"spec2.s", specExample2},
	} {
		p, err := asm.Assemble(s.name, s.src)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// assignLeg is one steering strategy of the ablation.
type assignLeg struct {
	name     string
	steering config.SteeringPolicy
	// rehint selects the program image: generator keeps the workload's
	// own hints, everything else runs the stripped image, and assigned
	// runs the stripped image re-hinted by analysis.Assign.
	rehint bool
	strip  bool
}

var assignLegs = []assignLeg{
	{name: "unhinted", steering: config.SteerSP, strip: true},
	{name: "generator", steering: config.SteerHint},
	{name: "assigned", steering: config.SteerHint, strip: true, rehint: true},
	{name: "spec", steering: config.SteerSpec, strip: true},
	{name: "oracle", steering: config.SteerOracle, strip: true},
}

// exampleLegs are the legs the ambiguous examples run, on the example as
// written or, for assigned, re-hinted.
var exampleLegs = []assignLeg{
	{name: "assigned", steering: config.SteerHint, rehint: true},
	{name: "spec", steering: config.SteerSpec},
	{name: "oracle", steering: config.SteerOracle},
}

// assignImages is one program's two images: base, the image the hints are
// assigned to, cached as baseName, and assigned, base re-hinted by
// analysis.Assign, cached as name+"+assigned".
type assignImages struct {
	name, baseName string
	base, assigned *asm.Program
}

// newAssignImages runs analysis.Assign on base.
func newAssignImages(name, baseName string, base *asm.Program) assignImages {
	return assignImages{name: name, baseName: baseName, base: base, assigned: analysis.Assign(base).Apply()}
}

// strippedImages builds the images of workload w's hint-stripped program.
func strippedImages(w workload.Workload, scale float64) assignImages {
	return newAssignImages(w.Name, w.Name+"+stripped", w.ProgramStripped(scale))
}

// machine is the ablation's machine under leg's steering policy.
func (leg assignLeg) machine() config.Config {
	cfg := assignAblationConfig()
	cfg.Steering = leg.steering
	return cfg
}

// point is the simulation leg runs on these images.
func (img assignImages) point(leg assignLeg) point {
	if leg.rehint {
		return point{name: img.name + "+assigned", prog: img.assigned, cfg: leg.machine()}
	}
	return point{name: img.baseName, prog: img.base, cfg: leg.machine()}
}

// workloadPoint is workload w's simulation under leg: the generator leg
// runs the workload itself, the others run its stripped images.
func workloadPoint(w workload.Workload, img assignImages, leg assignLeg) point {
	if !leg.strip {
		return point{w: w, cfg: leg.machine()}
	}
	return img.point(leg)
}

// gapRecovered is the fraction of the unhinted→oracle IPC gap the
// assigned-hint run recovers; a closed (or inverted) gap counts as 1.
func gapRecovered(unhinted, assigned, oracle float64) float64 {
	gap := oracle - unhinted
	if gap <= 0 {
		return 1
	}
	rec := (assigned - unhinted) / gap
	if rec > 1 {
		return 1
	}
	return rec
}

func planAblationAssign(r *Runner) ([]point, func() (string, error), error) {
	ws := workload.All()
	progs, err := specExamples()
	if err != nil {
		return nil, nil, err
	}
	// Every workload's stripped images and every example's images, one
	// analysis.Assign per CPU.
	imgs, err := batch(len(ws)+len(progs), func(i int) (assignImages, error) {
		if i < len(ws) {
			return strippedImages(ws[i], r.Scale), nil
		}
		p := progs[i-len(ws)]
		return newAssignImages(p.Name, p.Name, p), nil
	})
	if err != nil {
		return nil, nil, err
	}
	wImgs, exImgs := imgs[:len(ws)], imgs[len(ws):]
	var grid []point
	for i, w := range ws {
		for _, leg := range assignLegs {
			grid = append(grid, workloadPoint(w, wImgs[i], leg))
		}
	}
	for _, img := range exImgs {
		for _, leg := range exampleLegs {
			grid = append(grid, img.point(leg))
		}
	}

	render := func() (string, error) {
		ctx := context.Background()
		var b strings.Builder
		t := stats.NewTable("Hint assignment ablation under (3+2) with optimizations (cycles)",
			"program", "unhinted", "generator", "assigned", "spec", "oracle", "gap recovered")
		for i, w := range ws {
			res := map[string]*core.Result{}
			for _, leg := range assignLegs {
				lr, err := r.resultOf(ctx, workloadPoint(w, wImgs[i], leg))
				if err != nil {
					return "", err
				}
				res[leg.name] = lr
			}
			rec := gapRecovered(res["unhinted"].IPC(), res["assigned"].IPC(), res["oracle"].IPC())
			t.AddRow(w.Name,
				res["unhinted"].Cycles, res["generator"].Cycles, res["assigned"].Cycles,
				res["spec"].Cycles, res["oracle"].Cycles,
				fmt.Sprintf("%.0f%%", 100*rec))
		}
		b.WriteString(t.Render())
		b.WriteString("(gap recovered: fraction of the unhinted→oracle IPC gap closed by assigned hints)\n\n")

		t2 := stats.NewTable("Ambiguous examples: speculation vs hint fallback",
			"program", "policy", "cycles", "IPC", "misroutes", "spec misroutes")
		for _, img := range exImgs {
			for _, leg := range exampleLegs {
				lr, err := r.resultOf(ctx, img.point(leg))
				if err != nil {
					return "", err
				}
				t2.AddRow(img.name, leg.name, lr.Cycles,
					fmt.Sprintf("%.3f", lr.IPC()), lr.Misroutes, lr.SpecMisroutes)
			}
		}
		b.WriteString(t2.Render())
		b.WriteString("(spec1/spec2 carry no provable accesses: \"assigned\" degenerates to the\npredictor fallback, and only speculate-local steering closes on the oracle)\n")
		return b.String(), nil
	}
	return grid, render, nil
}
