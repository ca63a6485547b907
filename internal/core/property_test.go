package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/emu"
)

// genRandomProgram emits a random but well-formed, halting program: a
// bounded outer loop whose body mixes ALU chains, stack pushes/pops,
// global array traffic, FP arithmetic and calls to a random leaf. The
// generator only uses constructs that terminate, so every program halts.
func genRandomProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("\t.text\n\t.global main\nmain:\n")
	iters := 20 + rng.Intn(200)
	fmt.Fprintf(&b, "\tla   $s6, arr\n")
	fmt.Fprintf(&b, "\tli   $s0, %d\n", iters)
	b.WriteString("outer:\n")

	nOps := 5 + rng.Intn(30)
	frame := 4 * (2 + rng.Intn(8))
	pushed := false
	if rng.Intn(2) == 0 {
		pushed = true
		fmt.Fprintf(&b, "\taddi $sp, $sp, %d\n", -frame)
	}
	for i := 0; i < nOps; i++ {
		r1, r2, r3 := 8+rng.Intn(8), 8+rng.Intn(8), 8+rng.Intn(8)
		switch rng.Intn(10) {
		case 0, 1, 2:
			ops := []string{"add", "sub", "and", "or", "xor", "mul"}
			fmt.Fprintf(&b, "\t%s $t%d, $t%d, $t%d\n", ops[rng.Intn(len(ops))], r1-8, r2-8, r3-8)
		case 3:
			fmt.Fprintf(&b, "\taddi $t%d, $t%d, %d\n", r1-8, r2-8, rng.Intn(1000)-500)
		case 4:
			if pushed {
				off := 4 * rng.Intn(frame/4)
				fmt.Fprintf(&b, "\tsw   $t%d, %d($sp) !local\n", r1-8, off)
				fmt.Fprintf(&b, "\tlw   $t%d, %d($sp) !local\n", r2-8, off)
			}
		case 5:
			off := 4 * rng.Intn(64)
			fmt.Fprintf(&b, "\tsw   $t%d, %d($s6) !nonlocal\n", r1-8, off)
		case 6:
			off := 4 * rng.Intn(64)
			fmt.Fprintf(&b, "\tlw   $t%d, %d($s6) !nonlocal\n", r1-8, off)
		case 7:
			fmt.Fprintf(&b, "\tcvtif $f%d, $t%d\n", rng.Intn(8), r1-8)
			fmt.Fprintf(&b, "\tfadd $f%d, $f%d, $f%d\n", rng.Intn(8), rng.Intn(8), rng.Intn(8))
		case 8:
			fmt.Fprintf(&b, "\tjal  leaf%d\n", rng.Intn(3))
		case 9:
			fmt.Fprintf(&b, "\tslli $t%d, $t%d, %d\n", r1-8, r2-8, rng.Intn(8))
		}
	}
	if pushed {
		fmt.Fprintf(&b, "\taddi $sp, $sp, %d\n", frame)
	}
	b.WriteString("\taddi $s0, $s0, -1\n\tbnez $s0, outer\n")
	b.WriteString("\tadd  $t0, $t0, $t1\n\tout  $t0\n\tout  $t7\n\thalt\n")

	for l := 0; l < 3; l++ {
		fmt.Fprintf(&b, "leaf%d:\n", l)
		fmt.Fprintf(&b, "\taddi $sp, $sp, -8\n")
		fmt.Fprintf(&b, "\tsw   $ra, 4($sp) !local\n")
		fmt.Fprintf(&b, "\tsw   $t0, 0($sp) !local\n")
		fmt.Fprintf(&b, "\taddi $t0, $t0, %d\n", l+1)
		fmt.Fprintf(&b, "\tlw   $t0, 0($sp) !local\n")
		fmt.Fprintf(&b, "\tlw   $ra, 4($sp) !local\n")
		fmt.Fprintf(&b, "\taddi $sp, $sp, 8\n\tjr $ra\n")
	}
	b.WriteString("\t.data\narr:\t.space 256\n")
	return b.String()
}

// TestRandomProgramsMatchEmulator is the core's property test: for many
// random programs and random configurations, the timing model must commit
// exactly what the emulator executes and produce identical output.
func TestRandomProgramsMatchEmulator(t *testing.T) {
	rng := rand.New(rand.NewSource(990217))
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		src := genRandomProgram(rng)
		prog, err := asm.Assemble(fmt.Sprintf("rand%d.s", trial), src)
		if err != nil {
			t.Fatalf("trial %d: assemble: %v\n%s", trial, err, src)
		}
		ref := emu.New(prog)
		if _, err := ref.Run(10_000_000); err != nil {
			t.Fatalf("trial %d: emulate: %v", trial, err)
		}

		cfg := config.Default().WithPorts(1+rng.Intn(4), rng.Intn(4))
		if rng.Intn(2) == 0 {
			cfg = cfg.WithOptimizations(1 + rng.Intn(4))
		}
		switch rng.Intn(4) {
		case 1:
			cfg.Steering = config.SteerSP
		case 2:
			cfg.Steering = config.SteerOracle
		case 3:
			cfg.Steering = config.SteerDual
		}

		c, err := New(prog, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, cfg.Name(), err)
		}
		if res.Committed != ref.InstCount {
			t.Fatalf("trial %d (%s): committed %d, want %d",
				trial, cfg.Name(), res.Committed, ref.InstCount)
		}
		if len(res.Output) != len(ref.Output) {
			t.Fatalf("trial %d: outputs %d vs %d", trial, len(res.Output), len(ref.Output))
		}
		for i := range ref.Output {
			if res.Output[i] != ref.Output[i] {
				t.Fatalf("trial %d: output[%d] = %d, want %d",
					trial, i, res.Output[i], ref.Output[i])
			}
		}
		// Timing invariants.
		if res.Cycles == 0 || res.Cycles < res.Committed/uint64(cfg.IssueWidth) {
			t.Fatalf("trial %d: impossible cycle count %d for %d insts",
				trial, res.Cycles, res.Committed)
		}
		assertPipelineDrained(t, c, fmt.Sprintf("trial %d (%s)", trial, cfg.Name()))
	}
}

// assertPipelineDrained checks the post-run invariants of a cleanly
// finished pipeline: every access queue and pending list is empty — no
// leaked dual shadow copies, no misroute-recovery residue — and every
// RUU entry is back in the pool, which never grew past the ROB.
func assertPipelineDrained(t *testing.T, c *Core, ctx string) {
	t.Helper()
	for _, s := range c.streams {
		if s.n != 0 || s.pendHead != nil || s.pendTail != nil {
			t.Fatalf("%s: stream %s finished with occupancy %d (pending list empty: %v), want empty",
				ctx, s.Spec.Name, s.n, s.pendHead == nil && s.pendTail == nil)
		}
	}
	if len(c.freeUops) != c.cfg.ROBSize {
		t.Fatalf("%s: the uop pool holds %d entries after the run, want ROBSize = %d",
			ctx, len(c.freeUops), c.cfg.ROBSize)
	}
}

// corruptHints flips steering hints at random so SteerHint misroutes.
func corruptHints(src string, rng *rand.Rand) string {
	lines := strings.Split(src, "\n")
	for i, ln := range lines {
		if rng.Intn(2) != 0 {
			continue
		}
		if strings.Contains(ln, "!nonlocal") {
			lines[i] = strings.Replace(ln, "!nonlocal", "!local", 1)
		} else if strings.Contains(ln, "!local") {
			lines[i] = strings.Replace(ln, "!local", "!nonlocal", 1)
		}
	}
	return strings.Join(lines, "\n")
}

// stripHints removes all steering hints, making every access ambiguous
// (dual-inserted under SteerDual).
func stripHints(src string) string {
	src = strings.ReplaceAll(src, "!nonlocal", "")
	return strings.ReplaceAll(src, "!local", "")
}

// injectAliasedStackAccesses adds, to every loop iteration, accesses
// through a non-$sp alias of the stack pointer: the base-register guess
// classifies them non-local while they resolve local, so dual steering
// misguesses and must kill its primary (not shadow) copy.
func injectAliasedStackAccesses(src string) string {
	snippet := "\taddi $sp, $sp, -8\n" +
		"\taddi $s7, $sp, 0\n" +
		"\tsw   $t0, 0($s7)\n" +
		"\tlw   $t1, 0($s7)\n" +
		"\tsw   $t2, 4($s7)\n" +
		"\tlw   $t3, 4($s7)\n" +
		"\taddi $sp, $sp, 8\n"
	return strings.Replace(src, "outer:\n", "outer:\n"+snippet, 1)
}

// TestMisrouteAndDualLeaveNoResidue stresses the two recovery paths that
// move entries between streams mid-flight: misroute recovery (squash and
// re-steer) under corrupted hints, and dual insertion (shadow-copy kill)
// with no hints at all. Both must still commit exactly the emulated
// instruction stream and leave the streams empty.
func TestMisrouteAndDualLeaveNoResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	var misroutes, duals, dualWrong uint64
	for trial := 0; trial < trials; trial++ {
		src := genRandomProgram(rng)
		for _, tc := range []struct {
			name     string
			src      string
			steering config.SteeringPolicy
		}{
			{"misroute", corruptHints(src, rng), config.SteerHint},
			{"dual", injectAliasedStackAccesses(stripHints(src)), config.SteerDual},
		} {
			prog, err := asm.Assemble(fmt.Sprintf("%s%d.s", tc.name, trial), tc.src)
			if err != nil {
				t.Fatalf("trial %d %s: assemble: %v", trial, tc.name, err)
			}
			ref := emu.New(prog)
			if _, err := ref.Run(10_000_000); err != nil {
				t.Fatalf("trial %d %s: emulate: %v", trial, tc.name, err)
			}
			cfg := config.Default().WithPorts(2, 2)
			cfg.Steering = tc.steering
			c, err := New(prog, cfg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, tc.name, err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, tc.name, err)
			}
			if res.Committed != ref.InstCount {
				t.Fatalf("trial %d %s: committed %d, want %d",
					trial, tc.name, res.Committed, ref.InstCount)
			}
			for i := range ref.Output {
				if res.Output[i] != ref.Output[i] {
					t.Fatalf("trial %d %s: output[%d] = %d, want %d",
						trial, tc.name, i, res.Output[i], ref.Output[i])
				}
			}
			assertPipelineDrained(t, c, fmt.Sprintf("trial %d %s", trial, tc.name))
			misroutes += res.Misroutes
			duals += res.DualInserted
			dualWrong += res.DualMisguessed
		}
	}
	// The stress must actually exercise the recovery paths.
	if misroutes == 0 {
		t.Error("corrupted hints produced no misroutes")
	}
	if duals == 0 {
		t.Error("hint-free programs produced no dual insertions")
	}
	if dualWrong == 0 {
		t.Error("dual steering never misguessed; wrong-copy kill untested")
	}
}
