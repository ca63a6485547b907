package core

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/simerr"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/results-scale0.02.txt")

const resultGoldenPath = "testdata/results-scale0.02.txt"

// runEngine builds a fresh core for (workload, cfg) and runs it on the
// given engine. Each engine gets its own core: the comparison is between
// two complete simulations of the same machine.
func runEngine(t *testing.T, name string, scale float64, cfg config.Config, e Engine) (*Result, error) {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	return runProgram(t, w.Program(scale), cfg, e)
}

// runProgram runs prog on a fresh core; a run that finishes cleanly must
// also leave the pipeline drained and every uop back in the pool.
func runProgram(t *testing.T, prog *asm.Program, cfg config.Config, e Engine) (*Result, error) {
	t.Helper()
	c, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", prog.Name, err)
	}
	res, err := c.RunWith(context.Background(), RunOptions{Engine: e})
	if err == nil {
		assertPipelineDrained(t, c, fmt.Sprintf("%s on %s (%v)", prog.Name, cfg.Name(), e))
	}
	return res, err
}

// memBoundConfig is a machine whose caches the workloads overflow: an
// 8 KB 2-way L1, a 64 KB L2 with 20-cycle hits and 200-cycle memory, so
// MSHR pile-ups and long fill waits dominate.
func memBoundConfig() config.Config {
	c := config.Default().WithPorts(2, 2).WithOptimizations(2)
	c.L1 = config.CacheParams{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 2, HitLatency: 2}
	c.L2 = config.CacheParams{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 4, HitLatency: 20}
	c.MemLatency = 200
	return c
}

// machine names a configuration the multi-workload tests run.
type machine struct {
	name  string
	cfg   config.Config
	strip bool // run the program with its access-region hints removed
}

// tlbDualConfig is a (2+2) machine with 4-wide combining and an 8-entry
// annotation TLB with a 30-cycle miss, under dual steering: the machine
// whose TLB-miss path delays address verification.
func tlbDualConfig() config.Config {
	c := config.Default().WithPorts(2, 2).WithOptimizations(4)
	c.Steering = config.SteerDual
	c.TLBEntries, c.TLBMissLatency = 8, 30
	return c
}

// TestEngineIdentityAllWorkloads is the differential harness for the
// event-driven engine: on every workload, for a spread of machine
// configurations (unified, decoupled, decoupled with both §2.2.2
// optimizations, a memory-bound cache geometry, ablation-lvaq's 8-entry
// LVAQ, dual — plain, with both optimizations, and with an 8-entry
// annotation TLB — and static steering of hint-stripped programs), the
// event engine must produce a Result that is bit-identical to the tick
// engine's — cycles, every stall counter, every occupancy integral,
// every cache statistic.
//
// Identical engines can still share a timing bug, so each Result is also
// pinned: its line must equal the one in testdata/results-scale0.02.txt.
// Regenerate that file with -update only after a deliberate change to the
// timing model or to the workloads.
func TestEngineIdentityAllWorkloads(t *testing.T) {
	lvaq8 := config.Default().WithPorts(3, 2).WithOptimizations(2)
	lvaq8.LVAQSize = 8
	dual := config.Default().WithPorts(3, 2)
	dual.Steering = config.SteerDual
	dualOpt := dual.WithOptimizations(2)
	static := config.Default().WithPorts(3, 2)
	static.Steering = config.SteerStatic
	configs := []machine{
		{"unified(4+0)", config.Default().WithPorts(4, 0), false},
		{"decoupled(3+2)", config.Default().WithPorts(3, 2), false},
		{"optimized(3+2)", config.Default().WithPorts(3, 2).WithOptimizations(2), false},
		{"mem-bound(2+2)", memBoundConfig(), false},
		{"optimized-lvaq8(3+2)", lvaq8, false},
		{"dual-stripped(3+2)", dual, true},
		{"dual-stripped-opt(3+2)", dualOpt, true},
		{"static-stripped(3+2)", static, true},
		{"tlb-dual-stripped(2+2)", tlbDualConfig(), true},
	}
	scale := 0.02
	golden := readResultGolden(t)
	ws := workload.All()
	lines := make([]string, len(ws)*len(configs))
	if *update {
		t.Cleanup(func() { writeResultGolden(t, lines) })
	}
	for i, w := range ws {
		for j, tc := range configs {
			name := w.Name + "/" + tc.name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				prog := w.Program(scale)
				if tc.strip {
					prog = prog.StripHints()
				}
				tick, terr := runProgram(t, prog, tc.cfg, EngineTick)
				event, eerr := runProgram(t, prog, tc.cfg, EngineEvent)
				if terr != nil || eerr != nil {
					t.Fatalf("run errors: tick=%v event=%v", terr, eerr)
				}
				assertResultsIdentical(t, tick, event)
				line := resultLine(name, tick)
				lines[i*len(configs)+j] = line
				if want := golden[name]; !*update && line != want {
					t.Errorf("Result drifted from %s:\n got:  %s\n want: %s", resultGoldenPath, line, want)
				}
			})
		}
	}
}

// resultLine is one run's line in the Result golden: the run's name, its
// cycles and committed instructions, and the sha256 of every field of res.
func resultLine(name string, res *Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *res)))
	return fmt.Sprintf("%s %d %d %x", name, res.Cycles, res.Committed, sum)
}

// readResultGolden maps each run's name to its line in the Result golden.
func readResultGolden(t *testing.T) map[string]string {
	t.Helper()
	golden := map[string]string{}
	if *update {
		return golden
	}
	data, err := os.ReadFile(resultGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			golden[strings.Fields(line)[0]] = line
		}
	}
	return golden
}

// writeResultGolden rewrites the Result golden from every run's line.
func writeResultGolden(t *testing.T, lines []string) {
	if slices.Contains(lines, "") {
		t.Fatalf("-update needs every run to pass; %s is unchanged", resultGoldenPath)
	}
	out := "# workload/machine cycles committed sha256(fmt %+v of the Result)\n" + strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(resultGoldenPath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineIdentitySmallL1 is the regression test for a livelock of the
// event engine on alt-small-l1's machines (a 2 KB direct-mapped L1 with
// 1-cycle hits, with the default L2 and with a 3-cycle L2). A load at the
// ROB head stalled on a full MSHR file whose earliest fill, due the next
// cycle, had been started by a store commit and so was never registered
// as a wake; the stalled cycle was quiescent and the engine skipped
// straight past the fill to the watchdog boundary.
func TestEngineIdentitySmallL1(t *testing.T) {
	small := config.Default().WithPorts(2, 0)
	small.L1 = config.CacheParams{SizeBytes: 2 * 1024, LineBytes: 32, Assoc: 1, HitLatency: 1}
	fastL2 := small
	fastL2.L2.HitLatency = 3
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{{"2KB-L1", small}, {"2KB-L1,L2@3", fastL2}} {
		for _, name := range []string{"tomcatv", "mgrid", "gcc"} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				tick, terr := runEngine(t, name, 0.1, tc.cfg, EngineTick)
				event, eerr := runEngine(t, name, 0.1, tc.cfg, EngineEvent)
				if terr != nil || eerr != nil {
					t.Fatalf("run errors: tick=%v event=%v", terr, eerr)
				}
				assertResultsIdentical(t, tick, event)
			})
		}
	}
}

// TestEngineIdentitySteeringVariants covers the recovery-heavy paths
// (misroute squash/replay, dual-steering kill, speculative steering) where
// wake bookkeeping is hardest to get right.
func TestEngineIdentitySteeringVariants(t *testing.T) {
	for _, steering := range []config.SteeringPolicy{
		config.SteerSP, config.SteerDual, config.SteerStatic, config.SteerSpec,
	} {
		cfg := config.Default().WithPorts(3, 2).WithOptimizations(2)
		cfg.Steering = steering
		t.Run(steering.String(), func(t *testing.T) {
			t.Parallel()
			for _, name := range []string{"li", "go", "swim"} {
				tick, terr := runEngine(t, name, 0.02, cfg, EngineTick)
				event, eerr := runEngine(t, name, 0.02, cfg, EngineEvent)
				if terr != nil || eerr != nil {
					t.Fatalf("%s: run errors: tick=%v event=%v", name, terr, eerr)
				}
				assertResultsIdentical(t, tick, event)
			}
		})
	}
}

// TestEngineIdentityExamples runs every shipped examples/asm program
// (including the deliberately-broken badhint.s — a bad hint still
// simulates, it just misroutes) under both engines on the paper's
// optimized machine and on a unified one.
func TestEngineIdentityExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "asm")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	configs := []config.Config{
		config.Default().WithPorts(4, 0),
		config.Default().WithPorts(3, 2).WithOptimizations(2),
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".s" {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		t.Run(ent.Name(), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(ent.Name(), string(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range configs {
				var results [2]*Result
				for i, e := range []Engine{EngineTick, EngineEvent} {
					c, err := New(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if results[i], err = c.RunWith(context.Background(), RunOptions{Engine: e}); err != nil {
						t.Fatalf("%s engine %v: %v", cfg.Name(), e, err)
					}
				}
				assertResultsIdentical(t, results[0], results[1])
			}
		})
	}
}

func assertResultsIdentical(t *testing.T, tick, event *Result) {
	t.Helper()
	if reflect.DeepEqual(tick, event) {
		return
	}
	// Pinpoint the divergence for the failure message.
	if tick.Cycles != event.Cycles {
		t.Errorf("cycles: tick=%d event=%d", tick.Cycles, event.Cycles)
	}
	if tick.Stats != event.Stats {
		t.Errorf("stats diverge:\n tick:  %+v\n event: %+v", tick.Stats, event.Stats)
	}
	for i := range tick.Streams {
		if i < len(event.Streams) && !reflect.DeepEqual(tick.Streams[i], event.Streams[i]) {
			t.Errorf("stream %d diverges:\n tick:  %+v\n event: %+v",
				i, tick.Streams[i], event.Streams[i])
		}
	}
	t.Fatalf("results diverge (L2/mem/TLB/output section):\n tick:  %+v %+v %d/%d\n event: %+v %+v %d/%d",
		tick.L2, tick.MemReads, tick.TLBHits, tick.TLBMisses,
		event.L2, event.MemReads, event.TLBHits, event.TLBMisses)
}

// TestEngineIdentityUnderMaxCycles: an abort boundary must fire on the
// same cycle with the same snapshot under both engines — the event engine
// clamps its jumps to land one cycle before the cap so the capped cycle
// executes for real.
func TestEngineIdentityUnderMaxCycles(t *testing.T) {
	cfg := config.Default().WithPorts(3, 2)
	for _, cap := range []uint64{100, 1000, 5000} {
		var snaps [2]simerr.Snapshot
		for i, e := range []Engine{EngineTick, EngineEvent} {
			w, _ := workload.ByName("swim")
			c, err := New(w.Program(0.05), cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, rerr := c.RunWith(context.Background(), RunOptions{MaxCycles: cap, Engine: e})
			se, ok := rerr.(*simerr.SimError)
			if !ok || se.Kind != simerr.KindMaxCycles {
				t.Fatalf("cap %d engine %v: err = %v, want KindMaxCycles", cap, e, rerr)
			}
			snaps[i] = se.Snapshot
		}
		if !reflect.DeepEqual(snaps[0], snaps[1]) {
			t.Errorf("cap %d: abort snapshots diverge:\n tick:  %+v\n event: %+v",
				cap, snaps[0], snaps[1])
		}
	}
}

// TestEngineIdentityUnderBudget: the cycle budget must abort on the same
// cycle with the same snapshot under both engines. The one load waits
// three million cycles for memory, so the event engine's jump toward that
// wake is clamped by the budget alone: it lands on the budget bound and
// the next real cycle, 1000001, is the aborting one.
func TestEngineIdentityUnderBudget(t *testing.T) {
	const src = "\t.text\nmain:\n\tlw $t0, 0($t1)\n\taddi $t2, $t0, 1\n\thalt\n"
	cfg := config.Default().WithPorts(2, 0)
	cfg.MemLatency = 3_000_000
	var snaps [2]simerr.Snapshot
	for i, e := range []Engine{EngineTick, EngineEvent} {
		c, err := New(compile(t, src), cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := c.RunWith(context.Background(), RunOptions{DisableWatchdog: true, Engine: e})
		se, ok := rerr.(*simerr.SimError)
		if !ok || se.Kind != simerr.KindBudget {
			t.Fatalf("engine %v: err = %v, want KindBudget", e, rerr)
		}
		snaps[i] = se.Snapshot
	}
	if snaps[0].Cycle != 100*snaps[0].Committed+cycleSlack+1 {
		t.Errorf("tick aborted at cycle %d with %d committed, want the first cycle past the budget",
			snaps[0].Cycle, snaps[0].Committed)
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Errorf("budget abort snapshots diverge:\n tick:  %+v\n event: %+v", snaps[0], snaps[1])
	}
}

// TestWatchdogFiresAcrossSkippedGap: a livelocked pipeline (watchdog
// window far below any real wake) must abort on exactly the same cycle
// under both engines even when the event engine's jump would overshoot the
// watchdog boundary — the clamp lands it one cycle short.
func TestWatchdogFiresAcrossSkippedGap(t *testing.T) {
	cfg := config.Default().WithPorts(3, 2)
	// A tiny watchdog window turns ordinary memory-latency stalls into
	// "livelock": with MemLatency 50 and MSHR pileups, a 40-cycle window
	// trips on real workloads, and the event engine skips straight at it.
	const window = 40
	var cycles [2]uint64
	for i, e := range []Engine{EngineTick, EngineEvent} {
		w, _ := workload.ByName("swim")
		c, err := New(w.Program(0.05), cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := c.RunWith(context.Background(), RunOptions{WatchdogCycles: window, Engine: e})
		se, ok := rerr.(*simerr.SimError)
		if !ok || se.Kind != simerr.KindWatchdog {
			t.Fatalf("engine %v: err = %v, want KindWatchdog", e, rerr)
		}
		cycles[i] = se.Snapshot.Cycle
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("watchdog fired on different cycles: tick=%d event=%d", cycles[0], cycles[1])
	}
}

// probeMachines are the machines the cycle-by-cycle probes below run
// every workload on: each memory-stage path the skip and the sleeps must
// agree on — a unified queue, both optimizations, a short LVAQ, static
// pairs, MSHR pile-ups, a thrashing direct-mapped L1, dual insertion with
// and without the annotation TLB, and misroute recovery.
func probeMachines() []machine {
	lvaq8 := config.Default().WithPorts(3, 2).WithOptimizations(2)
	lvaq8.LVAQSize = 8
	small := config.Default().WithPorts(2, 0)
	small.L1 = config.CacheParams{SizeBytes: 2 * 1024, LineBytes: 32, Assoc: 1, HitLatency: 1}
	dualOpt := config.Default().WithPorts(3, 2).WithOptimizations(2)
	dualOpt.Steering = config.SteerDual
	sp := config.Default().WithPorts(2, 2)
	sp.Steering = config.SteerSP
	sp.RecoveryPenalty = 20
	return []machine{
		{"unified(2+0)", config.Default().WithPorts(2, 0), false},
		{"optimized(3+2)", config.Default().WithPorts(3, 2).WithOptimizations(2), false},
		{"optimized-lvaq8(3+2)", lvaq8, false},
		{"static-opt(2+2)", config.Default().WithPorts(2, 2).WithStaticOptimizations(4), false},
		{"mem-bound(2+2)", memBoundConfig(), false},
		{"2KB-L1(2+0)", small, false},
		{"dual-stripped-opt(3+2)", dualOpt, true},
		{"tlb-dual-stripped(2+2)", tlbDualConfig(), true},
		{"sp-stripped-rp20(2+2)", sp, true},
	}
}

// forEachProbeRun calls check, in a parallel subtest, with a fresh core
// for every workload at scale 0.02 on every probe machine, and with the
// program and machine it was built from.
func forEachProbeRun(t *testing.T, check func(t *testing.T, c *Core, prog *asm.Program, cfg config.Config)) {
	for _, m := range probeMachines() {
		for _, w := range workload.All() {
			t.Run(w.Name+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				prog := w.Program(0.02)
				if m.strip {
					prog = prog.StripHints()
				}
				c, err := New(prog, m.cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, c, prog, m.cfg)
			})
		}
	}
}

// TestQuietCyclesKeepTheirPromise checks the skip's premise cycle by
// cycle, without skipping. After two consecutive quiet cycles the skip
// jumps to the next event and replays the second quiet cycle across the
// gap, so each such cycle promises that no cycle before nextEvent() makes
// a transition. The test steps cycle() by hand and fails at the first
// cycle that breaks the largest open promise, naming the timestamp a
// stage compared but nextEvent did not read.
func TestQuietCyclesKeepTheirPromise(t *testing.T) {
	forEachProbeRun(t, func(t *testing.T, c *Core, _ *asm.Program, _ config.Config) {
		var promise uint64
		prevQuiet := false
		for !c.done() {
			c.progressed = false
			c.cycle()
			quiet := !c.progressed
			if !quiet && c.now < promise {
				t.Fatalf("cycle %d made a transition, but a quiet cycle promised none before %d", c.now, promise)
			}
			if quiet && prevQuiet {
				promise = max(promise, c.nextEvent())
			}
			prevQuiet = quiet
			if c.now > 100*c.stats.Committed+cycleSlack {
				t.Fatalf("cycle budget exhausted at cycle %d", c.now)
			}
		}
	})
}

// TestForgetfulMemoryStageMatches is the oracle for the memory stage's
// sleeps and memos, which both engines share, so tick ≡ event cannot see a
// wrong one. Before every hand-stepped cycle it clears each pending
// access's sleep bound (memWake) and its order-scan and fast-forward
// memos (osState/osCand, ffState/ffCand), so every access is visited and
// rescanned every cycle. A sleep that ends late, or a memo that outlives
// its verdict, makes the normal run differ from this forgetful one.
func TestForgetfulMemoryStageMatches(t *testing.T) {
	forEachProbeRun(t, func(t *testing.T, c *Core, prog *asm.Program, cfg config.Config) {
		for !c.done() {
			for _, s := range c.streams {
				for u := s.pendHead; u != nil; u = u.pendNext[s.ID] {
					u.memWake = 0
					u.osState, u.osCand = osNone, nil
					u.ffState, u.ffCand = ffNone, nil
				}
			}
			c.cycle()
			if c.now > 100*c.stats.Committed+cycleSlack {
				t.Fatalf("cycle budget exhausted at cycle %d", c.now)
			}
		}
		want, err := runProgram(t, prog, cfg, EngineEvent)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.result(); !reflect.DeepEqual(got, want) {
			t.Errorf("forgetful run: %d cycles, %d committed; normal run: %d, %d",
				got.Cycles, got.Committed, want.Cycles, want.Committed)
		}
	})
}
