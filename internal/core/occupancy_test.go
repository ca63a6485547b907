package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestLazyOccupancyMatchesPerCycleSampling pins the occupancy integrals
// to golden values captured from per-cycle sampling of every stream and
// the ROB, at scale 0.05 on the (3+2) machine. Both engines must reproduce
// them exactly: the skip replays each sample across the cycles it skips.
func TestLazyOccupancyMatchesPerCycleSampling(t *testing.T) {
	base := config.Default().WithPorts(3, 2)
	opt := base.WithOptimizations(2)
	golden := []struct {
		name      string
		cfg       config.Config
		cycles    uint64
		committed uint64
		rob       uint64
		lsq       uint64
		lvaq      uint64
	}{
		{"li/base", base, 21611, 87141, 2751893, 547507, 841960},
		{"li/opt", opt, 20421, 87141, 2601544, 548463, 770211},
		{"swim/base", base, 152933, 141251, 19572663, 4559902, 335},
		{"swim/opt", opt, 152933, 141251, 19572663, 4559902, 335},
		{"go/base", base, 14368, 45992, 1837527, 186466, 139332},
		{"go/opt", opt, 14250, 45992, 1822354, 185423, 136371},
		{"compress/base", base, 27588, 41428, 3524252, 705911, 1232},
		{"compress/opt", opt, 27588, 41428, 3524252, 705911, 1232},
	}
	for _, g := range golden {
		for _, e := range []Engine{EngineTick, EngineEvent} {
			name := g.name[:indexByte(g.name, '/')]
			r, err := runEngine(t, name, 0.05, g.cfg, e)
			if err != nil {
				t.Fatalf("%s (%v): %v", g.name, e, err)
			}
			if r.Cycles != g.cycles || r.Committed != g.committed {
				t.Errorf("%s (%v): cycles/committed = %d/%d, want %d/%d",
					g.name, e, r.Cycles, r.Committed, g.cycles, g.committed)
			}
			if r.ROBOccupancy != g.rob {
				t.Errorf("%s (%v): ROBOccupancy = %d, want %d", g.name, e, r.ROBOccupancy, g.rob)
			}
			if r.LSQOccupancy != g.lsq {
				t.Errorf("%s (%v): LSQOccupancy = %d, want %d", g.name, e, r.LSQOccupancy, g.lsq)
			}
			if r.LVAQOccupancy != g.lvaq {
				t.Errorf("%s (%v): LVAQOccupancy = %d, want %d", g.name, e, r.LVAQOccupancy, g.lvaq)
			}
		}
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}

// TestSteadyStateZeroAllocs is the allocation gate for the hot loop: after
// a warm-up run has populated the uop pool and the rings, simulating the
// same program again must allocate nothing per committed instruction. The
// budget below is a small fixed number of objects for the *entire* run
// (result construction allocates the Result and its stream slice), which
// amortizes to zero per instruction; steady-state cycle() itself must not
// allocate at all.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement, skipped in -short")
	}
	w, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Program(0.05)
	cfg := config.Default().WithPorts(3, 2).WithOptimizations(2)

	for _, e := range []Engine{EngineEvent, EngineTick} {
		c, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up: fill the pool and size the rings, then measure a pure
		// cycle-loop window on a fresh core (same config ⇒ same shapes).
		if _, err := c.RunWith(context.Background(), RunOptions{Engine: e}); err != nil {
			t.Fatalf("warm-up (%v): %v", e, err)
		}

		c2, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Run the first quarter to reach steady state (pool populated, maps
		// in the steering predictor warmed), then measure.
		for i := 0; i < 5000 && !c2.done(); i++ {
			c2.cycle()
		}
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 5000 && !c2.done(); i++ {
				c2.cycle()
			}
		})
		if allocs > 0 {
			t.Errorf("engine %v: steady-state cycle loop allocated %.1f objects per 5000 cycles; want 0", e, allocs)
		}
	}
}
