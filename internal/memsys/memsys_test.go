package memsys

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
)

func testStream(t *testing.T) *Stream {
	t.Helper()
	mem := &cache.MainMemory{Name: "mem", Latency: 20}
	l2 := cache.New(cache.Config{
		Name: "L2", SizeBytes: 1 << 16, LineBytes: 64, Assoc: 4,
		HitLatency: 4, MSHRs: 8,
	}, mem)
	l1 := cache.New(cache.Config{
		Name: "L1D", SizeBytes: 1 << 12, LineBytes: 32, Assoc: 2, HitLatency: 1,
	}, l2)
	spec := config.StreamSpec{
		Name: "LSQ", QueueSize: 8, Ports: 2, PortModel: config.PortsIdeal,
		Cache: config.CacheParams{
			SizeBytes: 1 << 12, LineBytes: 32, Assoc: 2, HitLatency: 1,
		},
		CombineWidth: 1,
	}
	return NewStream(0, spec, l1)
}

// TestStreamCombining exercises the per-stream combining window: one port
// grant covers CombineWidth consecutive same-line accesses of one kind.
func TestStreamCombining(t *testing.T) {
	s := testStream(t)
	s.Spec.CombineWidth = 4
	s.Spec.Ports = 1
	s.Ports = NewPorts(config.PortsIdeal, 1, 32)
	s.Reset()

	if ok, combined := s.Grant(0, 0x100, true, GroupNone); !ok || combined {
		t.Fatalf("first grant = (%v,%v), want (true,false)", ok, combined)
	}
	// Same line, within the window: rides the open grant.
	if ok, combined := s.Grant(1, 0x104, true, GroupNone); !ok || !combined {
		t.Fatalf("same-line grant = (%v,%v), want (true,true)", ok, combined)
	}
	// A store cannot ride a load window, and the single port is taken.
	if ok, _ := s.Grant(2, 0x108, false, GroupNone); ok {
		t.Fatal("store rode a load combining window")
	}
	// Different line: needs its own port, none left.
	if ok, _ := s.Grant(3, 0x200, true, GroupNone); ok {
		t.Fatal("different-line access granted without a free port")
	}
	if s.Stats.Combined != 1 {
		t.Fatalf("Stats.Combined = %d, want 1", s.Stats.Combined)
	}

	s.Reset() // window must close across cycles
	if ok, combined := s.Grant(0, 0x104, true, GroupNone); !ok || combined {
		t.Fatalf("post-Reset grant = (%v,%v), want (true,false)", ok, combined)
	}
}

// combiningStream returns a 1-port stream with a 4-wide combining window.
func combiningStream(t *testing.T, static bool) *Stream {
	t.Helper()
	s := testStream(t)
	s.Spec.CombineWidth = 4
	s.Spec.Ports = 1
	s.Spec.CombineStatic = static
	s.Ports = NewPorts(config.PortsIdeal, 1, 32)
	s.Reset()
	return s
}

// TestCombineWindowWidthBoundary pins the position arithmetic: the window
// spans queue positions [anchor, anchor+CombineWidth), however many rides
// remain.
func TestCombineWindowWidthBoundary(t *testing.T) {
	s := combiningStream(t, false)
	if ok, _ := s.Grant(2, 0x100, true, GroupNone); !ok {
		t.Fatal("anchor grant refused")
	}
	// Position anchor+CombineWidth is one past the window even though
	// combineLeft rides remain.
	if _, combined := s.Grant(2+4, 0x104, true, GroupNone); combined {
		t.Fatal("access at anchor+width rode the window")
	}
	s.Reset()
	if ok, _ := s.Grant(2, 0x100, true, GroupNone); !ok {
		t.Fatal("anchor grant refused")
	}
	// Last in-window position rides.
	if ok, combined := s.Grant(2+3, 0x104, true, GroupNone); !ok || !combined {
		t.Fatalf("access at anchor+width-1 = (%v,%v), want (true,true)", ok, combined)
	}
}

// TestCombineStaticGating: under CombineStatic only members of one proven
// group may open or ride the combining window.
func TestCombineStaticGating(t *testing.T) {
	s := combiningStream(t, true)

	// A group-less access gets a port but opens no window.
	if ok, _ := s.Grant(0, 0x100, true, GroupNone); !ok {
		t.Fatal("group-less access refused a free port")
	}
	if _, combined := s.Grant(1, 0x104, true, GroupNone); combined {
		t.Fatal("window opened for a group-less access")
	}

	s.Reset()
	if ok, _ := s.Grant(0, 0x100, true, 7); !ok {
		t.Fatal("group member refused a free port")
	}
	// Same line, same kind, in window — but wrong group: no ride.
	if _, combined := s.Grant(1, 0x104, true, 8); combined {
		t.Fatal("member of another group rode the window")
	}
	if _, combined := s.Grant(1, 0x104, true, GroupNone); combined {
		t.Fatal("group-less access rode a static window")
	}
	// Correct group rides.
	if ok, combined := s.Grant(1, 0x108, true, 7); !ok || !combined {
		t.Fatalf("same-group grant = (%v,%v), want (true,true)", ok, combined)
	}

	// Without CombineStatic the group id is ignored.
	dyn := combiningStream(t, false)
	if ok, _ := dyn.Grant(0, 0x100, true, 7); !ok {
		t.Fatal("grant refused")
	}
	if ok, combined := dyn.Grant(1, 0x104, true, 8); !ok || !combined {
		t.Fatalf("dynamic cross-group grant = (%v,%v), want (true,true)", ok, combined)
	}
}
