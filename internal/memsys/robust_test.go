package memsys

import "testing"

// A GrantHook returning false must deny the port exactly like a structural
// conflict — no port consumed, no combining window opened — and a nil hook
// must change nothing.
func TestGrantHookDeniesPorts(t *testing.T) {
	s := testStream(t)
	s.Reset()
	if ok, _ := s.Grant(0, 0x100, true, GroupNone); !ok {
		t.Fatal("grant denied with no hook installed")
	}

	var denied int
	s.GrantHook = func(id int, addr uint32, isLoad bool) bool {
		if id != s.ID {
			t.Errorf("hook saw stream id %d, want %d", id, s.ID)
		}
		denied++
		return false
	}
	s.Reset()
	if ok, _ := s.Grant(0, 0x100, true, GroupNone); ok {
		t.Fatal("grant succeeded against a denying hook")
	}
	if denied != 1 {
		t.Fatalf("hook called %d times, want 1", denied)
	}
	if s.Ports.InUse() != 0 {
		t.Fatalf("denied grant consumed a port: InUse() = %d", s.Ports.InUse())
	}

	// A denying hook must also stall a commit-time store write.
	if ok, _ := s.CommitStore(1, 0x100, GroupNone); ok || s.Stats.StorePortStalls != 1 {
		t.Fatalf("CommitStore under denying hook = %v with %d port stalls, want a port stall",
			ok, s.Stats.StorePortStalls)
	}

	s.GrantHook = nil
	s.Reset()
	if ok, _ := s.Grant(0, 0x100, true, GroupNone); !ok {
		t.Fatal("grant denied after hook removed")
	}
}

// A combining-window ride-along does not consume a port, so the hook (a
// port-level fault) must not see or block it.
func TestGrantHookSkipsCombiningRides(t *testing.T) {
	s := combiningStream(t, false)
	s.Reset()
	if ok, combined := s.Grant(0, 0x100, true, GroupNone); !ok || combined {
		t.Fatalf("opening grant = (%v, %v), want (true, false)", ok, combined)
	}
	// Deny everything from here: the same-line follower must still ride.
	s.GrantHook = func(int, uint32, bool) bool { return false }
	if ok, combined := s.Grant(1, 0x104, true, GroupNone); !ok || !combined {
		t.Fatalf("ride-along under denying hook = (%v, %v), want (true, true)", ok, combined)
	}
	// A different line needs a real port and must be denied.
	if ok, _ := s.Grant(2, 0x200, true, GroupNone); ok {
		t.Fatal("off-line access won a port against a denying hook")
	}
}

// The diagnostic accessors feeding failure snapshots must report the live
// port and combining-window state.
func TestDiagnosticAccessors(t *testing.T) {
	s := combiningStream(t, false)
	s.Reset()
	if got := s.Ports.Limit(); got != s.Spec.Ports {
		t.Fatalf("Ports.Limit() = %d, want %d", got, s.Spec.Ports)
	}
	if got := s.Ports.InUse(); got != 0 {
		t.Fatalf("Ports.InUse() = %d at cycle start, want 0", got)
	}
	if left, _, _ := s.CombineWindow(); left != 0 {
		t.Fatalf("CombineWindow left = %d at cycle start, want 0", left)
	}

	if ok, _ := s.Grant(0, 0x140, true, 7); !ok {
		t.Fatal("grant denied")
	}
	if got := s.Ports.InUse(); got != 1 {
		t.Fatalf("Ports.InUse() = %d after one grant, want 1", got)
	}
	left, line, group := s.CombineWindow()
	if left != s.Spec.CombineWidth-1 || line != 0x140 || group != 7 {
		t.Fatalf("CombineWindow = (%d, %#x, %d), want (%d, 0x140, 7)",
			left, line, group, s.Spec.CombineWidth-1)
	}
}
