package memsys

import "testing"

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
