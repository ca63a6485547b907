package srccheck

import "testing"

// TestParseEscapes: only heap-relevant diagnostics survive; inlining
// chatter, does-not-escape lines, and non-diagnostic output are dropped.
func TestParseEscapes(t *testing.T) {
	out := []byte(`# repro/internal/emu
internal/emu/emu.go:19:13: make([]uint64, n) escapes to heap
internal/emu/emu.go:12:6: can inline Wakes
internal/emu/emu.go:18:6: n does not escape
internal/core/core.go:7:2: moved to heap: t
go: downloading something irrelevant
internal/core/core.go:9:10: func literal escapes to heap
`)
	diags := ParseEscapes(out)
	if len(diags) != 3 {
		t.Fatalf("ParseEscapes: %d diags, want 3: %+v", len(diags), diags)
	}
	want := []EscapeDiag{
		{File: "internal/emu/emu.go", Line: 19, Col: 13, Msg: "make([]uint64, n) escapes to heap"},
		{File: "internal/core/core.go", Line: 7, Col: 2, Msg: "moved to heap: t"},
		{File: "internal/core/core.go", Line: 9, Col: 10, Msg: "func literal escapes to heap"},
	}
	for i, w := range want {
		if diags[i] != w {
			t.Errorf("diag[%d] = %+v, want %+v", i, diags[i], w)
		}
	}
}
