package emu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/effects-scale0.05.txt")

const (
	effectGoldenScale = 0.05
	effectGoldenPath  = "testdata/effects-scale0.05.txt"
	// effectGoldenCap bounds a run that fails to halt.
	effectGoldenCap = 50_000_000
)

// appendEffect encodes every field of ef, little-endian, in declaration
// order. TestEffectStreamGolden checks that Effect and isa.Inst still have
// exactly the fields encoded here.
func appendEffect(b []byte, ef *Effect) []byte {
	b = binary.LittleEndian.AppendUint32(b, ef.PC)
	b = append(b, byte(ef.Inst.Op), byte(ef.Inst.Rd), byte(ef.Inst.Rs), byte(ef.Inst.Rt))
	b = binary.LittleEndian.AppendUint32(b, uint32(ef.Inst.Imm))
	b = append(b, byte(ef.Inst.Hint))
	b = binary.LittleEndian.AppendUint32(b, ef.NextPC)
	b = binary.LittleEndian.AppendUint32(b, ef.Addr)
	b = append(b, ef.Bytes, b2b(ef.Taken))
	return b
}

func b2b(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// effectDigest runs w at the golden scale to HALT, stepping with StepInto
// into one reused Effect, and returns the instruction count and the sha256
// of the effect stream followed by InstCount, Output, FOutput and the
// final register files.
func effectDigest(t *testing.T, w workload.Workload) (uint64, string) {
	t.Helper()
	m := New(w.Program(effectGoldenScale))
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	var ef Effect
	for !m.Halted {
		if m.InstCount >= effectGoldenCap {
			t.Fatalf("%s: no HALT within %d instructions", w.Name, uint64(effectGoldenCap))
		}
		if err := m.StepInto(&ef); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		buf = appendEffect(buf, &ef)
		if len(buf) > cap(buf)-64 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, m.InstCount)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.Output)))
	for _, v := range m.Output {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.FOutput)))
	for _, v := range m.FOutput {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range m.GPR {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range m.FPR {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
	return m.InstCount, hex.EncodeToString(h.Sum(nil))
}

// TestEffectStreamGolden pins the emulator's architectural behaviour on
// every workload: each effect it writes, field by field, and the final
// machine state. The golden was recorded before the emulator's fetch,
// effect write and memory lookup were rewritten for speed, so any change
// in what the emulator computes — not only in what the programs print —
// fails here. Regenerate with -update only after a deliberate change to
// the ISA's semantics or to the workloads.
func TestEffectStreamGolden(t *testing.T) {
	fieldsOf := func(v any) string {
		rt := reflect.TypeOf(v)
		names := make([]string, rt.NumField())
		for i := range names {
			names[i] = rt.Field(i).Name
		}
		return strings.Join(names, ",")
	}
	if got, want := fieldsOf(Effect{}), "PC,Inst,NextPC,Addr,Bytes,Taken"; got != want {
		t.Fatalf("Effect fields are %s, appendEffect encodes %s: extend it and regenerate", got, want)
	}
	if got, want := fieldsOf(isa.Inst{}), "Op,Rd,Rs,Rt,Imm,Hint"; got != want {
		t.Fatalf("isa.Inst fields are %s, appendEffect encodes %s: extend it and regenerate", got, want)
	}

	var b strings.Builder
	b.WriteString("# workload instructions sha256(effect stream, InstCount, Output, FOutput, GPR, FPR)\n")
	for _, w := range workload.All() {
		n, sum := effectDigest(t, w)
		fmt.Fprintf(&b, "%s %d %s\n", w.Name, n, sum)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(effectGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(effectGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("effect stream drifted from %s\ngot:\n%s\nwant:\n%s", effectGoldenPath, got, want)
	}
}
