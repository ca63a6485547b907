package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

const suiteGoldenPath = "testdata/suite-scale0.02.txt"

// TestSuiteGolden regenerates the whole paper at scale 0.02 once with
// quiescent-cycle skipping (event) and once without (tick), printing it
// with the code `ddbench -exp all` prints with, and compares each run's
// bytes with the suite golden. Regenerate the golden only after a
// deliberate change to the timing model, the workloads or an experiment:
//
//	go run ./cmd/ddbench -exp all -scale 0.02 > internal/experiments/testdata/suite-scale0.02.txt
func TestSuiteGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the suite runs about 20 times slower under the race detector")
	}
	want, err := os.ReadFile(suiteGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []core.Engine{core.EngineEvent, core.EngineTick} {
		t.Run(e.String(), func(t *testing.T) {
			r := NewRunner(0.02)
			r.RunOpts.Engine = e
			var got bytes.Buffer
			if err := WriteReports(&got, r, AllExperiments()...); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				line, g, w := firstDiff(got.String(), string(want))
				t.Fatalf("suite output drifted from %s at line %d:\n got:  %q\n want: %q", suiteGoldenPath, line, g, w)
			}
		})
	}
}

// firstDiff returns the number of the first line where got and want
// differ, and each side's text there: "<end of output>" for a side that
// has already ended. got and want must differ.
func firstDiff(got, want string) (line int, g, w string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		g, w = "<end of output>", "<end of output>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
}
