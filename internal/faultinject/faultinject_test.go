package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/simerr"
	"repro/internal/workload"
)

func testConfig() config.Config {
	return config.Default().WithPorts(2, 2).WithOptimizations(2)
}

func run(t *testing.T, wname string, scale float64, inj *Injector, opts core.RunOptions) (*core.Result, error) {
	t.Helper()
	w, err := workload.ByName(wname)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(w.Program(scale), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		opts.Injector = inj
	}
	return c.RunWith(context.Background(), opts)
}

func TestFaultString(t *testing.T) {
	if got := (DropGrant | FlipSteer).String(); got != "drop-grant+flip-steer" {
		t.Errorf("String() = %q", got)
	}
	if got := Fault(0).String(); got != "none" {
		t.Errorf("String() = %q", got)
	}
}

// Equal seeds must replay the identical fault campaign: same delivered
// fault counts, same cycle count, bit for bit.
func TestInjectorDeterminism(t *testing.T) {
	var cycles [2]uint64
	var stats [2]Stats
	for i := range cycles {
		inj := New(42, Params{Faults: Recoverable})
		res, err := run(t, "li", 0.02, inj, core.RunOptions{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		cycles[i], stats[i] = res.Cycles, inj.Stats()
	}
	if cycles[0] != cycles[1] {
		t.Errorf("cycle counts differ across identical seeds: %d vs %d", cycles[0], cycles[1])
	}
	if stats[0] != stats[1] {
		t.Errorf("fault stats differ across identical seeds:\n%+v\n%+v", stats[0], stats[1])
	}

	inj := New(43, Params{Faults: Recoverable})
	res, err := run(t, "li", 0.02, inj, core.RunOptions{})
	if err != nil {
		t.Fatalf("seed 43: %v", err)
	}
	if res.Cycles == cycles[0] && inj.Stats() == stats[0] {
		t.Error("different seed delivered the identical campaign (suspicious)")
	}
}

// Each recoverable fault kind alone must perturb the run (deliver faults,
// change the cycle count) without changing the architectural result.
func TestRecoverableFaultsPreserveArchitecture(t *testing.T) {
	base, err := run(t, "compress", 0.02, nil, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{DropGrant, BurstStall, FlipSteer, QueuePressure, Recoverable} {
		t.Run(f.String(), func(t *testing.T) {
			inj := New(7, Params{Faults: f})
			res, err := run(t, "compress", 0.02, inj, core.RunOptions{})
			if err != nil {
				t.Fatalf("run under %s: %v", f, err)
			}
			if !inj.Delivered() {
				t.Fatalf("campaign %s delivered no faults: %+v", f, inj.Stats())
			}
			if res.Committed != base.Committed {
				t.Errorf("committed %d, want %d", res.Committed, base.Committed)
			}
			if len(res.Output) != len(base.Output) {
				t.Fatalf("output length %d, want %d", len(res.Output), len(base.Output))
			}
			for i := range base.Output {
				if res.Output[i] != base.Output[i] {
					t.Fatalf("output[%d] = %d, want %d", i, res.Output[i], base.Output[i])
				}
			}
			for i := range base.FOutput {
				if res.FOutput[i] != base.FOutput[i] {
					t.Fatalf("foutput[%d] = %g, want %g", i, res.FOutput[i], base.FOutput[i])
				}
			}
			if res.Cycles == base.Cycles {
				t.Errorf("cycle count unchanged under %s (faults did not bite)", f)
			}
		})
	}
}

// CommitDesync is the unrecoverable fault: it must end in a contained
// KindPanic SimError naming the stream-head invariant, never a process
// crash.
func TestCommitDesyncIsContained(t *testing.T) {
	inj := New(3, Params{Faults: CommitDesync, DesyncAfter: 25})
	_, err := run(t, "vortex", 0.02, inj, core.RunOptions{})
	if err == nil {
		t.Fatal("desync run succeeded, want a contained panic")
	}
	var se *simerr.SimError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *simerr.SimError: %v", err, err)
	}
	if se.Kind != simerr.KindPanic {
		t.Fatalf("kind = %s, want %s", se.Kind, simerr.KindPanic)
	}
	if !strings.Contains(se.Reason, "not its stream's head") {
		t.Errorf("reason %q does not name the stream-head invariant", se.Reason)
	}
	if inj.Stats().Desyncs != 1 {
		t.Errorf("Desyncs = %d, want 1", inj.Stats().Desyncs)
	}
}
