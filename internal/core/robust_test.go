package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/simerr"
)

// stubInjector is a minimal FaultInjector for targeted robustness tests.
type stubInjector struct {
	denyAll  bool   // deny every port grant (livelocks the first load)
	desyncAt uint64 // corrupt the n-th memory commit-head encounter (0 = never)
	seen     uint64
	fired    bool
}

func (s *stubInjector) BeginCycle(uint64)                   {}
func (s *stubInjector) FlipSteer(_ uint32, local bool) bool { return local }
func (s *stubInjector) QueueCap(_, arch int) int            { return arch }
func (s *stubInjector) AllowGrant(int, uint32, bool) bool   { return !s.denyAll }

func (s *stubInjector) CommitDesync(uint64) bool {
	if s.desyncAt == 0 || s.fired {
		return false
	}
	s.seen++
	if s.seen < s.desyncAt {
		return false
	}
	s.fired = true
	return true
}

func runWith(t *testing.T, src string, cfg config.Config, opts RunOptions) (*Result, error) {
	t.Helper()
	c, err := New(compile(t, src), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.SetFaultInjector(opts.Injector)
	return c.RunWith(context.Background(), opts)
}

func asSimError(t *testing.T, err error, want simerr.Kind) *simerr.SimError {
	t.Helper()
	if err == nil {
		t.Fatalf("run succeeded, want a %s SimError", want)
	}
	var se *simerr.SimError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T) is not a *simerr.SimError", err, err)
	}
	if se.Kind != want {
		t.Fatalf("SimError kind = %s, want %s (err: %v)", se.Kind, want, se)
	}
	return se
}

// RunWith with zero options must be the same simulation as Run,
// cycle for cycle.
func TestRunWithZeroOptionsBitIdentical(t *testing.T) {
	cfg := config.Default().WithPorts(2, 2).WithOptimizations(2)
	base := simulate(t, compile(t, fibProgram), cfg)

	c, err := New(compile(t, fibProgram), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.RunWith(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if res.Cycles != base.Cycles || res.Committed != base.Committed {
		t.Errorf("RunWith = %d cycles / %d committed, Run = %d / %d",
			res.Cycles, res.Committed, base.Cycles, base.Committed)
	}
}

func TestMaxCyclesBoundsRun(t *testing.T) {
	const src = "\t.text\nmain:\nloop:\n\tj loop\n"
	_, err := runWith(t, src, config.Default(), RunOptions{MaxCycles: 5000})
	se := asSimError(t, err, simerr.KindMaxCycles)
	if se.Snapshot.Cycle != 5000 {
		t.Errorf("aborted at cycle %d, want 5000", se.Snapshot.Cycle)
	}
}

func TestContextCancelAbortsRun(t *testing.T) {
	const src = "\t.text\nmain:\nloop:\n\tj loop\n"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := New(compile(t, src), config.Default())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = c.RunWith(ctx, RunOptions{})
	se := asSimError(t, err, simerr.KindCanceled)
	if !errors.Is(se, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false, err = %v", se)
	}
}

func TestDeadlineAbortsRun(t *testing.T) {
	const src = "\t.text\nmain:\nloop:\n\tj loop\n"
	_, err := runWith(t, src, config.Default(),
		RunOptions{Deadline: time.Now().Add(-time.Second)})
	se := asSimError(t, err, simerr.KindDeadline)
	if !errors.Is(se, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false, err = %v", se)
	}
}

// A pipeline whose head load can never win a cache port commits nothing;
// the forward-progress watchdog must abort it with a snapshot instead of
// letting it spin to the cycle budget.
func TestWatchdogTripsOnLivelock(t *testing.T) {
	const src = `
        .text
main:
        lw  $t0, 0($sp)
        out $t0
        halt
`
	_, err := runWith(t, src, config.Default(),
		RunOptions{WatchdogCycles: 2000, Injector: &stubInjector{denyAll: true}})
	se := asSimError(t, err, simerr.KindWatchdog)
	snap := se.Snapshot
	if snap.ROBHead == nil || !snap.ROBHead.IsLoad {
		t.Fatalf("snapshot ROB head = %+v, want the stuck load", snap.ROBHead)
	}
	if len(snap.Streams) == 0 || snap.Streams[0].Len == 0 {
		t.Fatalf("snapshot streams = %+v, want the load queued in stream 0", snap.Streams)
	}
	if !strings.Contains(se.Error(), "watchdog") {
		t.Errorf("Error() = %q, want it to name the watchdog", se.Error())
	}
	if s := snap.String(); !strings.Contains(s, "ROB") || !strings.Contains(s, "LSQ") {
		t.Errorf("snapshot render missing ROB/stream lines:\n%s", s)
	}
}

// The watchdog can be disabled; the legacy IPC budget then catches the
// livelock instead (still as a typed error).
func TestDisabledWatchdogFallsBackToBudget(t *testing.T) {
	const src = `
        .text
main:
        lw  $t0, 0($sp)
        halt
`
	_, err := runWith(t, src, config.Default(),
		RunOptions{DisableWatchdog: true, Injector: &stubInjector{denyAll: true}})
	se := asSimError(t, err, simerr.KindBudget)
	if !errors.Is(se, ErrBudget) {
		t.Errorf("errors.Is(err, ErrBudget) = false, err = %v", se)
	}
}

// An injected stream-bookkeeping corruption must be caught by the
// head-only invariants of the core's memory queues and contained into a
// KindPanic SimError instead of crashing the process.
func TestPanicContainmentOnCommitDesync(t *testing.T) {
	cfg := config.Default().WithPorts(2, 2)
	_, err := runWith(t, fibProgram, cfg,
		RunOptions{Injector: &stubInjector{desyncAt: 1}})
	se := asSimError(t, err, simerr.KindPanic)
	if !strings.Contains(se.Reason, "not its stream's head") {
		t.Errorf("panic reason %q does not name the stream-head invariant", se.Reason)
	}
	if se.Stack == "" {
		t.Error("contained panic carries no stack trace")
	}
	if len(se.Snapshot.Streams) != 2 {
		t.Errorf("snapshot has %d streams, want 2", len(se.Snapshot.Streams))
	}
	if se.Snapshot.Cycle == 0 {
		t.Error("snapshot cycle is zero")
	}
}
