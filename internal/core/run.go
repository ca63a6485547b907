package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/memsys"
	"repro/internal/simerr"
)

// DefaultWatchdogCycles is the forward-progress watchdog window used when
// RunOptions.WatchdogCycles is zero: a pipeline that commits nothing for
// this many consecutive cycles is declared livelocked. The value is far
// above any legitimate stall (the longest architectural delay is a few
// hundred cycles of memory latency and MSHR contention), so a fault-free
// run can never trip it.
const DefaultWatchdogCycles = 1_000_000

// ctxCheckInterval is how often the run loop polls the context for
// cancellation, in loop iterations; a power of two so the check compiles
// to a mask. A skipped gap is one iteration: it consumes no wall-clock
// time.
const ctxCheckInterval = 1 << 10

// cycleSlack is the legacy cycle safety budget: no workload should ever run
// below 1/100 IPC, so a run is aborted once now > 100*committed + slack.
const cycleSlack = 1_000_000

// Engine selects whether the run loop may skip quiescent cycles. Results
// are bit-identical under both settings (the quiescence invariant,
// DESIGN.md §12); EngineTick exists as the reference the differential
// tests compare EngineEvent against.
type Engine uint8

const (
	// EngineEvent (the default) skips: when two consecutive cycles make
	// no state transition, the clock jumps to the machine's next event
	// and the per-cycle counters are replayed across the gap.
	EngineEvent Engine = iota
	// EngineTick never skips: one cycle() per clock.
	EngineTick
)

// String returns "event" or "tick".
func (e Engine) String() string {
	if e == EngineTick {
		return "tick"
	}
	return "event"
}

// RunOptions bounds one simulation run. The zero value reproduces the
// historical Run() behaviour (no cycle cap, no deadline, default watchdog)
// bit-for-bit.
type RunOptions struct {
	// MaxCycles aborts the run with a KindMaxCycles SimError once the
	// cycle counter reaches it (0 = unbounded).
	MaxCycles uint64
	// Deadline aborts the run with a KindDeadline SimError once wall-clock
	// time passes it (zero = none). It composes with the context passed to
	// RunWith: whichever expires first wins.
	Deadline time.Time
	// WatchdogCycles is the forward-progress window: a run that commits no
	// instruction for this many consecutive cycles is aborted with a
	// KindWatchdog SimError carrying a pipeline snapshot. 0 selects
	// DefaultWatchdogCycles; use DisableWatchdog to turn the check off.
	WatchdogCycles uint64
	// DisableWatchdog turns the forward-progress check off entirely.
	DisableWatchdog bool
	// Engine selects whether the run loop skips quiescent cycles; the
	// zero value, EngineEvent, does.
	Engine Engine
}

// Run simulates until the program halts and the pipeline drains (or until
// the committed-instruction budget in the configuration is reached), then
// returns the collected statistics. Equivalent to RunWith with a background
// context and zero options.
func (c *Core) Run() (*Result, error) {
	return c.RunWith(context.Background(), RunOptions{})
}

// RunWith simulates like Run, bounded by ctx and opts:
// the run ends early — with a *simerr.SimError carrying a pipeline
// snapshot — when the context is cancelled, a deadline passes, the cycle
// cap is reached, or the forward-progress watchdog finds a livelocked
// pipeline. Any invariant-violation panic raised inside the simulator is
// contained and returned as the same error type. When nothing trips, the
// result is bit-identical to Run's.
func (c *Core) RunWith(ctx context.Context, opts RunOptions) (res *Result, err error) {
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}
	watchdog := opts.WatchdogCycles
	if watchdog == 0 {
		watchdog = DefaultWatchdogCycles
	}

	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &simerr.SimError{
				Kind:       simerr.KindPanic,
				Reason:     fmt.Sprint(p),
				PanicValue: p,
				Stack:      string(debug.Stack()),
				Snapshot:   c.snapshot(),
			}
		}
	}()

	return c.run(ctx, opts, watchdog)
}

// run is the cycle loop. With skipping enabled it executes cycles one by
// one until it has seen two consecutive quiescent cycles — cycles in which
// no state transition happened (c.progressed stayed false), only per-cycle
// stall counters and occupancy samples moved. The second such cycle is the
// *representative* cycle: by the quiescence invariant (DESIGN.md §12),
// every following cycle up to (exclusive) the machine's next event is its
// exact repetition. The loop therefore jumps the clock to one cycle before
// nextEvent and multiplies the representative cycle's counter deltas
// across the gap; the event cycle itself executes for real.
//
// Every abort boundary clamps the jump to land one cycle *before* it, so
// the boundary cycle also executes for real and the abort fires with the
// same cycle number, counters and pipeline snapshot as without skipping.
func (c *Core) run(ctx context.Context, opts RunOptions, watchdog uint64) (*Result, error) {
	skip := opts.Engine == EngineEvent
	lastCommitted, lastProgress := c.stats.Committed, c.now
	prevQuiet := false
	var iters uint64
	for !c.done() {
		canSkip := prevQuiet && skip
		if canSkip {
			c.snapStallCounters()
		}
		c.progressed = false
		c.cycle()
		quiet := !c.progressed
		if c.stats.Committed != lastCommitted {
			lastCommitted, lastProgress = c.stats.Committed, c.now
			c.lastCommitCycle = c.now
		} else if !opts.DisableWatchdog && c.now-lastProgress >= watchdog {
			return nil, c.abort(simerr.KindWatchdog,
				fmt.Sprintf("no instruction committed for %d cycles", watchdog), nil)
		}
		if opts.MaxCycles > 0 && c.now >= opts.MaxCycles {
			return nil, c.abort(simerr.KindMaxCycles,
				fmt.Sprintf("cycle cap %d reached", opts.MaxCycles), nil)
		}
		iters++
		if iters%ctxCheckInterval == 0 {
			if cerr := ctx.Err(); cerr != nil {
				kind := simerr.KindCanceled
				reason := "run canceled"
				if errors.Is(cerr, context.DeadlineExceeded) {
					kind, reason = simerr.KindDeadline, "deadline exceeded"
				}
				return nil, c.abort(kind, reason, cerr)
			}
		}
		// The budget aborts at the first cycle strictly greater than
		// budget; it also bounds every jump, which is what keeps a
		// pipeline with no next event polling the context.
		budget := 100*c.stats.Committed + cycleSlack
		if c.now > budget {
			return nil, c.abort(simerr.KindBudget,
				"cycle budget exhausted", ErrBudget)
		}

		if quiet && canSkip {
			// Land one cycle before the earliest of: the next event, the
			// watchdog boundary and the cycle cap; landing exactly on the
			// budget bound makes the next real cycle the aborting one.
			target := min(budget, c.nextEvent()-1)
			if !opts.DisableWatchdog {
				target = min(target, lastProgress+watchdog-1)
			}
			if opts.MaxCycles > 0 {
				target = min(target, opts.MaxCycles-1)
			}
			if target > c.now {
				c.skipTo(target)
			}
		}
		prevQuiet = quiet
	}
	return c.result(), nil
}

// nextEvent returns the earliest cycle after now at which some stage can
// make a transition that the current quiet cycle did not: the soonest of
// the timestamps the stages compare against the clock, or ^uint64(0) when
// none lies ahead. Those are the commit head's readyAt, each issue-list
// entry's operand bound (issueWake), each pending access's address,
// store-data and sleep bounds (addrAt, valueAt, memWake), the next fill
// of each stream cache that refused an access this cycle (a fill ends
// only such a wait) and the end of a recovery stall. Every other wait
// ends with another stage's transition. The sleep sentinels
// (memSleepAgen, memSleepPush) lie beyond any budget, so they read as no
// event. A stage that starts comparing a new timestamp against
// the clock must add it here, or the skip jumps past it
// (TestQuietCyclesKeepTheirPromise).
//
//ddvet:hotpath
func (c *Core) nextEvent() uint64 {
	now := c.now
	next := after(now, c.dispatchStallUntil)
	if c.robN > 0 {
		next = min(next, after(now, c.robAt(0).readyAt))
	}
	for u := c.issueHead; u != nil; u = u.issueNext {
		next = min(next, after(now, u.issueWake))
	}
	for _, s := range c.streams {
		if t := s.Cache.NextFillDone(now); t > 0 {
			next = min(next, t)
		}
		for u := s.pendHead; u != nil; u = u.pendNext[s.ID] {
			next = min(next, after(now, u.addrAt), after(now, u.valueAt), after(now, u.memWake))
		}
	}
	return next
}

// after returns t if it lies after now, and otherwise ^uint64(0), the
// "no event" that min passes over.
func after(now, t uint64) uint64 {
	if t > now {
		return t
	}
	return ^uint64(0)
}

// stallSnapshot holds the counters that a quiescent cycle may still
// increment. Everything else the simulator counts only moves on a state
// transition (which sets c.progressed and forbids skipping), so this set —
// and only this set — must be replayed across a skipped gap.
type stallSnapshot struct {
	loadOrder, partialOverlap, fu, robFull, queueFull, recovery uint64
	// predicted moves with queueFull: a queue-full stall re-steers its
	// access every cycle, and a predictor-steered one counts each time.
	predicted uint64
	streams   [memsys.MaxStreams]streamStallSnap
}

type streamStallSnap struct {
	loadPort, storePort, loadMSHR, storeMSHR, combined, rejected uint64
}

// snapStallCounters records the pre-cycle values of the quiescent-cycle
// counters so skipTo can compute what one representative cycle added.
func (c *Core) snapStallCounters() {
	s := &c.stallSnap
	s.loadOrder = c.stats.LoadOrderStalls
	s.partialOverlap = c.stats.PartialOverlapStalls
	s.fu = c.stats.FUStalls
	s.robFull = c.stats.ROBFullStalls
	s.queueFull = c.stats.QueueFullStalls
	s.recovery = c.stats.RecoveryStallCycles
	s.predicted = c.stats.PredictedSteers
	for i, st := range c.streams {
		ss := &s.streams[i]
		ss.loadPort = st.Stats.LoadPortStalls
		ss.storePort = st.Stats.StorePortStalls
		ss.loadMSHR = st.Stats.LoadMSHRStalls
		ss.storeMSHR = st.Stats.StoreMSHRStalls
		ss.combined = st.Stats.Combined
		ss.rejected = st.Cache.Stats.Rejected
	}
}

// skipTo advances the clock from the just-executed representative cycle to
// target without executing the cycles in between: each would have repeated
// the representative cycle exactly, so its counter deltas (current value
// minus the pre-cycle snapshot) are multiplied across the gap, and so are
// its occupancy samples, the ROB's and each queue's length, which no quiet
// cycle changes.
//
//ddvet:hotpath
func (c *Core) skipTo(target uint64) {
	span := target - c.now
	s := &c.stallSnap
	c.stats.LoadOrderStalls += span * (c.stats.LoadOrderStalls - s.loadOrder)
	c.stats.PartialOverlapStalls += span * (c.stats.PartialOverlapStalls - s.partialOverlap)
	c.stats.FUStalls += span * (c.stats.FUStalls - s.fu)
	c.stats.ROBFullStalls += span * (c.stats.ROBFullStalls - s.robFull)
	c.stats.QueueFullStalls += span * (c.stats.QueueFullStalls - s.queueFull)
	c.stats.RecoveryStallCycles += span * (c.stats.RecoveryStallCycles - s.recovery)
	c.stats.PredictedSteers += span * (c.stats.PredictedSteers - s.predicted)
	c.stats.ROBOccupancy += span * uint64(c.robN)
	for i, st := range c.streams {
		ss := &s.streams[i]
		st.Stats.LoadPortStalls += span * (st.Stats.LoadPortStalls - ss.loadPort)
		st.Stats.StorePortStalls += span * (st.Stats.StorePortStalls - ss.storePort)
		st.Stats.LoadMSHRStalls += span * (st.Stats.LoadMSHRStalls - ss.loadMSHR)
		st.Stats.StoreMSHRStalls += span * (st.Stats.StoreMSHRStalls - ss.storeMSHR)
		st.Stats.Combined += span * (st.Stats.Combined - ss.combined)
		st.Cache.Stats.Rejected += span * (st.Cache.Stats.Rejected - ss.rejected)
		st.Stats.Occupancy += span * uint64(st.n)
	}
	c.now = target
	c.stats.Cycles = target
}

// abort builds the typed error for an abnormal end of the run.
func (c *Core) abort(kind simerr.Kind, reason string, cause error) *simerr.SimError {
	return &simerr.SimError{
		Kind:     kind,
		Reason:   reason,
		Snapshot: c.snapshot(),
		Err:      cause,
	}
}

// snapshot captures the pipeline state for a SimError. It only reads, so it
// is safe to call even from the panic-recovery path where the machine state
// may be mid-cycle.
func (c *Core) snapshot() simerr.Snapshot {
	s := simerr.Snapshot{
		Cycle:           c.now,
		Committed:       c.stats.Committed,
		LastCommitCycle: c.lastCommitCycle,
		ROBLen:          c.robN,
		ROBCap:          c.cfg.ROBSize,
	}
	if c.robN > 0 {
		s.ROBHead = entryState(c.robAt(0))
	}
	for _, st := range c.streams {
		left, line, group := st.CombineWindow()
		ss := simerr.StreamState{
			Name:         st.Spec.Name,
			Len:          st.n,
			Cap:          st.Spec.QueueSize,
			Ports:        st.Ports.Limit(),
			PortsInUse:   st.Ports.InUse(),
			CombineLeft:  left,
			CombineLine:  line,
			CombineGroup: group,
		}
		if st.n > 0 {
			ss.Head = entryState(st.at(0))
		}
		s.Streams = append(s.Streams, ss)
	}
	return s
}

func entryState(u *uop) *simerr.EntryState {
	return &simerr.EntryState{
		Seq:          u.seq,
		PC:           u.ef.PC,
		Text:         u.ef.Inst.String(),
		IsLoad:       u.isMem && u.isLoad,
		IsStore:      u.isMem && !u.isLoad,
		Stream:       u.stream,
		AddrKnown:    u.addrKnown,
		Addr:         u.ef.Addr,
		Issued:       u.issued,
		Completed:    u.completed,
		DispatchedAt: u.dispatchedAt,
	}
}
