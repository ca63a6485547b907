// Package core implements the paper's primary contribution: a
// cycle-accurate, execution-driven out-of-order superscalar processor model
// with a data-decoupled memory system.
//
// The pipeline follows the Register Update Unit (RUU) organization of
// SimpleScalar's sim-outorder, with the six stages of the paper's machine
// model (fetch, dispatch, issue, execute, writeback, commit). The front end
// is perfect (perfect I-cache, oracle branch prediction), so fetch follows
// the architectural path supplied by the functional emulator and
// instructions execute functionally at dispatch; the timing model replays
// their register and memory dependences and latencies.
//
// Data decoupling (paper §2): at dispatch, memory instructions are steered
// into one of N independent memory streams (internal/memsys) — in the
// paper's configuration the conventional load/store queue (LSQ) in front
// of the L1 data cache, and the local variable access queue (LVAQ) in
// front of the small local variable cache (LVC). Load/store ordering is
// enforced within each stream only. The two LVAQ optimizations of §2.2.2
// are implemented: fast data forwarding (offset-based store→load bypass
// before address generation) and access combining (one LVC port grant
// serves up to N consecutive same-line accesses).
package core

import (
	"errors"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sched"
	"repro/internal/tlb"
)

// uop is one in-flight instruction (an RUU entry).
type uop struct {
	// The issue walk's gate quartet leads the struct so that skipping a
	// not-yet-eligible entry touches a single cache line: the list link,
	// the dispatch cycle, the count of in-flight producers, and the
	// operand-arrival bound (see the wakeup-push block below).
	issueNext    *uop
	dispatchedAt uint64
	depsPending  int8
	issueWake    uint64

	seq   uint64
	ef    emu.Effect
	class isa.Class
	// dest/hasDest cache the decoded destination register, so commit and
	// the rename rebuild after a squash never re-decode the instruction.
	dest    isa.Reg
	hasDest bool

	issued    bool // has consumed its issue slot (agen for memory ops)
	completed bool // result computed / store ready to commit
	readyAt   uint64

	// Memory state.
	isMem, isLoad bool
	stream        int // primary stream index (memsys)
	addrKnown     bool
	addrAt        uint64 // cycle the effective address becomes available
	valueAt       uint64 // stores: data usable from this cycle on (watchStoreValue)
	accessDone    bool   // load has obtained its data (cache or forward)
	fwdFrom       *uop

	// Fast-forwarding key (§2.2.2): base register identity, the
	// stack-generation tag current at dispatch, and the offset field.
	baseReg isa.Reg
	spGen   uint64
	// combineGroup is the static combining-group id of this PC
	// (memsys.GroupNone when the dependence analysis proved none).
	combineGroup int
	// spGenAfter is the core's stack generation after this instruction
	// dispatched (used to restore it on a squash).
	spGenAfter uint64

	misrouted bool // address resolved to the wrong stream; recovery done
	// dual marks an ambiguous access inserted into both streams
	// (SteerDual); cleared when the address resolves and the wrong copy
	// is killed.
	dual bool
	// spec marks an access steered to the local stream on a
	// speculate-local assignment (SteerSpec) rather than a proof; a
	// misroute of such a uop is a misspeculation, tallied separately.
	spec bool

	issuedAt      uint64
	combined      bool
	fastForwarded bool

	// Fast-forward scan memo (tryFastForward): ffState caches the last
	// scan's outcome until dual resolution clears it (wakeStream). ffCand
	// is the matched store whose value the load is waiting on in the
	// ffWaiting state.
	ffState uint8
	ffCand  *uop

	// Order-scan memo (processLoad): the §3.1 scan's verdict, cached until
	// dual resolution clears it (wakeStream). osCand is the store the
	// verdict hinges on — the unresolved store blocking the load
	// (osStallAddr), the matched store whose value is awaited
	// (osFwdWait), or the partially overlapping store being waited out
	// (osPartial).
	osState uint8
	osCand  *uop

	// Backward link and membership flag of the not-yet-issued list
	// (issueStage); the forward link leads the struct. The list holds
	// every ROB entry that is neither issued nor completed, in program
	// order.
	issuePrev *uop
	inIssueQ  bool

	// Per-stream queue bookkeeping: the entry's position ticket in each
	// stream's queue and whether it occupies that queue (stream.ring).
	qTick [memsys.MaxStreams]uint64
	inQ   [memsys.MaxStreams]bool

	// Intrusive links of the per-stream pending-access lists
	// (processStream): for each stream whose queue holds this entry and
	// for which pendingAccess is still true, the neighbours in program
	// order. A dual-steered access is linked in both its streams.
	pendNext, pendPrev [memsys.MaxStreams]*uop
	inPend             [memsys.MaxStreams]bool

	// memWake lets the pending-access walk skip a load whose every
	// memory-stage visit is provably a no-op until this cycle: a
	// pre-address load with no bypass upside (fast forwarding disabled,
	// or an ffBlocked memo) does nothing until its own address
	// generation. Zero means awake; memSleepAgen means asleep until the
	// entry's own issue rewrites the bound to addrAt. Dual resolution,
	// which clears the fast-forward memo a bound may rest on, wakes both
	// streams (wakeStream).
	memWake uint64

	// Dependence wakeup (issueStage): as in sim-outorder, a consumer
	// keeps no pointer to its producers. It counts the incomplete
	// producers gating its issue (depsPending) and carries the latest
	// known operand-arrival bound (issueWake); each producer records its
	// waiting consumers and pushes its readyAt once, at completion.
	// pushReady filters stale records by allocGen, so squash paths never
	// edit waiter lists.
	waiters  []waitRef
	allocGen uint32
}

// waitRef names one registered wait of consumer w, valid only while w is
// still the same allocation, and what the producer's event delivers.
type waitRef struct {
	w    *uop
	gen  uint32
	kind uint8
}

// Wait kinds: what an event of the producer delivers to consumer w.
const (
	waitIssue      uint8 = iota // an operand gating w's issue: depsPending, issueWake
	waitStoreValue              // store w's data, which gates only its completion: valueAt, memWake
	waitFwdValue                // the data arrival of the store load w would forward from: memWake
)

// Fast-forward memo states.
const (
	ffNone    uint8 = iota // no cached scan; do the full walk
	ffBlocked              // scan concluded "no bypass" for structural reasons
	ffWaiting              // matched store found; waiting for its value
)

// memSleepAgen is the memWake bound of an entry asleep until its own
// address generation: no fixed cycle is known yet, so the entry's issue
// (which computes addrAt) rewrites the bound. memSleepPush marks an
// entry asleep until an external delivery — a producer's completion
// push or a forwarding store's value transition — clears or rewrites
// the bound.
const (
	memSleepAgen = ^uint64(0)
	memSleepPush = ^uint64(0) - 1
)

// Order-scan memo states.
const (
	osNone      uint8 = iota // no cached scan; do the full walk
	osStallAddr              // blocked on osCand's unknown address
	osFwdWait                // forwarding from osCand once its value is ready
	osPartial                // waiting for partially-overlapping osCand to drain
	osClear                  // scan passed: go straight to the port/cache
)

// pendingAccess reports whether the entry still has memory-stage work:
// a store whose operands are not yet complete, or a load that has not
// obtained its data. Entries for which this is false are inert in
// processStream's walk.
func (u *uop) pendingAccess() bool {
	if u.isLoad {
		return !u.accessDone
	}
	return !u.completed
}

// TraceEvent is the per-instruction pipeline timeline delivered to a
// Tracer. All cycle stamps are absolute; zero means "did not happen".
type TraceEvent struct {
	Seq   uint64
	PC    uint32
	Inst  isa.Inst
	Queue string // stream name ("LSQ", "LVAQ") or "" for non-memory ops
	Addr  uint32 // effective address for memory instructions

	DispatchedAt uint64
	IssuedAt     uint64
	AddrAt       uint64 // address generation done (memory ops)
	ReadyAt      uint64 // result available
	CommittedAt  uint64

	Squashed      bool // re-dispatched later by misroute recovery
	Misrouted     bool
	Forwarded     bool // value came from an older store in the queue
	FastForwarded bool
	Combined      bool // access rode a shared port grant
}

// Tracer observes retired (and squashed) instructions. Implementations
// must be fast; Trace is called once per instruction.
type Tracer interface {
	Trace(ev TraceEvent)
}

// SetTracer installs a pipeline tracer (nil disables tracing).
func (c *Core) SetTracer(t Tracer) { c.tracer = t }

func (c *Core) emitTrace(u *uop, committedAt uint64, squashed bool) {
	if c.tracer == nil {
		return
	}
	ev := TraceEvent{
		Seq:           u.seq,
		PC:            u.ef.PC,
		Inst:          u.ef.Inst,
		Addr:          u.ef.Addr,
		DispatchedAt:  u.dispatchedAt,
		IssuedAt:      u.issuedAt,
		ReadyAt:       u.readyAt,
		CommittedAt:   committedAt,
		Squashed:      squashed,
		Misrouted:     u.misrouted,
		Forwarded:     u.fwdFrom != nil && !u.accessedFast(),
		FastForwarded: u.accessedFast(),
		Combined:      u.combined,
	}
	if u.isMem {
		ev.Queue = c.streams[u.stream].Spec.Name
		ev.AddrAt = u.addrAt
	}
	c.tracer.Trace(ev)
}

// accessedFast reports whether the uop's value came via the offset-based
// fast path (before address generation).
func (u *uop) accessedFast() bool {
	return u.fwdFrom != nil && u.fastForwarded
}

func (u *uop) overlaps(v *uop) bool {
	a0, a1 := u.ef.Addr, u.ef.Addr+uint32(u.ef.Bytes)
	b0, b1 := v.ef.Addr, v.ef.Addr+uint32(v.ef.Bytes)
	return a0 < b1 && b0 < a1
}

func (u *uop) sameAccess(v *uop) bool {
	return u.ef.Addr == v.ef.Addr && u.ef.Bytes == v.ef.Bytes
}

// Core is one simulated processor running one program.
type Core struct {
	cfg config.Config
	emu *emu.Machine

	// streams are the memory access streams, each a memsys stream and
	// the core's queue in front of it (queue.go); stream 0 is the
	// conventional LSQ/L1 stream. localIdx and nonlocalIdx name the
	// steering targets for local and non-local classifications.
	streams     []*stream
	localIdx    int
	nonlocalIdx int

	l2  *cache.Cache
	mem *cache.MainMemory

	now uint64
	seq uint64

	// rob is the reorder buffer as a preallocated power-of-two ring;
	// position 0 (robAt(0)) is the commit head. A ring rather than a
	// sliding slice so the steady-state hot loop never reallocates.
	rob     []*uop
	robHead int
	robN    int

	// robOccSynced is the last cycle folded into stats.ROBOccupancy (lazy
	// interval accumulation; the legacy sample point is the end of the
	// cycle, so mutations sync through now-1 and the result flushes
	// through the final cycle).
	robOccSynced uint64

	// freeUops recycles retired RUU entries; together with the rings it
	// keeps the steady-state dispatch/replay path allocation-free.
	freeUops []*uop

	// issueHead/issueTail hold the not-yet-issued ROB entries in program
	// order (an intrusive doubly-linked list), so issueStage walks only
	// the entries that can still consume an issue slot instead of the
	// whole ROB ring.
	issueHead, issueTail *uop

	// sched collects future wake cycles (fill completions, agen latency,
	// recovery-stall expiry, MSHR frees) for the event-driven engine;
	// progressed is set by any state transition during the current cycle
	// and cleared by the run loop. A cycle that ends with progressed false
	// changed nothing but per-cycle stall counters, which is what licenses
	// skipping ahead (DESIGN.md §12).
	sched      sched.Sched
	progressed bool
	stallSnap  stallSnapshot

	// renameTable maps each architectural register to its most recent
	// in-flight producer.
	renameTable [isa.NumRegs]*uop

	// spGen is bumped whenever an instruction writing $sp or $fp
	// dispatches; it delimits stack frames for fast data forwarding.
	spGen uint64

	// text is the decode table: one pre-decoded entry per instruction of
	// the program's text segment, indexed by (pc - textBase) / InstBytes
	// (see decode.go).
	text     []decoded
	textBase uint32

	// annotTLB, when non-nil, is the §2.1 annotation TLB: steering
	// verification waits for its fill on a miss.
	annotTLB *tlb.TLB

	tracer Tracer

	// fi, when non-nil, perturbs the run at the FaultInjector hook points
	// (see run.go); lastCommitCycle feeds the failure snapshot.
	fi              FaultInjector
	lastCommitCycle uint64

	dispatchStallUntil uint64
	fetchDone          bool // emulator halted or instruction budget reached
	// fetchQ is the fetch deque: the architectural effects fetched but
	// not yet dispatched, oldest first, as a power-of-two ring. Dispatch
	// reads the front in place and pops it only when the instruction
	// dispatches, so a stalled effect simply stays at the front; a
	// misroute squash prepends the squashed window (the emulator is never
	// re-run); an empty deque is refilled in place by the emulator.
	// Every undispatched effect lives here, so program order holds by
	// construction.
	fetchQ    []emu.Effect
	fetchHead int
	fetchN    int

	stats Stats
}

// ---------------------------------------------------------- ROB ring

func (c *Core) robAt(i int) *uop { return c.rob[(c.robHead+i)&(len(c.rob)-1)] }

// robPush appends a dispatching entry. Dispatch stops at ROBSize entries
// and the ring holds at least that many, so it cannot overflow.
func (c *Core) robPush(u *uop) {
	c.syncROBOcc()
	if c.robN == len(c.rob) {
		panic(errROBOverflow)
	}
	c.rob[(c.robHead+c.robN)&(len(c.rob)-1)] = u
	c.robN++
}

func (c *Core) robPopHead() *uop {
	c.syncROBOcc()
	u := c.rob[c.robHead]
	c.rob[c.robHead] = nil
	c.robHead = (c.robHead + 1) & (len(c.rob) - 1)
	c.robN--
	return u
}

// robTruncate drops every entry at position >= n (the squashed suffix).
func (c *Core) robTruncate(n int) {
	c.syncROBOcc()
	mask := len(c.rob) - 1
	for i := n; i < c.robN; i++ {
		c.rob[(c.robHead+i)&mask] = nil
	}
	c.robN = n
}

// syncROBOcc folds the cycles since the last ROB length change into the
// occupancy integral. The legacy per-cycle sample point is the end of the
// cycle, so a mutation during cycle now accumulates through now-1 at the
// old length; the current cycle itself is folded in by the next mutation
// (or the final flush) at the post-mutation length.
func (c *Core) syncROBOcc() {
	if c.now > 0 && c.now-1 > c.robOccSynced {
		c.stats.ROBOccupancy += (c.now - 1 - c.robOccSynced) * uint64(c.robN)
		c.robOccSynced = c.now - 1
	}
}

// flushROBOcc completes the integral through the final cycle; called once
// when the result is built.
func (c *Core) flushROBOcc() {
	if c.now > c.robOccSynced {
		c.stats.ROBOccupancy += (c.now - c.robOccSynced) * uint64(c.robN)
		c.robOccSynced = c.now
	}
}

// -------------------------------------------------------- fetch deque

// fetchFront returns the oldest effect awaiting dispatch, in place. An
// empty deque is refilled from the emulator, which writes the effect
// straight into the ring slot. It returns nil once fetch has ended (the
// emulator halted with nothing left to replay, or faulted).
//
// Progress accounting: reading a front that is already buffered moves no
// state — a stalled front is re-read every cycle exactly as it was — but
// stepping the emulator or discovering the end of fetch does, and marks
// the cycle non-quiescent.
//
//ddvet:hotpath
func (c *Core) fetchFront() *emu.Effect {
	if c.fetchN > 0 {
		return &c.fetchQ[c.fetchHead]
	}
	c.progressed = true
	if c.emu.Halted {
		c.fetchDone = true
		return nil
	}
	ef := &c.fetchQ[c.fetchHead]
	if err := c.emu.StepInto(ef); err != nil {
		c.fetchDone = true
		c.stats.FetchError = err
		return nil
	}
	c.fetchN = 1
	return ef
}

// fetchPop drops the front effect once its instruction has dispatched.
func (c *Core) fetchPop() {
	c.fetchHead = (c.fetchHead + 1) & (len(c.fetchQ) - 1)
	c.fetchN--
}

// fetchPushFront prepends a squashed instruction's effect for replay.
// Every fetched effect is either in the ROB or in this deque, and the
// emulator refills only an empty deque while the ROB has room, so the two
// together never hold more than ROBSize effects: the ring, sized like the
// ROB's, cannot overflow.
func (c *Core) fetchPushFront(ef *emu.Effect) {
	if c.fetchN == len(c.fetchQ) {
		panic("core: fetch deque overflow")
	}
	c.fetchHead = (c.fetchHead - 1) & (len(c.fetchQ) - 1)
	c.fetchQ[c.fetchHead] = *ef
	c.fetchN++
}

// --------------------------------------------------------- uop pool

// allocUop returns a zeroed RUU entry, recycling retired ones. The
// allocation generation survives (incremented) so waitRefs against the
// previous life are recognizably stale, and the waiter slab is kept to
// stay allocation-free in steady state.
func (c *Core) allocUop() *uop {
	if len(c.freeUops) == 0 {
		c.growUopPool(c.cfg.ROBSize)
	}
	n := len(c.freeUops)
	u := c.freeUops[n-1]
	c.freeUops = c.freeUops[:n-1]
	gen, w := u.allocGen, u.waiters
	*u = uop{}
	u.allocGen, u.waiters = gen+1, w[:0]
	return u
}

// growUopPool adds n entries to the pool from one contiguous slab: the
// intrusive walks (issue list, pending-access lists) chase pointers
// across live entries every cycle, and a compact arena keeps those loads
// inside a few pages instead of scattered heap allocations. New seeds the
// pool with ROBSize entries, the whole population: an entry returns to
// the pool as it leaves the ROB, and dispatch stops at a full ROB, so the
// pipeline never grows it.
func (c *Core) growUopPool(n int) {
	slab := make([]uop, n)
	for i := n - 1; i >= 0; i-- {
		c.freeUops = append(c.freeUops, &slab[i])
	}
}

// watch registers u's interest in the producer p (nil when the operand is
// ready) of an operand gating u's issue. A producer that has already
// completed contributes only its (immutable) readyAt bound; an in-flight
// one gets a waiter record and will push the bound at its completion
// transition.
func (c *Core) watch(u, p *uop) {
	if p == nil {
		return
	}
	if p.completed {
		if p.readyAt > u.issueWake {
			u.issueWake = p.readyAt
		}
		return
	}
	p.waiters = append(p.waiters, waitRef{u, u.allocGen, waitIssue})
	u.depsPending++
}

// watchStoreValue sets store u's data-arrival bound from the producer p
// of its data operand: p's immutable readyAt once p has completed, or
// memSleepPush while p is in flight, until p's completion push
// (waitStoreValue) fills in its readyAt. Data ready at dispatch (p nil)
// leaves the bound at 0, which acts as dispatchedAt would: the store
// completes at max(addrAt, valueAt), and addrAt is past dispatch, while
// forwarding asks only whether valueAt has passed.
func (c *Core) watchStoreValue(u, p *uop) {
	if p == nil {
		return
	}
	if p.completed {
		u.valueAt = p.readyAt
		return
	}
	u.valueAt = memSleepPush
	p.waiters = append(p.waiters, waitRef{u, u.allocGen, waitStoreValue})
}

// watchFwdValue registers load u's interest in the arrival of store st's
// data (waitFwdValue). The store is older than the load and
// therefore earlier in the same stream's pending walk, so the wake lands
// in the same cycle a per-cycle poll would have fired. Registrations are
// never canceled — stale ones are filtered by allocGen at delivery, and a
// spurious wake only costs one poll.
func (c *Core) watchFwdValue(u, st *uop) {
	st.waiters = append(st.waiters, waitRef{u, u.allocGen, waitFwdValue})
}

// pushReady is called exactly once, at p's completion transition, to
// deliver p.readyAt to every consumer still waiting on it. After this,
// p.completed is sticky and new consumers read the bound directly in
// watch, so the drained list never refills.
//
// Commit is in order, so every consumer that commits was still waiting
// here. A record goes stale only when its consumer was squashed: until
// the entry is reallocated the push writes into a pooled entry, which
// allocUop zeroes on reuse, and after that allocGen tells it apart.
func (c *Core) pushReady(p *uop) {
	for _, wr := range p.waiters {
		w := wr.w
		if w.allocGen != wr.gen {
			continue // consumer squashed and its entry reallocated
		}
		if wr.kind == waitStoreValue {
			// The store wakes exactly when its data becomes usable.
			w.valueAt, w.memWake = p.readyAt, p.readyAt
			continue
		}
		w.depsPending--
		if p.readyAt > w.issueWake {
			w.issueWake = p.readyAt
		}
	}
	p.waiters = p.waiters[:0]
}

// wakeFwdWaiters is called at each memory-stage visit of a store whose
// data has arrived: every load registered to forward from it resumes
// memory-stage visits this cycle. Registrations only happen while the
// data is pending, so the first call drains the list for good. Waking is
// always safe; only sleeping needs justification.
func (c *Core) wakeFwdWaiters(u *uop) {
	if len(u.waiters) == 0 {
		return
	}
	for _, wr := range u.waiters {
		if wr.w.allocGen == wr.gen {
			wr.w.memWake = 0
		}
	}
	u.waiters = u.waiters[:0]
}

// recycleUop returns a uop that has left the pipeline (committed or
// squashed) to the pool. No consumer holds a pointer to its producers,
// so the entry is free at once.
func (c *Core) recycleUop(u *uop) {
	c.issueUnlink(u)
	c.freeUops = append(c.freeUops, u)
}

// issuePush appends a freshly-dispatched entry to the not-yet-issued
// list; dispatch order is program order, so the list stays sorted.
func (c *Core) issuePush(u *uop) {
	u.inIssueQ = true
	u.issuePrev = c.issueTail
	if c.issueTail != nil {
		c.issueTail.issueNext = u
	} else {
		c.issueHead = u
	}
	c.issueTail = u
}

// issueUnlink removes an entry from the not-yet-issued list (on issue, on
// completion without issue — a fast-forwarded load — or when the entry
// leaves the pipeline). Idempotent.
func (c *Core) issueUnlink(u *uop) {
	if !u.inIssueQ {
		return
	}
	u.inIssueQ = false
	if u.issuePrev != nil {
		u.issuePrev.issueNext = u.issueNext
	} else {
		c.issueHead = u.issueNext
	}
	if u.issueNext != nil {
		u.issueNext.issuePrev = u.issuePrev
	} else {
		c.issueTail = u.issuePrev
	}
	u.issueNext, u.issuePrev = nil, nil
}

// pendDrop unlinks u from every stream's pending list (both copies of a
// dual-steered entry) at its completion transition, when it stops being
// pending. An entry leaving a queue still pending is unlinked by the
// queue mutator that removes it (queue.go).
func (c *Core) pendDrop(u *uop) {
	for _, s := range c.streams {
		s.pendUnlink(u)
	}
}

// New builds a core for the given program and configuration.
func New(prog *asm.Program, cfg config.Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	robCap := 16
	for robCap < cfg.ROBSize {
		robCap <<= 1
	}
	c := &Core{
		cfg:      cfg,
		emu:      emu.New(prog),
		mem:      &cache.MainMemory{Name: "mem", Latency: cfg.MemLatency},
		text:     decodeText(prog, cfg),
		textBase: prog.TextBase,
		rob:      make([]*uop, robCap),
		fetchQ:   make([]emu.Effect, robCap),
		freeUops: make([]*uop, 0, cfg.ROBSize),
		// Wake population is bounded by a few registrations per in-flight
		// instruction plus per-stream MSHR wakes; oversize the slab so the
		// hot loop never grows it.
		sched: *sched.New(4*cfg.ROBSize + 64),
	}
	c.l2 = cache.New(cache.Config{
		Name: "L2", SizeBytes: cfg.L2.SizeBytes, LineBytes: cfg.L2.LineBytes,
		Assoc: cfg.L2.Assoc, HitLatency: cfg.L2.HitLatency, MSHRs: 64,
	}, c.mem)
	c.growUopPool(cfg.ROBSize)
	if len(cfg.Streams()) > memsys.MaxStreams {
		return nil, ErrTooManyStreams
	}
	for id, spec := range cfg.Streams() {
		sc := cache.New(cache.Config{
			Name: streamCacheName(spec), SizeBytes: spec.Cache.SizeBytes,
			LineBytes: spec.Cache.LineBytes, Assoc: spec.Cache.Assoc,
			HitLatency: spec.Cache.HitLatency,
		}, c.l2)
		c.streams = append(c.streams, &stream{
			Stream: memsys.NewStream(id, spec, sc),
			ring:   make([]*uop, robCap),
		})
		if spec.Local {
			c.localIdx = id
		} else {
			c.nonlocalIdx = id
		}
	}
	if !cfg.Decoupled() {
		// A unified memory system has a single stream; both
		// classifications route to it.
		c.localIdx = c.nonlocalIdx
	}
	if cfg.Decoupled() && cfg.TLBEntries > 0 {
		c.annotTLB = tlb.New(cfg.TLBEntries, cfg.TLBMissLatency)
	}
	return c, nil
}

// streamCacheName keeps the historical cache names in the stat block.
func streamCacheName(spec config.StreamSpec) string {
	if spec.Local {
		return "LVC"
	}
	return "L1D"
}

// route returns the stream index accesses with the given classification
// are steered to.
func (c *Core) route(local bool) int {
	if local {
		return c.localIdx
	}
	return c.nonlocalIdx
}

// ErrBudget is reported (wrapped, inside a *simerr.SimError) by Run when
// the cycle safety budget is exhausted before the program halts — almost
// always a sign of a workload that does not terminate.
var ErrBudget = errors.New("core: cycle budget exhausted")

// ErrTooManyStreams: the config declares more memory streams than the
// core's fixed per-uop bookkeeping supports.
var ErrTooManyStreams = errors.New("core: config builds more streams than the core supports")

// errROBOverflow is robPush's panic value. An error value, unlike a string
// constant, needs no boxing where robPush is inlined into dispatchStage.
var errROBOverflow = errors.New("core: ROB overflow")

func (c *Core) done() bool {
	return c.fetchDone && c.robN == 0
}
