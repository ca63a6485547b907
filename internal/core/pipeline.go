package core

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// cycle advances the machine one clock. Stages run back to front so that an
// instruction never flows through more than one stage per cycle: commit,
// then the memory pipelines, then issue, then fetch/dispatch.
//
// Every state *transition* (a commit, an issue, a dispatch, a load
// completing, the emulator refilling the fetch deque, a squash) sets
// c.progressed; a cycle that ends with it clear changed nothing but
// per-cycle stall counters and the occupancy samples, and the run loop may
// then jump the clock to the machine's next event (nextEvent, the
// quiescence invariant, DESIGN.md §12). Setting progressed is a stage's
// only duty toward the skip: nextEvent reads the timestamps the stages
// compare against the clock from the machine itself.
//
//ddvet:hotpath
func (c *Core) cycle() {
	c.now++
	for _, s := range c.streams {
		s.Reset()
	}

	c.commitStage()
	c.memoryStage()
	c.issueStage()
	c.dispatchStage()

	c.stats.ROBOccupancy += uint64(c.robN)
	c.stats.Cycles = c.now
}

// ---------------------------------------------------------------- commit

// commitStage retires up to IssueWidth completed ROB heads, driving store
// commits through their stream's cache ports.
//
//ddvet:hotpath
func (c *Core) commitStage() {
	for n := 0; n < c.cfg.IssueWidth && c.robN > 0; n++ {
		u := c.robAt(0)
		if !u.completed || u.readyAt > c.now {
			break
		}
		if u.isMem && !u.isLoad {
			// Stores write their stream's cache at commit and need a
			// port (paper §3.1); commits on a combining stream
			// participate in access combining. The store must be its
			// stream's oldest entry — commit order is program order, so
			// anything else would be a pipeline bug.
			s := c.streams[u.stream]
			if !s.isHead(u) {
				panic("core: committing a store that is not its stream's head")
			}
			ok, combined := s.CommitStore(c.now, u.ef.Addr, u.combineGroup)
			if !ok {
				// Port or MSHR stall: retry next cycle. On an MSHR
				// stall the port stays consumed, as it would in
				// hardware.
				break
			}
			u.combined = u.combined || combined
		}
		c.progressed = true
		c.robPopHead()
		if u.isMem {
			c.retire(c.streams[u.stream], u)
		}
		// The committed value is architectural now; producer() would
		// answer nil anyway, so drop the rename-table self reference to
		// let the entry recycle.
		if u.hasDest && c.renameTable[u.dest] == u {
			c.renameTable[u.dest] = nil
		}
		c.emitTrace(u, c.now, false)
		c.recycleUop(u)
		c.stats.Committed++
	}
}

// ---------------------------------------------------------------- memory

// memoryStage drives every stream's pending accesses one cycle. Each
// queue's occupancy is sampled here, after commit has retired this cycle's
// heads and before issue and dispatch change the queue; the walk itself
// changes no queue's length.
//
//ddvet:hotpath
func (c *Core) memoryStage() {
	for _, s := range c.streams {
		s.Stats.Occupancy += uint64(s.n)
		c.processStream(s)
	}
}

// processStream walks one stream's pending-access list: exactly the
// queued entries with memory-stage work left (stores not yet completed,
// loads not yet past the cache), in program order. An entry whose access
// is done is inert in this stage — skipping it changes nothing — and the
// §3.1 order scans below still inspect the full queue window through the
// ring, so the abbreviated walk is observation-equivalent to visiting
// every entry.
//
//ddvet:hotpath
func (c *Core) processStream(s *stream) {
	for u := s.pendHead; u != nil; {
		// Processing u can only unlink u itself, so the successor is
		// stable across the body.
		next := u.pendNext[s.ID]
		if u.memWake > c.now {
			u = next
			continue
		}
		if u.isLoad {
			c.processLoad(s, u)
		} else {
			c.updateStore(u)
		}
		u = next
	}
}

// updateStore tracks a store's operand readiness; a store is "completed"
// (eligible to commit) once both its address and its data are known.
func (c *Core) updateStore(u *uop) {
	if u.completed {
		return
	}
	if u.valueAt > c.now {
		// Sleep until the data arrives. While its producer is in flight
		// the bound is memSleepPush, and the producer's completion push
		// (waitStoreValue) rewrites both bounds.
		u.memWake = u.valueAt
		return
	}
	// The data's arrival is no state transition of its own: a load
	// waiting to forward from the store forwards this cycle, and a
	// spurious wake of any other load changes nothing.
	c.wakeFwdWaiters(u)
	if u.addrKnown && u.addrAt <= c.now {
		u.completed = true
		u.readyAt = max(u.addrAt, u.valueAt)
		c.progressed = true
		c.pendDrop(u)
		return
	}
	// Value in hand, address pending: sleep until the store's own issue
	// computes it (memSleepAgen is rewritten to addrAt there).
	if u.addrKnown {
		u.memWake = u.addrAt
	} else {
		u.memWake = memSleepAgen
	}
}

func (c *Core) processLoad(s *stream, u *uop) {
	// Fast data forwarding (§2.2.2): on a fast-forwarding stream, a
	// store→load pair with the same base register, stack generation and
	// offset can bypass before either effective address is computed.
	if s.Spec.FastForward && c.tryFastForward(s, u) {
		return
	}
	if !u.addrKnown || u.addrAt > c.now {
		// Pre-address, every visit is this same no-op unless the bypass
		// above could fire. With no bypass upside — fast forwarding off,
		// or a memoized "no bypass" verdict — sleep until the
		// address arrives (the load's own issue sets the bound).
		if !s.Spec.FastForward || u.ffState == ffBlocked {
			if u.addrKnown {
				u.memWake = u.addrAt
			} else {
				u.memWake = memSleepAgen
			}
		}
		return
	}

	// Memoized verdict of the last §3.1 order scan. Every verdict hinges
	// on facts that are sticky for a fixed queue prefix — a store's
	// address, once known, stays known; overlap is a function of known
	// addresses — plus at most one store's evolving readiness, which is
	// rechecked live. Dual resolution, which removes a copy from the
	// middle of a queue, clears the memo (wakeStream); no other queue
	// mutation can turn a verdict. Rerunning the scan could therefore
	// only repeat the verdict.
	switch u.osState {
	case osStallAddr:
		if st := u.osCand; !st.addrKnown || st.addrAt > c.now {
			c.stats.LoadOrderStalls++
			return
		}
		// The blocking store resolved: rescan from scratch.
	case osFwdWait:
		if st := u.osCand; st.valueAt <= c.now {
			c.forwardLoad(s, u, st)
		} else {
			// The registration from the memo set is still pending
			// (it drains exactly at the transition we are waiting
			// for), so sleeping until its delivery is safe.
			u.memWake = memSleepPush
		}
		return
	case osPartial:
		if s.contains(u.osCand) {
			c.stats.PartialOverlapStalls++
			return
		}
		// The overlapping store drained at commit: rescan. (The
		// liveness probe is safe against recycling — a retired store
		// leaves the queue before its uop can recycle, and re-entry
		// into this queue cannot happen before the dispatch stage,
		// which runs after this one.)
	case osClear:
		c.loadAccess(s, s.indexOf(u), u)
		return
	}

	// A load may proceed only when the addresses of all previous stores
	// in its stream are known (paper §3.1, applied per stream §2.1).
	// Only the scan paths need the queue position, so it is resolved
	// this late: the memoized waits above get by without it.
	pos := s.indexOf(u)
	var match *uop
	for j := pos - 1; j >= 0; j-- {
		st := s.at(j)
		if st.isLoad {
			continue
		}
		if !st.addrKnown || st.addrAt > c.now {
			u.osState, u.osCand = osStallAddr, st
			c.stats.LoadOrderStalls++
			return
		}
		if u.overlaps(st) {
			match = st
			break
		}
	}
	if match != nil {
		if match.sameAccess(u) {
			// Store-to-load forwarding inside the stream: 1 cycle, no
			// cache access, no port.
			u.osState, u.osCand = osFwdWait, match
			if match.valueAt <= c.now {
				c.forwardLoad(s, u, match)
			} else {
				// Sleep until the match's value transition: the match is
				// older, hence earlier in this walk, so the wake lands
				// the same cycle a poll would have forwarded.
				c.watchFwdValue(u, match)
				u.memWake = memSleepPush
			}
			return
		}
		// Partially overlapping store: wait until it commits and drains
		// from the stream, then access the cache.
		u.osState, u.osCand = osPartial, match
		c.stats.PartialOverlapStalls++
		return
	}
	u.osState = osClear
	c.loadAccess(s, pos, u)
}

// forwardLoad completes a load by in-stream store-to-load forwarding
// from match (paper §3.1): 1 cycle, no cache access, no port.
func (c *Core) forwardLoad(s *stream, u, match *uop) {
	u.readyAt = c.now + 1
	u.completed, u.accessDone = true, true
	u.fwdFrom = match
	s.Stats.FwdLoads++
	c.progressed = true
	c.pendDrop(u)
	c.pushReady(u)
}

// loadAccess sends an order-clear load to its stream's port arbiter and
// cache. Port and MSHR stalls retry here every cycle — arbitration and
// combining are per-cycle state, so only the scan above is memoizable.
func (c *Core) loadAccess(s *stream, pos int, u *uop) {
	granted, combined := s.Grant(pos, u.ef.Addr, true, u.combineGroup)
	if !granted {
		s.Stats.LoadPortStalls++
		return
	}
	if combined && !u.combined {
		u.combined = true
		c.progressed = true
	}
	ready, ok := s.Cache.Access(c.now, u.ef.Addr, false)
	if !ok {
		s.Stats.LoadMSHRStalls++
		return
	}
	u.readyAt = ready
	u.completed, u.accessDone = true, true
	c.progressed = true
	c.pendDrop(u)
	c.pushReady(u)
}

// tryFastForward implements the offset-based bypass on a fast-forwarding
// stream. The scan walks older entries; it stops (and the load falls back
// to the normal path) at any frame-generation boundary or at any store
// whose offset is unknown (non-$sp/$fp base), because such a store might
// alias the load.
func (c *Core) tryFastForward(s *stream, u *uop) bool {
	if u.accessDone {
		return true
	}
	// Memoized outcome of the last full scan. Everything the scan
	// inspects besides the matched store's value readiness is immutable
	// for a fixed queue prefix (base registers, offsets, stack
	// generations). A store's dual flag and the prefix's middle change
	// only at dual resolution, which clears the memo (wakeStream explains
	// why no other queue mutation needs to), so re-running the walk could
	// only repeat the cached verdict.
	if u.ffState != ffNone {
		if u.ffState == ffBlocked {
			return false
		}
		if st := u.ffCand; st.valueAt <= c.now {
			c.fastForward(s, u, st)
			return true
		}
		// Pre-address there is nothing to poll for beyond the candidate's
		// value (registered at memo set — still pending, or we would have
		// forwarded above) and the load's own address generation.
		if !u.addrKnown {
			u.memWake = memSleepAgen
		}
		return false
	}
	if u.dual || (u.baseReg != isa.RegSP && u.baseReg != isa.RegFP) {
		u.ffState = ffBlocked
		return false
	}
	// Under ForwardStatic the bypass only fires for loads with a
	// statically-proven pair, and only from that pair's store.
	var wantStore uint32
	if c.cfg.ForwardStatic {
		d := c.decodedAt(u.ef.PC)
		if !d.hasFwd {
			u.ffState = ffBlocked
			return false
		}
		wantStore = d.fwdStore
	}
	for j := s.indexOf(u) - 1; j >= 0; j-- {
		st := s.at(j)
		if st.isLoad {
			continue
		}
		if st.dual {
			// Unresolved ambiguous store: might alias anything.
			u.ffState = ffBlocked
			return false
		}
		if st.spGen != u.spGen {
			u.ffState = ffBlocked
			return false
		}
		if st.baseReg != isa.RegSP && st.baseReg != isa.RegFP {
			u.ffState = ffBlocked
			return false
		}
		if st.baseReg == u.baseReg && st.ef.Inst.Imm == u.ef.Inst.Imm {
			if st.ef.Bytes != u.ef.Bytes {
				u.ffState = ffBlocked
				return false
			}
			if c.cfg.ForwardStatic && st.ef.PC != wantStore {
				u.ffState = ffBlocked
				return false
			}
			if st.valueAt <= c.now {
				c.fastForward(s, u, st)
				return true
			}
			// Right store, data not yet ready: recheck just it until the
			// queue changes shape. The store's value transition wakes us,
			// so a pre-address load can sleep meanwhile (once the address
			// is known the normal path below may have work every cycle).
			u.ffState, u.ffCand = ffWaiting, st
			c.watchFwdValue(u, st)
			if !u.addrKnown {
				u.memWake = memSleepAgen
			}
			return false
		}
	}
	u.ffState = ffBlocked
	return false
}

// fastForward completes a load via the §2.2.2 offset bypass from store st.
func (c *Core) fastForward(s *stream, u, st *uop) {
	u.readyAt = c.now + 1
	u.completed, u.accessDone = true, true
	u.fwdFrom = st
	u.fastForwarded = true
	s.Stats.FastFwdLoads++
	c.progressed = true
	c.issueUnlink(u)
	c.pendDrop(u)
	c.pushReady(u)
}

// ---------------------------------------------------------------- issue

// issueStage walks the not-yet-issued list in program order, issuing up to
// IssueWidth operand-ready entries into free functional units.
//
//ddvet:hotpath
func (c *Core) issueStage() {
	budget := c.cfg.IssueWidth
	intALU, fpALU := c.cfg.IntALUs, c.cfg.FPALUs
	intMD, fpMD := c.cfg.IntMulDiv, c.cfg.FPMulDiv

	// The list holds exactly the ROB entries that are neither issued nor
	// completed (both sticky until an entry leaves the ROB), in program
	// order — the same candidates, in the same priority, as a scan of the
	// whole ring.
	for u := c.issueHead; u != nil; {
		if budget == 0 {
			break
		}
		next := u.issueNext
		// The wakeup push keeps depsPending/issueWake current, so a
		// waiting entry costs one line of its own struct here instead of
		// a walk of its producers: depsPending == 0 with issueWake in
		// the past is exactly "every operand observed ready".
		if u.depsPending > 0 || u.issueWake > c.now {
			u = next
			continue
		}
		if u.isMem {
			// Address generation: the base register operand (the only
			// operand gating a memory access's issue) has arrived.
			u.issued = true
			u.issuedAt = c.now
			c.issueUnlink(u)
			budget--
			u.addrKnown = true
			u.addrAt = c.now + 1
			c.progressed = true
			if c.annotTLB != nil {
				// Verification must wait for the annotation (§2.1).
				if _, ready := c.annotTLB.Lookup(c.now, u.ef.Addr); ready > c.now {
					u.addrAt = ready + 1
					c.stats.TLBMissStalls++
				}
			}
			if u.memWake == memSleepAgen {
				// The memory stage put this load to sleep pending its own
				// address generation; the concrete bound exists now.
				u.memWake = u.addrAt
			}
			if c.checkSteering(u); u.misrouted {
				// The squash invalidated the window we are iterating.
				break
			}
			u = next
			continue
		}
		var fu *int
		switch u.class {
		case isa.ClassIntMul, isa.ClassIntDiv:
			fu = &intMD
		case isa.ClassFPALU:
			fu = &fpALU
		case isa.ClassFPMul, isa.ClassFPDiv:
			fu = &fpMD
		default: // integer ALU, branches, jumps, sys, nop
			fu = &intALU
		}
		if *fu == 0 {
			c.stats.FUStalls++
			u = next
			continue
		}
		*fu--
		budget--
		u.issued = true
		u.issuedAt = c.now
		c.issueUnlink(u)
		u.completed = true
		u.readyAt = c.now + config.Latency(u.class)
		c.progressed = true
		c.pushReady(u)
		c.stats.Issued++
		u = next
	}
}

// ------------------------------------------------------------- dispatch

// dispatchStage moves up to IssueWidth effects from the front of the fetch
// deque into the ROB and their memory streams, in program order. An effect
// that cannot dispatch (ROB or queue full) stays at the front for the next
// cycle.
//
//ddvet:hotpath
func (c *Core) dispatchStage() {
	if c.now < c.dispatchStallUntil {
		c.stats.RecoveryStallCycles++
		return
	}
	for n := 0; n < c.cfg.IssueWidth && !c.fetchDone; n++ {
		if c.robN >= c.cfg.ROBSize {
			c.stats.ROBFullStalls++
			return
		}
		ef := c.fetchFront()
		if ef == nil {
			return
		}
		d := c.decodedAt(ef.PC)

		var local, dual, spec bool
		var target int
		if d.isMem {
			local, dual, spec = c.steer(ef, d)
			target = c.route(local)
			if c.streamFull(target) || (dual && c.streamFull(c.route(!local))) {
				// The effect stays at the front for the next cycle.
				c.stats.QueueFullStalls++
				return
			}
		}

		u := c.allocUop()
		u.seq = c.seq
		u.ef = *ef
		c.fetchPop()
		u.class = d.class
		u.dest, u.hasDest = d.dest, d.hasDest
		u.dispatchedAt = c.now
		c.seq++
		c.progressed = true

		if d.isMem {
			u.isMem = true
			u.isLoad = d.isLoad
			u.stream = target
			u.dual = dual
			u.spec = spec
			if spec {
				// Event counter, like Misroutes: a squashed-and-replayed
				// spec access counts again on re-dispatch.
				c.streams[target].Stats.SpecSteered++
			}
			u.baseReg = d.src[0]
			u.spGen = c.spGen
			u.combineGroup = d.combineGroup
		}

		// Rename the source operands and register the waits they gate:
		// the base register for a memory access, both operands otherwise.
		// A store's data operand never gates its issue, only its
		// completion, so it sets the store's data-arrival bound instead.
		var src [2]*uop
		for i, r := range d.src[:d.nsrc] {
			src[i] = c.producer(r)
		}
		c.watch(u, src[0])
		if !u.isMem {
			c.watch(u, src[1])
		} else if !u.isLoad {
			c.watchStoreValue(u, src[1])
		}

		// Rename the destination and advance the stack generation when
		// $sp or $fp is redefined.
		if d.hasDest {
			c.renameTable[d.dest] = u
			if d.dest == isa.RegSP || d.dest == isa.RegFP {
				c.spGen++
			}
		}
		u.spGenAfter = c.spGen

		c.robPush(u)
		c.issuePush(u)
		if u.isMem {
			if u.isLoad {
				c.stats.Loads++
			} else {
				c.stats.Stores++
			}
			if isa.InStackRegion(u.ef.Addr) {
				if u.isLoad {
					c.stats.LocalLoads++
				} else {
					c.stats.LocalStores++
				}
			}
			c.enqueue(c.streams[target], u)
			c.streams[target].Stats.Dispatched++
			if dual {
				// The shadow copy occupies the other stream until the
				// address resolves.
				c.enqueue(c.streams[c.route(!local)], u)
				c.stats.DualInserted++
			}
		}

		// Fetch is finished only when the emulator has halted AND no
		// squashed effects remain to replay, or when the instructions
		// committed or in flight reach the commit budget. A squash
		// lowers robN and reopens dispatch for exactly the squashed
		// window, so the run commits MaxInsts instructions.
		if c.emu.Halted && c.fetchN == 0 {
			c.fetchDone = true
		}
		if c.cfg.MaxInsts > 0 && c.stats.Committed+uint64(c.robN) >= c.cfg.MaxInsts {
			c.fetchDone = true
		}
	}
}

// streamFull reports whether stream id's queue is at its architectural
// size.
func (c *Core) streamFull(id int) bool {
	s := c.streams[id]
	return s.n >= s.Spec.QueueSize
}

// producer returns the in-flight producer of r, or nil when the
// architectural value is already available. Reads of the hardwired zero
// register are always ready. Dispatch hands the producer to the watch
// functions and keeps no pointer to it.
func (c *Core) producer(r isa.Reg) *uop {
	if r == isa.RegZero {
		return nil
	}
	p := c.renameTable[r]
	if p == nil || (p.completed && p.readyAt <= c.now) {
		return nil
	}
	return p
}

// checkSteering verifies the stream assignment once the effective address
// is known. A wrongly-steered access is removed, re-inserted into the
// correct stream (in program order) and the front end stalls for the
// recovery penalty, as for a branch misprediction (§2.1).
func (c *Core) checkSteering(u *uop) {
	if !c.cfg.Decoupled() {
		return
	}
	local := isa.InStackRegion(u.ef.Addr)
	if d := c.decodedAt(u.ef.PC); d.steer == steerPredict {
		d.pred = predNonLocal
		if local {
			d.pred = predLocal
		}
	}
	right := c.route(local)
	if u.dual {
		// Kill the copy in the wrong stream; no recovery is needed
		// because the right copy is already in place (§2.1 footnote 3).
		if u.stream != right {
			c.stats.DualMisguessed++
			c.streams[u.stream].Stats.Dispatched--
			c.streams[right].Stats.Dispatched++
		}
		wrong := c.streams[c.route(!local)]
		c.dequeue(wrong, u)
		c.wakeStream(wrong)
		c.wakeStream(c.streams[right])
		u.stream = right
		u.dual = false
		return
	}
	if u.stream == right {
		return
	}
	c.stats.Misroutes++
	u.misrouted = true
	if u.spec {
		// A speculate-local assignment resolved non-local: the recovery
		// below is the misspeculation cost (never a correctness event).
		c.streams[u.stream].Stats.SpecMisrouted++
	}
	// Recovery "like a branch misprediction" (§2.1): squash everything
	// younger, re-steer this access into the correct stream, and stall the
	// front end for the refill penalty. The squashed instructions replay
	// from their recorded effects.
	c.squashYounger(u)
	// u is now the youngest access in the machine, so the tail append
	// keeps the destination queue in program order; the dispatch count
	// follows the access.
	from, to := c.streams[u.stream], c.streams[right]
	c.dequeue(from, u)
	c.enqueue(to, u)
	from.Stats.Dispatched--
	to.Stats.Dispatched++
	u.stream = right
	c.dispatchStallUntil = max(c.dispatchStallUntil, c.now+c.cfg.RecoveryPenalty)
}

// squashYounger removes every instruction younger than u from the pipeline
// and schedules its effect for re-dispatch.
func (c *Core) squashYounger(u *uop) {
	idx := -1
	for i := 0; i < c.robN; i++ {
		if c.robAt(i) == u {
			idx = i
			break
		}
	}
	if idx < 0 || idx == c.robN-1 {
		// u is the youngest (or already gone): nothing to squash. Effects
		// still in the fetch deque are younger and stay where they are.
		return
	}
	c.progressed = true
	for i := idx + 1; i < c.robN; i++ {
		v := c.robAt(i)
		if v.isMem {
			if v.isLoad {
				c.stats.Loads--
			} else {
				c.stats.Stores--
			}
			if isa.InStackRegion(v.ef.Addr) {
				if v.isLoad {
					c.stats.LocalLoads--
				} else {
					c.stats.LocalStores--
				}
			}
			c.streams[v.stream].Stats.Dispatched--
		}
		c.emitTrace(v, 0, true)
		c.stats.Squashed++
	}

	// Re-dispatch order is program order: the squashed window is older
	// than every effect still in the fetch deque, so it goes in front,
	// pushed youngest first.
	for i := c.robN - 1; i > idx; i-- {
		c.fetchPushFront(&c.robAt(i).ef)
	}

	for _, s := range c.streams {
		c.squash(s, u.seq)
	}

	// Recycle the squashed entries. Their records in older producers'
	// waiter lists go stale, and pushReady filters them.
	for i := idx + 1; i < c.robN; i++ {
		c.recycleUop(c.robAt(i))
	}
	c.robTruncate(idx + 1)

	// Rebuild the rename table from the surviving window.
	for i := range c.renameTable {
		c.renameTable[i] = nil
	}
	for i := 0; i < c.robN; i++ {
		if v := c.robAt(i); v.hasDest {
			c.renameTable[v.dest] = v
		}
	}
	c.spGen = u.spGenAfter
	c.fetchDone = false // the replayed effects still need dispatching
}
