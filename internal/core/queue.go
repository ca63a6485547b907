package core

import "repro/internal/memsys"

// stream is one memory access stream as the core drives it: memsys's side
// of the stream (cache, ports, combining window, counters) plus the
// stream's access queue, which the core owns as sim-outorder keeps its LSQ
// inside the core. Load/store ordering is enforced within each queue only
// (§2.1, §3.1). Four core functions make every queue mutation — enqueue,
// dequeue, retire and squash — and each keeps the ring, the pending list,
// Stats.Occupancy and the combining window in step.
type stream struct {
	*memsys.Stream

	// ring is the access queue: a program-ordered power-of-two ring whose
	// position 0, ring[first], is the oldest entry. It is as large as the
	// ROB's ring, and every queued access is in the ROB, so it cannot
	// overflow. Each entry carries its position ticket for this stream
	// (uop.qTick), so membership and index lookups are O(1); only the rare
	// mid-queue removal of a dual copy shifts entries.
	ring  []*uop
	first int
	n     int
	base  uint64 // ticket of position 0

	// pendHead/pendTail hold the queued entries with memory-stage work
	// left (pendingAccess), in program order. processStream walks only
	// these — an entry with its access done is inert in the memory stage.
	pendHead, pendTail *uop

	// occSynced is the last cycle folded into Stats.Occupancy, which
	// advances only when the queue length changes. The sample point is
	// the memory stage, so the commit-stage mutator (retire) syncs
	// through now-1 and the cycle samples the shrunken queue, while the
	// later ones (enqueue, dequeue, squash) sync through now.
	occSynced uint64
}

// at returns the entry at position i (0 = oldest).
//
//ddvet:hotpath
func (s *stream) at(i int) *uop { return s.ring[(s.first+i)&(len(s.ring)-1)] }

// contains reports whether u occupies this queue.
//
//ddvet:hotpath
func (s *stream) contains(u *uop) bool { return u.inQ[s.ID] }

// indexOf returns the position (0 = oldest) of u, which must be queued
// here.
//
//ddvet:hotpath
func (s *stream) indexOf(u *uop) int { return int(u.qTick[s.ID] - s.base) }

// popHead removes the oldest entry.
//
//ddvet:hotpath
func (s *stream) popHead() {
	s.ring[s.first].inQ[s.ID] = false
	s.ring[s.first] = nil
	s.first = (s.first + 1) & (len(s.ring) - 1)
	s.n--
	s.base++
}

// syncOcc folds cycles (occSynced, through] into the occupancy integral at
// the current queue length. Call before any length change: the cycles
// since the last change all sampled the old length.
//
//ddvet:hotpath
func (s *stream) syncOcc(through uint64) {
	if through > s.occSynced {
		s.Stats.Occupancy += (through - s.occSynced) * uint64(s.n)
		s.occSynced = through
	}
}

// isHead reports whether u is the oldest entry of the queue. Memory
// accesses leave their queues in program order, so a store commit or a
// retire of anything else is a pipeline bug, and both panic.
//
//ddvet:hotpath
func (s *stream) isHead(u *uop) bool { return s.n > 0 && s.ring[s.first] == u }

// pendPush appends u to the pending list. Entries arrive in queue order,
// which is program order, so a tail append keeps the list ordered.
func (s *stream) pendPush(u *uop) {
	id := s.ID
	u.inPend[id] = true
	u.pendPrev[id] = s.pendTail
	if s.pendTail != nil {
		s.pendTail.pendNext[id] = u
	} else {
		s.pendHead = u
	}
	s.pendTail = u
}

// pendUnlink removes u from the pending list. Idempotent.
func (s *stream) pendUnlink(u *uop) {
	id := s.ID
	if !u.inPend[id] {
		return
	}
	u.inPend[id] = false
	if u.pendPrev[id] != nil {
		u.pendPrev[id].pendNext[id] = u.pendNext[id]
	} else {
		s.pendHead = u.pendNext[id]
	}
	if u.pendNext[id] != nil {
		u.pendNext[id].pendPrev[id] = u.pendPrev[id]
	} else {
		s.pendTail = u.pendPrev[id]
	}
	u.pendNext[id], u.pendPrev[id] = nil, nil
}

// enqueue appends u at the young end of s's queue — a dispatching access,
// the shadow copy of a dual access, or a misrouted access arriving from
// the other stream, which recovery made the youngest in the machine — and
// links it into the pending list while it has memory-stage work left.
// Every caller runs after cycle now's occupancy sample.
func (c *Core) enqueue(s *stream, u *uop) {
	if u.inQ[s.ID] {
		panic("core: access pushed twice into one stream")
	}
	if s.n == len(s.ring) {
		panic("core: stream queue overflow")
	}
	s.syncOcc(c.now)
	s.ring[(s.first+s.n)&(len(s.ring)-1)] = u
	u.qTick[s.ID] = s.base + uint64(s.n)
	u.inQ[s.ID] = true
	s.n++
	if u.pendingAccess() {
		s.pendPush(u)
	}
}

// dequeue removes u from s's queue and pending list, after cycle now's
// occupancy sample: the wrong copy of a resolved dual access, or a
// misrouted access leaving for its right stream. The younger entries shift
// down one position (their tickets follow), moving them under the
// combining window's anchor, so the window closes.
func (c *Core) dequeue(s *stream, u *uop) {
	if !u.inQ[s.ID] {
		panic("core: removing an access not in the stream")
	}
	s.syncOcc(c.now)
	mask := len(s.ring) - 1
	for j := s.indexOf(u); j < s.n-1; j++ {
		moved := s.at(j + 1)
		s.ring[(s.first+j)&mask] = moved
		moved.qTick[s.ID]--
	}
	s.ring[(s.first+s.n-1)&mask] = nil
	s.n--
	u.inQ[s.ID] = false
	s.pendUnlink(u)
	s.CloseWindow()
}

// retire pops a committing access off the head of s's queue during cycle
// now's commit stage, before the cycle's occupancy sample. A committed
// access has no memory-stage work left, so it is on no pending list.
//
//ddvet:hotpath
func (c *Core) retire(s *stream, u *uop) {
	if !s.isHead(u) {
		panic("core: retiring an access that is not its stream's head")
	}
	if c.now > 0 {
		s.syncOcc(c.now - 1)
	}
	s.popHead()
}

// squash removes every access younger than maxSeq from s's queue and
// pending list (misroute recovery, after cycle now's occupancy sample).
// The combining window closes too: re-dispatched accesses may fill its
// anchor position, and none may ride a grant won by a squashed access.
func (c *Core) squash(s *stream, maxSeq uint64) {
	s.syncOcc(c.now)
	s.CloseWindow()
	for s.n > 0 && s.at(s.n-1).seq > maxSeq {
		u := s.at(s.n - 1)
		s.ring[(s.first+s.n-1)&(len(s.ring)-1)] = nil
		s.n--
		u.inQ[s.ID] = false
		s.pendUnlink(u)
	}
}

// wakeStream resets the order-scan and fast-forward memos (osState,
// ffState) of every entry pending in s and clears its sleep bound, so each
// rescans on its next visit. It runs at dual resolution, on both streams,
// the one event that changes an older part of a queue: it removes the
// wrong copy from the middle of one queue and clears a store's dual flag,
// which blocks fast forwarding, in the other. A load whose order scan
// stalled on the removed copy would otherwise keep waiting for the store's
// address, which an annotation-TLB miss can hold back for many cycles
// after the copy has left.
//
// Every memo and every sleep bound describes entries older than its own
// load, which no other mutation changes. A squash removes only entries
// younger than the misrouted access; a transfer moves that access between
// young ends; dispatch appends at the young end. A head retire can only
// delete blockers or matches below a scan's stopping point, so a negative
// verdict stays negative, and the positive waits are retire-proof: an
// unresolved or value-less store cannot commit, and a forwarding match
// completes no earlier than its consumer forwards from it. The one verdict
// that waits for a retire, osPartial, checks queue membership live.
func (c *Core) wakeStream(s *stream) {
	for u := s.pendHead; u != nil; u = u.pendNext[s.ID] {
		u.memWake = 0
		u.osState = osNone
		u.ffState = ffNone
	}
}
