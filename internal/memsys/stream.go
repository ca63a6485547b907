package memsys

import (
	"repro/internal/cache"
	"repro/internal/config"
)

// Stats are the counters one stream collects. The pipeline aggregates
// them into its legacy LSQ/LVAQ-named result fields.
type Stats struct {
	Dispatched uint64 // accesses steered here (primary copies only)

	// Speculative-steering accounting (SteerSpec): accesses steered here
	// on a speculate-local assignment rather than a proof, and the subset
	// that resolved to the other stream's region and paid the misroute
	// recovery path.
	SpecSteered   uint64
	SpecMisrouted uint64

	FwdLoads     uint64 // store→load forwards inside this queue
	FastFwdLoads uint64 // offset-based forwards before address generation
	Combined     uint64 // accesses that rode a shared port grant

	LoadPortStalls  uint64
	StorePortStalls uint64
	LoadMSHRStalls  uint64
	StoreMSHRStalls uint64

	Occupancy uint64 // integral of queue length over cycles
}

// CommitStatus is the outcome of a store's commit-time cache access.
type CommitStatus uint8

const (
	// CommitOK: port granted and the cache accepted the write.
	CommitOK CommitStatus = iota
	// CommitPortStall: no port this cycle; retry next cycle.
	CommitPortStall
	// CommitMSHRStall: port consumed but all MSHRs busy; retry next cycle.
	CommitMSHRStall
)

// Stream is one memory access stream: a program-ordered access queue in
// front of a cache, the per-cycle port state of that cache, and the
// stream's statistics. The pipeline steers each memory instruction to a
// stream at dispatch and drives all streams uniformly every cycle.
type Stream struct {
	ID    int
	Spec  config.StreamSpec
	Queue *Queue
	Cache *cache.Cache
	Ports Ports
	Stats Stats

	// GrantHook, when non-nil, is consulted before every port
	// acquisition; returning false denies the port (the access stalls and
	// retries like any port conflict). It is the fault-injection point for
	// dropped and delayed grants; nil (the default) costs nothing and
	// changes nothing. Accesses riding an open combining window do not
	// consume a port and are not subject to the hook.
	GrantHook func(id int, addr uint32, isLoad bool) bool

	// Access-combining window (§2.2.2), reset each cycle: one port grant
	// covers up to Spec.CombineWidth consecutive same-line accesses of
	// the same kind. Under Spec.CombineStatic the window additionally
	// belongs to one statically-proven group (combineGroup) and only
	// members of that group may open or ride it.
	combineLine   uint32
	combineLeft   int
	combineIsLoad bool
	combineAnchor int
	combineGroup  int

	// occSynced is the last cycle whose occupancy sample has been folded
	// into Stats.Occupancy (lazy interval accumulation: the integral is
	// advanced only when the queue length changes, not every cycle). The
	// legacy sample point is the memory stage — after the cycle's commits,
	// before its dispatches — and the sync calls in the mutators below
	// reproduce it exactly: commit-stage mutators (Retire, Drain)
	// accumulate through now-1 so the current cycle samples the shrunken
	// queue, post-sample mutators (Dispatch, Insert, Remove, Squash)
	// accumulate through now so the current cycle samples the old length.
	occSynced uint64
}

// GroupNone marks an access that belongs to no statically-proven
// combining group.
const GroupNone = -1

// NewStream builds a stream from its spec. The cache is constructed by
// the caller (it plugs into a shared lower hierarchy).
func NewStream(id int, spec config.StreamSpec, c *cache.Cache) *Stream {
	return &Stream{
		ID:    id,
		Spec:  spec,
		Queue: NewQueue(id, spec.QueueSize),
		Cache: c,
		Ports: NewPorts(spec.PortModel, spec.Ports, spec.Cache.LineBytes),
	}
}

// Reset starts a new cycle: all ports free, combining window closed.
func (s *Stream) Reset() {
	s.Ports.Reset()
	s.combineLeft = 0
}

// Occupancy returns the current number of queued accesses.
func (s *Stream) Occupancy() int { return s.Queue.Len() }

// syncOcc folds cycles (occSynced, through] into the occupancy integral at
// the current queue length. Call before any length change: the cycles
// since the last change all sampled the old length.
func (s *Stream) syncOcc(through uint64) {
	if through > s.occSynced {
		s.Stats.Occupancy += (through - s.occSynced) * uint64(s.Queue.Len())
		s.occSynced = through
	}
}

// FlushOccupancy folds the tail of the occupancy integral (cycles since
// the last queue mutation, through the given final cycle) into the stats.
// The pipeline calls it once, when building the result.
func (s *Stream) FlushOccupancy(now uint64) { s.syncOcc(now) }

// NextWake reports the earliest cycle strictly after now at which this
// stream can make progress it could not make now, or 0 when it holds no
// such future event. Today that is exactly its cache's next fill
// completion — an MSHR-rejected access can only be accepted once a fill
// frees an MSHR. Port availability and the combining window need no wake:
// both reset at the next cycle boundary, so they never block longer than
// one cycle on their own.
func (s *Stream) NextWake(now uint64) uint64 { return s.Cache.NextFillDone(now) }

// Full reports whether the queue has reached its architectural size.
func (s *Stream) Full() bool { return s.Queue.Len() >= s.Spec.QueueSize }

// Dispatch inserts a primary access at the queue tail (during cycle now's
// dispatch stage, after the cycle's occupancy sample) and counts it.
func (s *Stream) Dispatch(now uint64, e Entry) {
	s.syncOcc(now)
	s.Queue.Push(e)
	s.Stats.Dispatched++
}

// Insert inserts an access at the queue tail without counting it as
// dispatched here: the shadow copy of a dual-steered access, or an access
// re-steered into this stream by misroute recovery (the recovery path
// adjusts the dispatch counters explicitly).
func (s *Stream) Insert(now uint64, e Entry) {
	s.syncOcc(now)
	s.Queue.Push(e)
}

// Remove deletes an access from the queue (dual-copy kill, misroute
// recovery; both run after cycle now's occupancy sample). Panics if e is
// not in this stream. Removal shifts younger entries down, invalidating
// the combining window's position anchor, so the window closes.
func (s *Stream) Remove(now uint64, e Entry) {
	s.syncOcc(now)
	s.Queue.Remove(e)
	s.combineLeft = 0
}

// Grant arbitrates a cache port for one access at queue position pos this
// cycle. A granted access on a combining stream opens a combining window:
// up to CombineWidth-1 further same-kind accesses to the same line within
// the window ride along without consuming another port (combined=true).
// group is the access's static combining-group id (GroupNone if it
// belongs to none); it only gates anything under Spec.CombineStatic.
//
//ddvet:hotpath
func (s *Stream) Grant(pos int, addr uint32, isLoad bool, group int) (ok, combined bool) {
	if s.combineLeft > 0 && s.combineIsLoad == isLoad &&
		s.Cache.SameLine(s.combineLine, addr) &&
		pos >= 0 && pos-s.combineAnchor < s.Spec.CombineWidth &&
		(!s.Spec.CombineStatic || (group != GroupNone && group == s.combineGroup)) {
		s.combineLeft--
		s.Stats.Combined++
		return true, true
	}
	if s.GrantHook != nil && !s.GrantHook(s.ID, addr, isLoad) {
		return false, false
	}
	if !s.Ports.Grant(addr, !isLoad) {
		return false, false
	}
	if s.Spec.CombineWidth > 1 && (!s.Spec.CombineStatic || group != GroupNone) {
		s.combineLine = addr
		s.combineLeft = s.Spec.CombineWidth - 1
		s.combineIsLoad = isLoad
		s.combineAnchor = pos
		s.combineGroup = group
	}
	return true, false
}

// CombineWindow exposes the current combining-window state for
// diagnostics: how many ride-along slots remain (0 = closed), the line
// address the window covers, and its static group id.
func (s *Stream) CombineWindow() (left int, line uint32, group int) {
	return s.combineLeft, s.combineLine, s.combineGroup
}

// CommitStore performs a store's commit-time cache write: arbitrate a
// port (participating in combining), then access the cache. The entry
// must be the queue head — memory instructions commit in program order,
// so a store that is not its stream's oldest entry is a pipeline bug and
// panics. On CommitMSHRStall the port stays consumed, as it would in
// hardware; the caller retries next cycle.
//
//ddvet:hotpath
func (s *Stream) CommitStore(now uint64, e Entry, addr uint32, group int) (CommitStatus, bool) {
	if s.Queue.Len() == 0 || s.Queue.Head() != e {
		panic("memsys: CommitStore on an entry that is not the stream head")
	}
	ok, combined := s.Grant(0, addr, false, group)
	if !ok {
		s.Stats.StorePortStalls++
		return CommitPortStall, false
	}
	if _, accepted := s.Cache.Access(now, addr, true); !accepted {
		s.Stats.StoreMSHRStalls++
		return CommitMSHRStall, false
	}
	return CommitOK, combined
}

// Retire removes a committing access from the queue head during cycle
// now's commit stage — before the cycle's occupancy sample, so the
// integral is advanced only through now-1. Commit order is program order,
// so the access must be the oldest entry; anything else is a pipeline bug
// and panics.
//
//ddvet:hotpath
func (s *Stream) Retire(now uint64, e Entry) {
	if s.Queue.Len() == 0 || s.Queue.Head() != e {
		panic("memsys: retiring an entry that is not the stream head")
	}
	if now > 0 {
		s.syncOcc(now - 1)
	}
	s.Queue.PopHead()
}

// Squash removes every access younger than maxSeq and returns how many
// were dropped. A squash mid-cycle must also close the combining window:
// its anchor is a queue position that may now name a different (younger,
// re-dispatched) access, and a post-recovery access must not ride a grant
// won by a squashed one.
func (s *Stream) Squash(now, maxSeq uint64) int {
	s.syncOcc(now)
	s.combineLeft = 0
	return s.Queue.TruncateYounger(maxSeq)
}

// Drain empties the queue (at the commit stage of cycle now, before the
// cycle's occupancy sample) and returns how many entries were still in
// flight — 0 for a cleanly drained pipeline, which tests assert. The
// combining window cannot survive without its anchor entry.
func (s *Stream) Drain(now uint64) int {
	if now > 0 {
		s.syncOcc(now - 1)
	}
	s.combineLeft = 0
	return s.Queue.Clear()
}

// Transfer moves a wrongly-steered access from one stream to another
// (misroute recovery): it is removed from its old queue, appended to the
// new one — recovery squashed everything younger, so the tail position is
// its program-order slot — and the dispatch accounting follows it.
func Transfer(now uint64, from, to *Stream, e Entry) {
	from.Remove(now, e)
	to.Insert(now, e)
	from.Stats.Dispatched--
	to.Stats.Dispatched++
}
