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

	Occupancy uint64 // integral of the pipeline's queue length over cycles
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

// Stream is the cache side of one memory access stream: the cache, the
// per-cycle port state in front of it, and the stream's statistics. The
// pipeline steers each memory instruction to a stream at dispatch, keeps
// the stream's access queue itself, and drives all streams uniformly
// every cycle.
type Stream struct {
	ID    int
	Spec  config.StreamSpec
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
		Cache: c,
		Ports: NewPorts(spec.PortModel, spec.Ports, spec.Cache.LineBytes),
	}
}

// Reset starts a new cycle: all ports free, combining window closed.
func (s *Stream) Reset() {
	s.Ports.Reset()
	s.combineLeft = 0
}

// CloseWindow closes the combining window mid-cycle. The pipeline calls
// it whenever its queue changes shape under the window: the window's
// anchor is a queue position, which a removal or a squash may leave
// naming a different access, and no access may ride a grant won by one
// that has left the queue.
func (s *Stream) CloseWindow() { s.combineLeft = 0 }

// NextWake reports the earliest cycle strictly after now at which this
// stream can make progress it could not make now, or 0 when it holds no
// such future event. Today that is exactly its cache's next fill
// completion — an MSHR-rejected access can only be accepted once a fill
// frees an MSHR. Port availability and the combining window need no wake:
// both reset at the next cycle boundary, so they never block longer than
// one cycle on their own.
func (s *Stream) NextWake(now uint64) uint64 { return s.Cache.NextFillDone(now) }

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
// port for queue position 0 (participating in combining), then access
// the cache. The pipeline commits a store only from its queue's head. On
// CommitMSHRStall the port stays consumed, as it would in hardware; the
// caller retries next cycle.
//
//ddvet:hotpath
func (s *Stream) CommitStore(now uint64, addr uint32, group int) (CommitStatus, bool) {
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
