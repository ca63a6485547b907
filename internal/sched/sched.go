// Package sched is the discrete-event backbone of the simulator's
// event-driven run loop: a monotonic next-event scheduler holding wake
// entries keyed by cycle.
//
// The core registers a wake whenever it creates a *future* timestamp — a
// cache fill completing (load ready), address generation finishing, a
// misroute-recovery stall expiring, an MSHR freeing — and, when a cycle
// provably does nothing (see the quiescence invariant in DESIGN.md §12),
// asks Next for the earliest cycle at which anything could change and
// advances the clock straight to it.
//
// The scheduler is deliberately permissive: wakes are uncoalesced on Add
// (duplicates are cheap) and never cancelled eagerly. A stale wake — one
// registered for an instruction that was later squashed — is merely
// *spurious*: the engine executes one real cycle at the woken time,
// observes no progress, and skips again. Spurious wakes
// cost a handful of cycles of simulation; missed wakes would cost
// correctness, so the design never requires explicit cancellation to be
// sound. Lazy cancellation happens in Next, which drops every entry at or
// below the current cycle.
//
// The heap is a preallocated slab of plain uint64 cycles; in steady state
// (once the slab has grown to the pipeline's natural wake population)
// Add/Next allocate nothing, keeping the simulator's hot loop
// allocation-free.
package sched

// Sched is a min-heap of wake cycles. The zero value is usable; New
// preallocates to avoid growth in the hot loop.
type Sched struct {
	heap []uint64
}

// New returns a scheduler with capacity for n outstanding wakes before the
// slab has to grow.
func New(n int) *Sched {
	return &Sched{heap: make([]uint64, 0, n)}
}

// Len returns the number of registered wakes, counting duplicates and
// stale entries that Next has not yet dropped.
func (s *Sched) Len() int { return len(s.heap) }

// Add registers a wake at the given cycle. Duplicate cycles are allowed
// and equivalent to a single wake; callers register unconditionally rather
// than deduplicating.
//
//ddvet:hotpath
func (s *Sched) Add(cycle uint64) {
	//ddvet:allow hotpath-append -- the slab grows to the pipeline's natural wake population once, then Add reuses it; steady state never reallocates
	s.heap = append(s.heap, cycle)
	// Sift up.
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent] <= s.heap[i] {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// Next drops every wake at or below now (they are due or stale — lazy
// cancellation) and returns the earliest remaining wake cycle. ok is false
// when no future wake is registered.
//
//ddvet:hotpath
func (s *Sched) Next(now uint64) (cycle uint64, ok bool) {
	for len(s.heap) > 0 && s.heap[0] <= now {
		s.pop()
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0], true
}

// pop removes the minimum wake and restores the heap invariant.
//
//ddvet:hotpath
func (s *Sched) pop() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.heap[l] < s.heap[smallest] {
			smallest = l
		}
		if r < n && s.heap[r] < s.heap[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}
