package sched

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNextReturnsEarliestFutureWake(t *testing.T) {
	s := New(8)
	s.Add(50)
	s.Add(10)
	s.Add(30)
	if w, ok := s.Next(0); !ok || w != 10 {
		t.Fatalf("Next(0) = %d,%v; want 10,true", w, ok)
	}
	// Next does not consume a future wake: asking again gives the same one.
	if w, ok := s.Next(0); !ok || w != 10 {
		t.Fatalf("second Next(0) = %d,%v; want 10,true", w, ok)
	}
	if w, ok := s.Next(10); !ok || w != 30 {
		t.Fatalf("Next(10) = %d,%v; want 30,true", w, ok)
	}
}

func TestWakeAtCurrentCycleIsDropped(t *testing.T) {
	// A wake registered for the current cycle (or the past) is due, not
	// future: Next must not return it, or the engine would spin without
	// advancing.
	s := New(4)
	s.Add(7)
	if _, ok := s.Next(7); ok {
		t.Fatal("Next(7) returned a wake for cycle 7; wakes must be strictly future")
	}
	if s.Len() != 0 {
		t.Fatalf("due wake not dropped: Len = %d", s.Len())
	}
}

func TestDuplicateWakesCoalesce(t *testing.T) {
	// Several subsystems may register the same cycle (e.g. two loads whose
	// fills complete together). All duplicates resolve to one effective
	// wake and are all dropped once the cycle passes.
	s := New(8)
	for i := 0; i < 5; i++ {
		s.Add(42)
	}
	s.Add(99)
	if w, ok := s.Next(0); !ok || w != 42 {
		t.Fatalf("Next(0) = %d,%v; want 42,true", w, ok)
	}
	if w, ok := s.Next(42); !ok || w != 99 {
		t.Fatalf("Next(42) = %d,%v; want 99,true", w, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("duplicates of cycle 42 not all dropped: Len = %d", s.Len())
	}
}

func TestStaleWakesAreLazilyCancelled(t *testing.T) {
	// Cancellation contract: wakes for squashed instructions are never
	// removed eagerly; they become stale and Next drops them the moment the
	// clock reaches them. A stale wake may surface once as a spurious
	// (sound, merely wasteful) wake — it must never hide a later real one.
	s := New(8)
	s.Add(20) // will become stale (e.g. squashed load's fill)
	s.Add(60) // the real next event
	if w, _ := s.Next(0); w != 20 {
		t.Fatalf("expected the spurious wake first, got %d", w)
	}
	// Engine wakes at 20, finds nothing to do, asks again.
	if w, ok := s.Next(20); !ok || w != 60 {
		t.Fatalf("Next(20) = %d,%v; want 60,true", w, ok)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Sched
	if _, ok := s.Next(0); ok {
		t.Fatal("empty zero-value scheduler returned a wake")
	}
	s.Add(3)
	if w, ok := s.Next(1); !ok || w != 3 {
		t.Fatalf("Next = %d,%v; want 3,true", w, ok)
	}
}

// TestPropertyMatchesReference drives random Add/Next sequences against a
// sorted-slice reference model: Next(now) must always equal the smallest
// registered cycle strictly greater than now, with everything at or below
// now discarded.
func TestPropertyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := New(0)
		var ref []uint64
		now := uint64(0)
		for op := 0; op < 300; op++ {
			if rng.Intn(3) > 0 {
				// Mostly adds, biased around the current cycle so due,
				// duplicate and far-future wakes all occur.
				c := now + uint64(rng.Intn(50))
				if rng.Intn(4) == 0 && now > 0 {
					c = now - uint64(rng.Intn(int(now)+1)) // past/stale
				}
				s.Add(c)
				ref = append(ref, c)
			} else {
				now += uint64(rng.Intn(40))
				got, ok := s.Next(now)
				// Reference: drop ≤ now, take the min of the rest.
				live := ref[:0]
				for _, c := range ref {
					if c > now {
						live = append(live, c)
					}
				}
				ref = live
				sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
				if len(ref) == 0 {
					if ok {
						t.Fatalf("trial %d: Next(%d) = %d, want none", trial, now, got)
					}
				} else if !ok || got != ref[0] {
					t.Fatalf("trial %d: Next(%d) = %d,%v; want %d", trial, now, got, ok, ref[0])
				}
				if s.Len() != len(ref) {
					t.Fatalf("trial %d: Len = %d, reference %d", trial, s.Len(), len(ref))
				}
			}
		}
	}
}

// TestMonotonicDrain checks that repeatedly advancing the clock through a
// batch of wakes yields them in nondecreasing order and drains the heap.
func TestMonotonicDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := New(64)
	for i := 0; i < 1000; i++ {
		s.Add(uint64(rng.Intn(10000)))
	}
	now, last := uint64(0), uint64(0)
	for {
		w, ok := s.Next(now)
		if !ok {
			break
		}
		if w < last {
			t.Fatalf("wakes out of order: %d after %d", w, last)
		}
		last, now = w, w
	}
	if s.Len() != 0 {
		t.Fatalf("heap not drained: Len = %d", s.Len())
	}
}

func TestSteadyStateAddAllocatesNothing(t *testing.T) {
	s := New(1024)
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 512; i++ {
			s.Add(1000 + i)
		}
		s.Next(5000) // drain
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add/Next allocated %v times per run; want 0", allocs)
	}
}
