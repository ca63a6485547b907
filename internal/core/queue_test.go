package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// queueCore builds an idle core whose streams the queue tests drive by
// hand. Its one-instruction program gives fabricated accesses a valid PC.
func queueCore(t *testing.T, cfg config.Config) *Core {
	t.Helper()
	c, err := New(compile(t, "\t.text\nmain:\n\tlw $t0, 0($sp)\n\thalt\n"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// accesses returns n fresh memory accesses with sequence numbers 0..n-1.
// They come from the heap, not the pool, which holds only ROBSize entries.
func accesses(c *Core, n int, isLoad bool) []*uop {
	us := make([]*uop, n)
	for i := range us {
		u := new(uop)
		u.seq, u.isMem, u.isLoad = uint64(i), true, isLoad
		u.ef.PC = c.textBase
		us[i] = u
	}
	return us
}

// checkOrder asserts the queue holds exactly want, oldest first, with
// consistent O(1) position lookups.
func checkOrder(t *testing.T, s *stream, want []*uop) {
	t.Helper()
	if s.n != len(want) {
		t.Fatalf("queue length %d, want %d", s.n, len(want))
	}
	for i, u := range want {
		if s.at(i) != u {
			t.Fatalf("at(%d) = seq %d, want seq %d", i, s.at(i).seq, u.seq)
		}
		if got := s.indexOf(u); got != i {
			t.Fatalf("indexOf(seq %d) = %d, want %d", u.seq, got, i)
		}
		if !s.contains(u) {
			t.Fatalf("contains(seq %d) = false, want true", u.seq)
		}
	}
}

// checkPending asserts the stream's pending list holds exactly want, in
// program order.
func checkPending(t *testing.T, s *stream, want []*uop) {
	t.Helper()
	var got []uint64
	for u := s.pendHead; u != nil; u = u.pendNext[s.ID] {
		got = append(got, u.seq)
	}
	if len(got) != len(want) {
		t.Fatalf("pending list %v, want %d entries", got, len(want))
	}
	for i, u := range want {
		if got[i] != u.seq {
			t.Fatalf("pending list %v, want seq %d at %d", got, u.seq, i)
		}
	}
	if len(want) > 0 && s.pendTail != want[len(want)-1] {
		t.Fatalf("pending tail = seq %d, want seq %d", s.pendTail.seq, want[len(want)-1].seq)
	}
}

func mustPanic(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		p := recover()
		if p == nil {
			t.Fatalf("%s did not panic", name)
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %v, want a message containing %q", name, p, want)
		}
	}()
	fn()
}

func TestQueuePushPopOrder(t *testing.T) {
	c := queueCore(t, config.Default())
	s := c.streams[0]
	us := accesses(c, 6, true)
	for _, u := range us {
		c.enqueue(s, u)
	}
	checkOrder(t, s, us)
	for i, u := range us {
		if s.at(0) != u {
			t.Fatalf("head #%d = seq %d, want seq %d", i, s.at(0).seq, u.seq)
		}
		s.popHead()
		if s.contains(u) {
			t.Fatalf("popped entry seq %d still reported in queue", u.seq)
		}
	}
	if s.n != 0 {
		t.Fatalf("queue length %d after draining, want 0", s.n)
	}
}

// TestQueueWrapped cycles entries through the ring several times over,
// so the queue straddles the ring's end, the regime where reindexing bugs
// would show. The ring is as large as the ROB's, and filling it panics.
func TestQueueWrapped(t *testing.T) {
	cfg := config.Default()
	cfg.ROBSize = 16
	c := queueCore(t, cfg)
	s := c.streams[0]
	if len(s.ring) != 16 {
		t.Fatalf("ring has %d slots, want 16", len(s.ring))
	}
	us := accesses(c, 60, true)
	live := us[:10]
	for _, u := range live {
		c.enqueue(s, u)
	}
	for _, u := range us[10:50] {
		c.enqueue(s, u)
		s.popHead()
		live = append(live[1:], u)
	}
	checkOrder(t, s, live)
	for _, u := range us[50:56] {
		c.enqueue(s, u)
	}
	mustPanic(t, "push into a full ring", "overflow", func() { c.enqueue(s, us[56]) })
}

// TestROBOverflowPanics: dispatch stops at ROBSize entries, so the ROB
// ring, like the stream rings and the fetch deque, panics rather than
// grows when pushed past its length.
func TestROBOverflowPanics(t *testing.T) {
	cfg := config.Default()
	cfg.ROBSize = 16
	c := queueCore(t, cfg)
	us := accesses(c, len(c.rob)+1, true)
	for _, u := range us[:len(c.rob)] {
		c.robPush(u)
	}
	defer func() {
		if p := recover(); p != errROBOverflow {
			t.Fatalf("push into a full ROB panicked with %v, want %v", p, errROBOverflow)
		}
	}()
	c.robPush(us[len(c.rob)])
}

func TestQueueRemove(t *testing.T) {
	c := queueCore(t, config.Default())
	s := c.streams[0]
	us := accesses(c, 5, true)
	for _, u := range us {
		c.enqueue(s, u)
	}

	c.dequeue(s, us[2]) // mid-queue: the younger side shifts down
	checkOrder(t, s, []*uop{us[0], us[1], us[3], us[4]})
	checkPending(t, s, []*uop{us[0], us[1], us[3], us[4]})

	c.dequeue(s, us[0]) // head
	checkOrder(t, s, []*uop{us[1], us[3], us[4]})

	c.dequeue(s, us[4]) // tail
	checkOrder(t, s, []*uop{us[1], us[3]})
	checkPending(t, s, []*uop{us[1], us[3]})

	if s.contains(us[2]) {
		t.Fatal("removed entry still in the queue")
	}
}

// TestQueueSquash: a squash drops the program-order suffix younger than
// the misrouted access from both the ring and the pending list, and the
// queue takes re-dispatched entries afterwards.
func TestQueueSquash(t *testing.T) {
	c := queueCore(t, config.Default())
	s := c.streams[0]
	us := accesses(c, 6, true)
	for _, u := range us {
		c.enqueue(s, u)
	}
	c.squash(s, 2)
	checkOrder(t, s, us[:3])
	checkPending(t, s, us[:3])
	for _, u := range us[3:] {
		if s.contains(u) || u.inPend[s.ID] {
			t.Fatalf("squashed entry seq %d still queued", u.seq)
		}
	}
	c.enqueue(s, us[3]) // the replay re-dispatches it
	checkOrder(t, s, us[:4])
	checkPending(t, s, us[:4])
}

// TestDualMembership verifies an access can occupy two streams at once
// with independent positions — the SteerDual shadow-copy representation.
func TestDualMembership(t *testing.T) {
	c := queueCore(t, config.Default().WithPorts(2, 2))
	lsq, lvaq := c.streams[0], c.streams[1]
	us := accesses(c, 4, true)
	for _, u := range us[:3] {
		c.enqueue(lsq, u)
	}
	dual := us[3]
	c.enqueue(lsq, dual)
	c.enqueue(lvaq, dual)
	if got := lsq.indexOf(dual); got != 3 {
		t.Fatalf("indexOf in the LSQ = %d, want 3", got)
	}
	if got := lvaq.indexOf(dual); got != 0 {
		t.Fatalf("indexOf in the LVAQ = %d, want 0", got)
	}
	checkPending(t, lvaq, []*uop{dual})
	c.dequeue(lvaq, dual) // kill the shadow copy
	if lvaq.contains(dual) || dual.inPend[lvaq.ID] {
		t.Fatal("shadow copy still in the LVAQ after the kill")
	}
	checkOrder(t, lsq, us)
	checkPending(t, lsq, us)
}

func TestQueuePanics(t *testing.T) {
	c := queueCore(t, config.Default())
	s := c.streams[0]
	us := accesses(c, 2, true)
	c.enqueue(s, us[0])
	mustPanic(t, "double push", "pushed twice", func() { c.enqueue(s, us[0]) })
	mustPanic(t, "removal of an absent entry", "not in the stream", func() { c.dequeue(s, us[1]) })
}

// TestQueueHeadChecks pins both head-only invariants: memory accesses
// leave their queues in program order, so committing a store or retiring
// any access that is not its stream's oldest entry is a pipeline bug and
// panics, each with its own message.
func TestQueueHeadChecks(t *testing.T) {
	c := queueCore(t, config.Default())
	s := c.streams[0]
	us := accesses(c, 3, false)
	older, younger, unqueued := us[0], us[1], us[2]
	c.enqueue(s, older)
	c.enqueue(s, younger)
	c.now = 1

	mustPanic(t, "retire of a non-head", "retiring", func() { c.retire(s, younger) })
	mustPanic(t, "retire of an unqueued entry", "retiring", func() { c.retire(s, unqueued) })

	// A completed store at the ROB head that is not its stream's head.
	younger.completed = true
	c.robPush(younger)
	mustPanic(t, "commit of a non-head store", "committing a store", c.commitStage)
	c.robPopHead()

	// The real head commits and retires.
	older.completed = true
	c.robPush(older)
	c.commitStage()
	checkOrder(t, s, []*uop{younger})
}

// TestCombineWindowClosesOnSquash: a queue mutation mid-cycle shifts or
// frees queue positions, so an access granted after it must not ride the
// stale window even if its new position and line match. Squash and
// dequeue both close the window.
func TestCombineWindowClosesOnSquash(t *testing.T) {
	c := queueCore(t, config.Default().WithPorts(2, 1).WithOptimizations(4))
	s := c.streams[1]
	if s.Spec.CombineWidth != 4 || s.Spec.Ports != 1 {
		t.Fatalf("LVAQ spec %+v, want one port and a 4-wide window", s.Spec)
	}
	us := accesses(c, 4, true)
	for _, u := range us {
		c.enqueue(s, u)
	}
	s.Reset()
	if ok, _ := s.Grant(1, 0x100, true, memsys.GroupNone); !ok {
		t.Fatal("anchor grant refused")
	}
	c.squash(s, 0) // drop seqs 1..3
	// Same line, position inside the old window: it needs its own port,
	// and the single port is already consumed.
	if ok, combined := s.Grant(1, 0x104, true, memsys.GroupNone); ok || combined {
		t.Fatalf("post-squash grant = (%v,%v), want (false,false)", ok, combined)
	}

	s.Reset()
	if ok, _ := s.Grant(0, 0x100, true, memsys.GroupNone); !ok {
		t.Fatal("anchor grant refused")
	}
	c.dequeue(s, us[0])
	if _, combined := s.Grant(0, 0x104, true, memsys.GroupNone); combined {
		t.Fatal("window survived dequeue")
	}
}

// TestMisrouteTransfer: a misrouted access moves to the young end of its
// right stream with its dispatch count and its pending link following it.
func TestMisrouteTransfer(t *testing.T) {
	c := queueCore(t, config.Default().WithPorts(2, 2))
	lsq, lvaq := c.streams[c.nonlocalIdx], c.streams[c.localIdx]
	u := accesses(c, 1, true)[0]
	u.ef.Addr = isa.DataBase // non-local, steered local
	u.stream = lvaq.ID
	c.robPush(u)
	c.enqueue(lvaq, u)
	lvaq.Stats.Dispatched++

	c.checkSteering(u)
	if !u.misrouted || u.stream != lsq.ID || c.stats.Misroutes != 1 {
		t.Fatalf("after recovery: misrouted=%v stream=%d misroutes=%d, want true/%d/1",
			u.misrouted, u.stream, c.stats.Misroutes, lsq.ID)
	}
	checkOrder(t, lvaq, nil)
	checkOrder(t, lsq, []*uop{u})
	checkPending(t, lvaq, nil)
	checkPending(t, lsq, []*uop{u})
	if lvaq.Stats.Dispatched != 0 || lsq.Stats.Dispatched != 1 {
		t.Fatalf("dispatch counters after transfer = %d/%d, want 0/1",
			lvaq.Stats.Dispatched, lsq.Stats.Dispatched)
	}
}
