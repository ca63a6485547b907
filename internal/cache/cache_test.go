package cache

import (
	"testing"
	"testing/quick"
)

func newMem() *MainMemory { return &MainMemory{Name: "mem", Latency: 50} }

func small(lower Level) *Cache {
	return New(Config{Name: "L1", SizeBytes: 256, LineBytes: 32, Assoc: 2, HitLatency: 2}, lower)
}

func TestColdMissThenHit(t *testing.T) {
	mem := newMem()
	c := small(mem)
	ready, ok := c.Access(0, 0x1000, false)
	if !ok {
		t.Fatal("cold miss rejected")
	}
	if want := uint64(2 + 50); ready != want {
		t.Errorf("miss ready = %d, want %d", ready, want)
	}
	ready, ok = c.Access(100, 0x1004, false)
	if !ok || ready != 102 {
		t.Errorf("hit ready = %d,%v, want 102", ready, ok)
	}
	if c.Stats.Reads != 2 || c.Stats.ReadMisses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestMSHRMerge(t *testing.T) {
	mem := newMem()
	c := small(mem)
	r1, _ := c.Access(0, 0x1000, false)
	r2, ok := c.Access(1, 0x1008, false) // same line, fill in flight
	if !ok {
		t.Fatal("merged access rejected")
	}
	if r2 != r1 {
		t.Errorf("merged ready = %d, want %d", r2, r1)
	}
	if c.Stats.MergedMisses != 1 || c.Stats.ReadMisses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if mem.Reads != 1 {
		t.Errorf("memory reads = %d, want 1 (merge must not refetch)", mem.Reads)
	}
}

func TestMSHRExhaustion(t *testing.T) {
	mem := newMem()
	c := New(Config{Name: "L1", SizeBytes: 1024, LineBytes: 32, Assoc: 1, HitLatency: 2, MSHRs: 2}, mem)
	// Three different sets so the in-flight fills are not replacement
	// victims — only the MSHR limit can reject.
	if _, ok := c.Access(0, 0x0000, false); !ok {
		t.Fatal("miss 1 rejected")
	}
	if _, ok := c.Access(0, 0x0040, false); !ok {
		t.Fatal("miss 2 rejected")
	}
	// A fill is an event only for an access waiting on one: none yet.
	if next := c.NextFillDone(0); next != 0 {
		t.Errorf("NextFillDone before any refusal = %d, want 0", next)
	}
	if _, ok := c.Access(0, 0x0080, false); ok {
		t.Error("third concurrent miss accepted with 2 MSHRs")
	}
	if c.Stats.Rejected != 1 {
		t.Errorf("Rejected = %d", c.Stats.Rejected)
	}
	if next := c.NextFillDone(0); next != 52 {
		t.Errorf("NextFillDone in the refusing cycle = %d, want 52", next)
	}
	if next := c.NextFillDone(1); next != 0 {
		t.Errorf("NextFillDone a cycle without a refusal = %d, want 0", next)
	}
	// After the fills complete the cache accepts misses again.
	if _, ok := c.Access(100, 0x0080, false); !ok {
		t.Error("miss after fills complete still rejected")
	}
}

func TestLRUReplacement(t *testing.T) {
	mem := newMem()
	// 2-way, 64-byte sets: two lines per set, 1 set of each index.
	c := New(Config{Name: "L1", SizeBytes: 64, LineBytes: 32, Assoc: 2, HitLatency: 1}, mem)
	// All three addresses map to set 0 (same index bits).
	a, b, d := uint32(0x0000), uint32(0x0040), uint32(0x0080)
	c.Access(0, a, false)
	c.Access(100, b, false)
	c.Access(200, a, false) // touch a: b becomes LRU
	c.Access(300, d, false) // evicts b
	if !c.Probe(a) {
		t.Error("a evicted though recently used")
	}
	if c.Probe(b) {
		t.Error("b survived though LRU")
	}
	if !c.Probe(d) {
		t.Error("d not installed")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	mem := newMem()
	c := New(Config{Name: "L1", SizeBytes: 32, LineBytes: 32, Assoc: 1, HitLatency: 1}, mem)
	c.Access(0, 0x0000, true)    // dirty line
	c.Access(100, 0x1000, false) // evicts it
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	if mem.Writes != 1 {
		t.Errorf("memory writes = %d, want 1", mem.Writes)
	}
	// Clean eviction must not write back.
	c.Access(200, 0x2000, false)
	if c.Stats.Writebacks != 1 {
		t.Errorf("clean eviction wrote back (wb=%d)", c.Stats.Writebacks)
	}
}

func TestWriteAllocate(t *testing.T) {
	mem := newMem()
	c := small(mem)
	c.Access(0, 0x1000, true)
	if c.Stats.WriteMisses != 1 {
		t.Errorf("write miss not counted: %+v", c.Stats)
	}
	ready, _ := c.Access(100, 0x1000, false)
	if ready != 102 {
		t.Errorf("read after write-allocate = %d, want hit at 102", ready)
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	mem := newMem()
	l2 := New(Config{Name: "L2", SizeBytes: 4096, LineBytes: 32, Assoc: 4, HitLatency: 12}, mem)
	l1 := New(Config{Name: "L1", SizeBytes: 256, LineBytes: 32, Assoc: 2, HitLatency: 2}, l2)

	// Cold: L1 miss + L2 miss -> 2 + 12 + 50.
	ready, _ := l1.Access(0, 0x1000, false)
	if want := uint64(2 + 12 + 50); ready != want {
		t.Errorf("cold access ready = %d, want %d", ready, want)
	}
	// Evict from L1 (direct conflict), keep in L2: L1 miss + L2 hit.
	// 256B/2-way/32B lines = 4 sets; 0x1000 and 0x1080 and 0x1100 share set 0.
	l1.Access(100, 0x1080, false)
	l1.Access(200, 0x1100, false) // 0x1000 now evicted from L1
	ready, _ = l1.Access(300, 0x1000, false)
	if want := uint64(300 + 2 + 12); ready != want {
		t.Errorf("L2 hit ready = %d, want %d", ready, want)
	}
	if l2.Stats.Reads != 4 {
		t.Errorf("L2 reads = %d, want 4", l2.Stats.Reads)
	}
}

func TestSharedL2SeesBothL1s(t *testing.T) {
	mem := newMem()
	l2 := New(Config{Name: "L2", SizeBytes: 4096, LineBytes: 32, Assoc: 4, HitLatency: 12}, mem)
	l1 := New(Config{Name: "L1", SizeBytes: 256, LineBytes: 32, Assoc: 2, HitLatency: 2}, l2)
	lvc := New(Config{Name: "LVC", SizeBytes: 128, LineBytes: 32, Assoc: 1, HitLatency: 1}, l2)
	l1.Access(0, 0x1000, false)
	lvc.Access(0, 0x7FFF0000, false)
	if l2.Stats.Reads != 2 {
		t.Errorf("shared L2 reads = %d, want 2", l2.Stats.Reads)
	}
}

func TestMissRate(t *testing.T) {
	mem := newMem()
	c := small(mem)
	for i := 0; i < 10; i++ {
		c.Access(uint64(i*100), 0x2000, false)
	}
	if got := c.Stats.MissRate(); got != 0.1 {
		t.Errorf("miss rate = %g, want 0.1", got)
	}
	var idle Stats
	if idle.MissRate() != 0 {
		t.Error("idle miss rate not 0")
	}
}

func TestLineAddrAndSameLine(t *testing.T) {
	c := small(newMem())
	if c.LineAddr(0x1234) != 0x1220 {
		t.Errorf("LineAddr = %#x", c.LineAddr(0x1234))
	}
	if !c.SameLine(0x1220, 0x123F) {
		t.Error("same-line addresses reported different")
	}
	if c.SameLine(0x123F, 0x1240) {
		t.Error("different lines reported same")
	}
}

func TestFlush(t *testing.T) {
	mem := newMem()
	c := small(mem)
	c.Access(0, 0x1000, true)
	c.Access(0, 0x2000, false)
	c.Flush(100)
	if c.Probe(0x1000) || c.Probe(0x2000) {
		t.Error("lines survive flush")
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("flush writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	mem := newMem()
	// 2KB direct-mapped, 32B lines: the paper's LVC. Addresses 2KB apart
	// conflict.
	c := New(Config{Name: "LVC", SizeBytes: 2048, LineBytes: 32, Assoc: 1, HitLatency: 1}, mem)
	c.Access(0, 0x10000, false)
	c.Access(100, 0x10000+2048, false)
	c.Access(200, 0x10000, false)
	if c.Stats.ReadMisses != 3 {
		t.Errorf("conflict misses = %d, want 3", c.Stats.ReadMisses)
	}
}

func TestBadConfigPanics(t *testing.T) {
	bad := []Config{
		{Name: "x", SizeBytes: 100, LineBytes: 32, Assoc: 1, HitLatency: 1},
		{Name: "x", SizeBytes: 256, LineBytes: 33, Assoc: 1, HitLatency: 1},
		{Name: "x", SizeBytes: 16, LineBytes: 32, Assoc: 1, HitLatency: 1},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, newMem())
		}()
	}
}

func TestMainMemoryCounts(t *testing.T) {
	m := newMem()
	if r, ok := m.Access(10, 0, false); !ok || r != 60 {
		t.Errorf("read = %d,%v", r, ok)
	}
	if r, ok := m.Access(10, 0, true); !ok || r != 10 {
		t.Errorf("write = %d,%v (writes are buffered)", r, ok)
	}
	if m.Reads != 1 || m.Writes != 1 {
		t.Errorf("counts = %d,%d", m.Reads, m.Writes)
	}
}

// Property: a second access to any address at a later time is always a hit
// (never increases the miss count) as long as no conflicting access
// intervenes.
func TestRevisitIsHitProperty(t *testing.T) {
	mem := newMem()
	c := New(Config{Name: "L1", SizeBytes: 32768, LineBytes: 32, Assoc: 2, HitLatency: 2}, mem)
	now := uint64(0)
	prop := func(addr uint32, write bool) bool {
		now += 1000
		c.Access(now, addr, write)
		missesBefore := c.Stats.Misses()
		now += 1000
		c.Access(now, addr, false)
		return c.Stats.Misses() == missesBefore
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ready time never precedes the request time plus hit latency.
func TestReadyMonotoneProperty(t *testing.T) {
	mem := newMem()
	c := small(mem)
	now := uint64(0)
	prop := func(addr uint32, write bool) bool {
		now += 3
		ready, ok := c.Access(now, addr, write)
		return !ok || ready >= now+c.Config().HitLatency
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: total misses never exceed total accesses.
func TestMissesBoundedProperty(t *testing.T) {
	mem := newMem()
	c := small(mem)
	now := uint64(0)
	prop := func(addr uint32, write bool) bool {
		now += 7
		c.Access(now, addr%4096, write)
		return c.Stats.Misses() <= c.Stats.Accesses()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
