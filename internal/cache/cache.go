// Package cache models the data memory hierarchy: lockup-free set
// associative write-back caches over a fixed-latency main memory.
//
// The model is a timing model, not a data store — the simulator keeps
// architectural data in package mem; caches only decide *when* an access
// completes. Each access is stamped with the current cycle and returns the
// cycle at which its data is available. Misses to a line that is already
// being filled merge with the outstanding fill (MSHR behaviour), and a
// cache refuses new misses while all its MSHRs are busy, which the core
// handles by retrying the access on a later cycle.
//
// Ports are *not* modelled here: following the paper (§4, "ideal" ports),
// an N-port cache can service any N requests per cycle, and the per-cycle
// port arbitration happens in the pipeline model.
package cache

import (
	"fmt"
	"math/bits"
)

// Level is a component of the memory hierarchy that can service block
// requests. Access returns the cycle at which the requested data is
// available and whether the request was accepted; a rejected request
// (MSHRs exhausted) must be retried on a later cycle.
type Level interface {
	Access(now uint64, addr uint32, write bool) (ready uint64, ok bool)
	LevelName() string
}

// MainMemory is the bottom of the hierarchy: a fixed-latency,
// fully-interleaved memory that accepts every request (paper Table 1:
// "50-cycle access time, fully interleaved").
type MainMemory struct {
	Name    string
	Latency uint64

	Reads  uint64
	Writes uint64
}

// Access implements Level.
func (m *MainMemory) Access(now uint64, _ uint32, write bool) (uint64, bool) {
	if write {
		m.Writes++
		// Writebacks retire through a write buffer and are off the load
		// critical path; they still count as memory traffic.
		return now, true
	}
	m.Reads++
	return now + m.Latency, true
}

// LevelName implements Level.
func (m *MainMemory) LevelName() string { return m.Name }

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int // 1 (or 0) = direct-mapped
	HitLatency uint64
	// MSHRs bounds the number of outstanding line fills; 0 means the
	// package default (16).
	MSHRs int
}

// DefaultMSHRs is the number of outstanding misses a cache supports when
// the configuration does not say otherwise.
const DefaultMSHRs = 16

// Stats are the access counters of one cache.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	// MergedMisses counts accesses that hit an in-flight fill (MSHR merge).
	MergedMisses uint64
	Writebacks   uint64
	// Rejected counts accesses refused because all MSHRs were busy.
	Rejected uint64
}

// Accesses returns the total demand accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns the total demand misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses per access (0 if idle).
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses()) / float64(a)
	}
	return 0
}

type line struct {
	tag     uint32
	valid   bool
	dirty   bool
	readyAt uint64 // cycle the fill completes; 0 for resident data
	lruTick uint64
}

// Cache is one level of the hierarchy. Create with New.
type Cache struct {
	cfg   Config
	lower Level

	sets      [][]line
	setShift  uint
	setMask   uint32
	lineShift uint

	tick     uint64 // LRU clock
	inflight []uint64
	mshrs    int
	// rejectedAt is the cycle of the last access the cache refused
	// (^0 before the first).
	rejectedAt uint64

	Stats Stats
}

// New builds a cache over the given lower level. It panics on a malformed
// configuration (sizes not powers of two, size not divisible by
// line*assoc) since configurations are static.
func New(cfg Config, lower Level) *Cache {
	if cfg.Assoc <= 0 {
		cfg.Assoc = 1
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets (size %d, line %d, assoc %d) not a power of two",
			cfg.Name, nSets, cfg.SizeBytes, cfg.LineBytes, cfg.Assoc))
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = DefaultMSHRs
	}
	c := &Cache{
		cfg:        cfg,
		lower:      lower,
		sets:       make([][]line, nSets),
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:    uint32(nSets - 1),
		mshrs:      cfg.MSHRs,
		rejectedAt: ^uint64(0),
	}
	c.setShift = c.lineShift
	backing := make([]line, nSets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LevelName implements Level.
func (c *Cache) LevelName() string { return c.cfg.Name }

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint32) uint32 {
	return addr &^ (uint32(c.cfg.LineBytes) - 1)
}

// SameLine reports whether two addresses fall in the same cache line.
func (c *Cache) SameLine(a, b uint32) bool { return c.LineAddr(a) == c.LineAddr(b) }

func (c *Cache) pruneInflight(now uint64) {
	live := c.inflight[:0]
	for _, t := range c.inflight {
		if t > now {
			live = append(live, t)
		}
	}
	c.inflight = live
}

// Access implements Level. The returned ready cycle is when the data is
// usable by the requester (load-to-use). Writes hit-allocate; a write's
// ready cycle is when the line is available for the write to complete.
func (c *Cache) Access(now uint64, addr uint32, write bool) (uint64, bool) {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.lineShift

	c.tick++
	// Hit (including hits on in-flight fills).
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ready := now + c.cfg.HitLatency
			if ln.readyAt > now {
				// The line is still being filled: merge with the fill.
				c.Stats.MergedMisses++
				if ln.readyAt > ready {
					ready = ln.readyAt
				}
			}
			ln.lruTick = c.tick
			if write {
				c.Stats.Writes++
				ln.dirty = true
			} else {
				c.Stats.Reads++
			}
			return ready, true
		}
	}

	// Miss: need an MSHR.
	c.pruneInflight(now)
	if len(c.inflight) >= c.mshrs {
		c.Stats.Rejected++
		c.rejectedAt = now
		return 0, false
	}

	// Choose the LRU victim. A victim whose fill is still outstanding
	// cannot be replaced; fall back to rejecting the access.
	victim := -1
	for i := range set {
		ln := &set[i]
		if !ln.valid {
			victim = i
			break
		}
		if ln.readyAt > now {
			continue
		}
		if victim < 0 || ln.lruTick < set[victim].lruTick {
			victim = i
		}
	}
	if victim < 0 {
		c.Stats.Rejected++
		c.rejectedAt = now
		return 0, false
	}

	if write {
		c.Stats.Writes++
		c.Stats.WriteMisses++
	} else {
		c.Stats.Reads++
		c.Stats.ReadMisses++
	}

	ln := &set[victim]
	if ln.valid && ln.dirty {
		c.Stats.Writebacks++
		victimAddr := ln.tag << c.lineShift
		c.lower.Access(now, victimAddr, true)
	}

	lineAddr := c.LineAddr(addr)
	fillReady, _ := c.lower.Access(now+c.cfg.HitLatency, lineAddr, false)
	*ln = line{tag: tag, valid: true, dirty: write, readyAt: fillReady, lruTick: c.tick}
	c.inflight = append(c.inflight, fillReady)
	return fillReady, true
}

// NextFillDone returns the earliest cycle strictly after now at which an
// outstanding fill completes, or 0 when none is in flight or the cache
// refused no access at cycle now. The core's quiescent-cycle skip reads
// it as a next event: an access rejected with all MSHRs busy, or with
// every way of its set still filling, can only be accepted once a fill
// completes, and it retries every cycle until then, so a cycle in which
// no access was refused has no access waiting for a fill.
func (c *Cache) NextFillDone(now uint64) uint64 {
	if c.rejectedAt != now {
		return 0
	}
	var next uint64
	for _, t := range c.inflight {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	return next
}

// Probe reports whether addr is resident (valid tag match) without
// touching LRU state or statistics.
func (c *Cache) Probe(addr uint32) bool {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.lineShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line, counting writebacks for dirty ones.
func (c *Cache) Flush(now uint64) {
	for s := range c.sets {
		for i := range c.sets[s] {
			ln := &c.sets[s][i]
			if ln.valid && ln.dirty {
				c.Stats.Writebacks++
				c.lower.Access(now, ln.tag<<c.lineShift, true)
			}
			*ln = line{}
		}
	}
	c.inflight = c.inflight[:0]
}
