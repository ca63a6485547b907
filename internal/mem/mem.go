// Package mem implements the simulator's byte-addressable main memory as a
// sparse collection of fixed-size pages, so that the disjoint text, data,
// heap and stack regions of the 32-bit address space can be used without
// allocating the whole space.
//
// Pages hang off a two-level page directory: the top ten address bits pick
// one of 1024 tables, each covering 4 MB, and the next ten bits pick one of
// the table's 1024 pages. A lookup is two array loads with no hashing, and
// both indices are in range by construction. A table and a page are
// allocated on the first write inside them; reads of untouched memory
// return zero and allocate nothing.
package mem

import "encoding/binary"

const (
	// PageBytes is the allocation granularity of the sparse memory.
	PageBytes = 1 << pageShift

	pageShift  = 12
	pageMask   = PageBytes - 1
	tableShift = pageShift + 10 // each table covers 4 MB
	tablePages = 1 << (tableShift - pageShift)
	dirTables  = 1 << (32 - tableShift)
)

type page [PageBytes]byte

// table is the second level of the directory: the pages of one 4 MB
// region.
type table [tablePages]*page

// Memory is a sparse byte-addressable memory. The zero value is an empty
// memory.
type Memory struct {
	dir   [dirTables]*table
	pages int
}

// New returns an empty memory. All addresses read as zero until written.
func New() *Memory {
	return new(Memory)
}

// lookup returns the page holding addr, or nil if nothing in it has been
// written.
//
//ddvet:hotpath
func (m *Memory) lookup(addr uint32) *page {
	t := m.dir[addr>>tableShift]
	if t == nil {
		return nil
	}
	return t[addr>>pageShift&(tablePages-1)]
}

// pageForWrite returns the page holding addr, allocating it on the first
// write inside it.
//
//ddvet:hotpath
func (m *Memory) pageForWrite(addr uint32) *page {
	if p := m.lookup(addr); p != nil {
		return p
	}
	return m.allocPage(addr)
}

// allocPage allocates the page holding addr, and the table of its 4 MB
// region if the region has none yet. It runs once per page, so it stays
// out of line: the accessors that reach it stay small, and the compiler
// reports its two allocations here rather than in every caller it would
// be inlined into.
//
//ddvet:hotpath
//go:noinline
func (m *Memory) allocPage(addr uint32) *page {
	t := m.dir[addr>>tableShift]
	if t == nil {
		//ddvet:allow hotpath-alloc -- the first write to a 4 MB region allocates its table once; every later access reuses it
		t = new(table) //ddvet:allow hotpath-escape -- the table allocated once per 4 MB region, as the compiler reports it
		m.dir[addr>>tableShift] = t
	}
	//ddvet:allow hotpath-alloc -- the first write to a page allocates it once; every later access reuses it
	p := new(page) //ddvet:allow hotpath-escape -- the page allocated once on its first write, as the compiler reports it
	t[addr>>pageShift&(tablePages-1)] = p
	m.pages++
	return p
}

// LoadByte returns the byte at addr.
//
//ddvet:hotpath
func (m *Memory) LoadByte(addr uint32) byte {
	if p := m.lookup(addr); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// StoreByte stores b at addr.
//
//ddvet:hotpath
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.pageForWrite(addr)[addr&pageMask] = b
}

// Read fills buf with the bytes starting at addr.
func (m *Memory) Read(addr uint32, buf []byte) {
	for len(buf) > 0 {
		off := addr & pageMask
		var n int
		if p := m.lookup(addr); p != nil {
			n = copy(buf, p[off:])
		} else {
			n = min(len(buf), int(PageBytes-off))
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint32(n)
	}
}

// Write stores buf starting at addr.
func (m *Memory) Write(addr uint32, buf []byte) {
	for len(buf) > 0 {
		n := copy(m.pageForWrite(addr)[addr&pageMask:], buf)
		buf = buf[n:]
		addr += uint32(n)
	}
}

// The fixed-width accessors take the page's fast path unless the access
// straddles a page boundary; the rare straddling access goes a byte at a
// time, so an access at the top of the address space wraps to address 0.

// readStraddle returns the n-byte little-endian value at addr.
//
//ddvet:hotpath
func (m *Memory) readStraddle(addr uint32, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.LoadByte(addr+uint32(i)))
	}
	return v
}

// writeStraddle stores the low n bytes of v little-endian at addr.
//
//ddvet:hotpath
func (m *Memory) writeStraddle(addr uint32, n int, v uint64) {
	for i := range n {
		m.StoreByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// ReadUint16 loads a little-endian 16-bit value.
//
//ddvet:hotpath
func (m *Memory) ReadUint16(addr uint32) uint16 {
	if off := int(addr & pageMask); off <= PageBytes-2 {
		if p := m.lookup(addr); p != nil {
			return binary.LittleEndian.Uint16(p[off:])
		}
		return 0
	}
	return uint16(m.readStraddle(addr, 2))
}

// ReadUint32 loads a little-endian 32-bit value.
//
//ddvet:hotpath
func (m *Memory) ReadUint32(addr uint32) uint32 {
	if off := int(addr & pageMask); off <= PageBytes-4 {
		if p := m.lookup(addr); p != nil {
			return binary.LittleEndian.Uint32(p[off:])
		}
		return 0
	}
	return uint32(m.readStraddle(addr, 4))
}

// ReadUint64 loads a little-endian 64-bit value.
//
//ddvet:hotpath
func (m *Memory) ReadUint64(addr uint32) uint64 {
	if off := int(addr & pageMask); off <= PageBytes-8 {
		if p := m.lookup(addr); p != nil {
			return binary.LittleEndian.Uint64(p[off:])
		}
		return 0
	}
	return m.readStraddle(addr, 8)
}

// WriteUint16 stores a little-endian 16-bit value.
//
//ddvet:hotpath
func (m *Memory) WriteUint16(addr uint32, v uint16) {
	if off := int(addr & pageMask); off <= PageBytes-2 {
		binary.LittleEndian.PutUint16(m.pageForWrite(addr)[off:], v)
		return
	}
	m.writeStraddle(addr, 2, uint64(v))
}

// WriteUint32 stores a little-endian 32-bit value.
//
//ddvet:hotpath
func (m *Memory) WriteUint32(addr uint32, v uint32) {
	if off := int(addr & pageMask); off <= PageBytes-4 {
		binary.LittleEndian.PutUint32(m.pageForWrite(addr)[off:], v)
		return
	}
	m.writeStraddle(addr, 4, uint64(v))
}

// WriteUint64 stores a little-endian 64-bit value.
//
//ddvet:hotpath
func (m *Memory) WriteUint64(addr uint32, v uint64) {
	if off := int(addr & pageMask); off <= PageBytes-8 {
		binary.LittleEndian.PutUint64(m.pageForWrite(addr)[off:], v)
		return
	}
	m.writeStraddle(addr, 8, v)
}

// PageCount returns the number of allocated pages (for tests and memory
// accounting).
func (m *Memory) PageCount() int { return m.pages }
