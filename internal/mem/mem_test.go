package mem

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// tableBytes is the span of one second-level table of the directory.
const tableBytes = 1 << tableShift

// TestZeroFill reads every width across untouched pages, tables and
// boundaries: all read zero, and neither a page nor a table is allocated,
// nor anything on the heap.
func TestZeroFill(t *testing.T) {
	m := New()
	if got := m.ReadUint32(0x1234_5678); got != 0 {
		t.Errorf("unwritten word = %#x, want 0", got)
	}
	if m.PageCount() != 0 {
		t.Errorf("read allocated %d pages", m.PageCount())
	}
	m.StoreByte(0x1000_0000, 7) // one table and one page exist
	addrs := []uint32{0, 0x1000_0FFF, 0x1000_1000, 0x1000_0FFE, tableBytes - 3, 0x7FFF_EFFC, 0xFFFF_FFFC}
	allocs := testing.AllocsPerRun(20, func() {
		for _, a := range addrs {
			if m.LoadByte(a)|byte(m.ReadUint16(a))|byte(m.ReadUint32(a))|byte(m.ReadUint64(a)) != 0 {
				t.Errorf("untouched read at %#x is not zero", a)
			}
			var buf [3 * PageBytes]byte
			m.Read(a, buf[:])
		}
	})
	if allocs != 0 {
		t.Errorf("reads of untouched memory allocated %v times per run", allocs)
	}
	if m.PageCount() != 1 {
		t.Errorf("PageCount = %d after untouched reads, want 1", m.PageCount())
	}
	tables := 0
	for _, tb := range m.dir {
		if tb != nil {
			tables++
		}
	}
	if tables != 1 {
		t.Errorf("%d page tables after untouched reads, want 1", tables)
	}
}

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.StoreByte(42, 0xAB)
	if got := m.LoadByte(42); got != 0xAB {
		t.Errorf("LoadByte = %#x", got)
	}
	if got := m.LoadByte(43); got != 0 {
		t.Errorf("neighbour byte = %#x, want 0", got)
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := New()
	m.WriteUint32(0x1000, 0xDEADBEEF)
	if got := m.ReadUint32(0x1000); got != 0xDEADBEEF {
		t.Errorf("ReadUint32 = %#x", got)
	}
	// Little-endian layout.
	if got := m.LoadByte(0x1000); got != 0xEF {
		t.Errorf("low byte = %#x, want 0xEF", got)
	}
	if got := m.LoadByte(0x1003); got != 0xDE {
		t.Errorf("high byte = %#x, want 0xDE", got)
	}
}

// TestCrossPageAccess writes 2-, 4- and 8-byte values across a page
// boundary and across a 4 MB table boundary, at every split of the value
// between the two sides, and reads each back whole and byte by byte.
func TestCrossPageAccess(t *testing.T) {
	for _, boundary := range []uint32{PageBytes, 3 * PageBytes, tableBytes, 0x7FC0_0000} {
		for _, n := range []uint32{2, 4, 8} {
			for split := uint32(1); split < n; split++ {
				m := New()
				addr := boundary - split
				v := uint64(0x8877_6655_4433_2211)
				var got uint64
				switch n {
				case 2:
					m.WriteUint16(addr, uint16(v))
					got = uint64(m.ReadUint16(addr))
				case 4:
					m.WriteUint32(addr, uint32(v))
					got = uint64(m.ReadUint32(addr))
				case 8:
					m.WriteUint64(addr, v)
					got = m.ReadUint64(addr)
				}
				// For n = 8 the shift yields 0, so the mask is all ones.
				if want := v & (1<<(8*n) - 1); got != want {
					t.Errorf("%d-byte value at %#x (boundary %#x): read %#x", n, addr, boundary, got)
				}
				for i := uint32(0); i < n; i++ {
					if b := m.LoadByte(addr + i); b != byte(v>>(8*i)) {
						t.Errorf("%d-byte value at %#x: byte %d = %#x, want %#x", n, addr, i, b, byte(v>>(8*i)))
					}
				}
				if m.LoadByte(addr-1) != 0 || m.LoadByte(addr+n) != 0 {
					t.Errorf("%d-byte value at %#x spilled outside its bytes", n, addr)
				}
				if m.PageCount() != 2 {
					t.Errorf("%d-byte value at %#x: PageCount = %d, want 2", n, addr, m.PageCount())
				}
			}
		}
	}
}

func TestBulkReadWrite(t *testing.T) {
	m := New()
	src := make([]byte, 3*PageBytes)
	for i := range src {
		src[i] = byte(i * 7)
	}
	m.Write(1000, src)
	dst := make([]byte, len(src))
	m.Read(1000, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d: got %#x, want %#x", i, dst[i], src[i])
		}
	}
}

func TestBulkReadUnwrittenTail(t *testing.T) {
	m := New()
	m.StoreByte(10, 0xFF)
	buf := []byte{1, 2, 3, 4}
	m.Read(9, buf)
	want := []byte{0, 0xFF, 0, 0}
	for i := range buf {
		if buf[i] != want[i] {
			t.Errorf("buf[%d] = %#x, want %#x", i, buf[i], want[i])
		}
	}
}

func TestUint16(t *testing.T) {
	m := New()
	m.WriteUint16(6, 0xBEEF)
	if got := m.ReadUint16(6); got != 0xBEEF {
		t.Errorf("ReadUint16 = %#x", got)
	}
}

func TestUint64RoundTripProperty(t *testing.T) {
	m := New()
	prop := func(addr uint32, v uint64) bool {
		m.WriteUint64(addr, v)
		return m.ReadUint64(addr) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointRegionsIndependent(t *testing.T) {
	m := New()
	m.WriteUint32(0x1000_0000, 1)
	m.WriteUint32(0x7FFF_E000, 2)
	m.WriteUint32(0x0040_0000, 3)
	if m.ReadUint32(0x1000_0000) != 1 || m.ReadUint32(0x7FFF_E000) != 2 || m.ReadUint32(0x0040_0000) != 3 {
		t.Error("writes to disjoint regions interfere")
	}
}

// TestTopOfAddressSpace: an access that fits in the last page stays there,
// and one that runs past 0xFFFFFFFF wraps to address 0, for the fixed-width
// accessors and for Read/Write alike.
func TestTopOfAddressSpace(t *testing.T) {
	m := New()
	m.WriteUint64(0xFFFF_FFF8, 0x0102_0304_0506_0708)
	if got := m.ReadUint64(0xFFFF_FFF8); got != 0x0102_0304_0506_0708 {
		t.Errorf("ReadUint64(0xFFFFFFF8) = %#x", got)
	}
	if m.PageCount() != 1 || m.LoadByte(0) != 0 {
		t.Errorf("an access ending at 0xFFFFFFFF touched address 0 (PageCount %d)", m.PageCount())
	}
	if got := m.LoadByte(0xFFFF_FFFF); got != 0x01 {
		t.Errorf("LoadByte(0xFFFFFFFF) = %#x, want 0x01", got)
	}

	m.WriteUint64(0xFFFF_FFFC, 0x1122_3344_5566_7788)
	if got := m.ReadUint64(0xFFFF_FFFC); got != 0x1122_3344_5566_7788 {
		t.Errorf("wrapping ReadUint64 = %#x", got)
	}
	if got := m.ReadUint32(0); got != 0x1122_3344 {
		t.Errorf("ReadUint32(0) after a wrapping write = %#x, want 0x11223344", got)
	}
	m.WriteUint32(0xFFFF_FFFE, 0xAABB_CCDD)
	if got := m.ReadUint16(0xFFFF_FFFF); got != 0xBBCC {
		t.Errorf("wrapping ReadUint16(0xFFFFFFFF) = %#x, want 0xBBCC", got)
	}
	m.WriteUint16(0xFFFF_FFFF, 0xEEFF)
	if m.LoadByte(0xFFFF_FFFF) != 0xFF || m.LoadByte(0) != 0xEE {
		t.Error("wrapping WriteUint16 misplaced its bytes")
	}

	buf := []byte{1, 2, 3, 4, 5, 6}
	m.Write(0xFFFF_FFFD, buf)
	got := make([]byte, len(buf))
	m.Read(0xFFFF_FFFD, got)
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("wrapping Read/Write: got %v, want %v", got, buf)
		}
	}
	if m.LoadByte(2) != 6 {
		t.Errorf("wrapping Write: byte at 2 = %d, want 6", m.LoadByte(2))
	}
}

// refMemory is the reference model for TestAgainstReferenceModel: a map
// from address to byte, with the pages any write touched.
type refMemory struct {
	bytes map[uint32]byte
	pages map[uint32]bool
}

func (r *refMemory) load(addr uint32) byte { return r.bytes[addr] }

func (r *refMemory) store(addr uint32, b byte) {
	r.bytes[addr] = b
	r.pages[addr/PageBytes] = true
}

func (r *refMemory) readN(addr uint32, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(r.load(addr+uint32(i)))
	}
	return v
}

func (r *refMemory) writeN(addr uint32, n int, v uint64) {
	for i := 0; i < n; i++ {
		r.store(addr+uint32(i), byte(v>>(8*i)))
	}
}

// TestAgainstReferenceModel runs a seeded random sequence of every
// accessor against refMemory. Addresses cluster around page, table and
// address-space boundaries, where the directory's indexing and the
// straddling paths can go wrong, with some spread over the whole space.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1999))
	hot := []uint32{0, PageBytes, 3 * PageBytes, tableBytes, 5 * tableBytes, 0x1000_0000, 0x7FFF_F000, 0xFFFF_F000, 0}
	addr := func() uint32 {
		if rng.IntN(8) == 0 {
			return rng.Uint32()
		}
		return hot[rng.IntN(len(hot))] + uint32(rng.IntN(64)) - 32
	}
	// Most bulk transfers are short; one in eight spans up to two pages.
	bulkLen := func() int {
		if rng.IntN(8) == 0 {
			return rng.IntN(2*PageBytes) + 1
		}
		return rng.IntN(64) + 1
	}
	m := New()
	ref := &refMemory{bytes: map[uint32]byte{}, pages: map[uint32]bool{}}
	for step := 0; step < 10000; step++ {
		a := addr()
		n := []int{2, 4, 8}[rng.IntN(3)]
		v := rng.Uint64()
		var got, want uint64
		op := rng.IntN(6)
		switch op {
		case 0:
			got, want = uint64(m.LoadByte(a)), uint64(ref.load(a))
		case 1:
			m.StoreByte(a, byte(v))
			ref.store(a, byte(v))
		case 2:
			buf := make([]byte, bulkLen())
			m.Read(a, buf)
			for i, b := range buf {
				if b != ref.load(a+uint32(i)) {
					t.Fatalf("step %d: Read(%#x, %d bytes): byte %d = %#x, want %#x", step, a, len(buf), i, b, ref.load(a+uint32(i)))
				}
			}
		case 3:
			buf := make([]byte, bulkLen())
			for i := range buf {
				buf[i] = byte(rng.Uint32())
			}
			m.Write(a, buf)
			for i, b := range buf {
				ref.store(a+uint32(i), b)
			}
		case 4:
			switch n {
			case 2:
				got = uint64(m.ReadUint16(a))
			case 4:
				got = uint64(m.ReadUint32(a))
			case 8:
				got = m.ReadUint64(a)
			}
			want = ref.readN(a, n)
		case 5:
			switch n {
			case 2:
				m.WriteUint16(a, uint16(v))
			case 4:
				m.WriteUint32(a, uint32(v))
			case 8:
				m.WriteUint64(a, v)
			}
			ref.writeN(a, n, v)
		}
		if got != want {
			t.Fatalf("step %d: op %d, %d bytes at %#x: got %#x, want %#x", step, op, n, a, got, want)
		}
		if m.PageCount() != len(ref.pages) {
			t.Fatalf("step %d: PageCount = %d, reference model wrote %d pages", step, m.PageCount(), len(ref.pages))
		}
	}
}
