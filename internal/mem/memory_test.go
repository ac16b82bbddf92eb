package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"halo/internal/sim"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte("hello, simulated memory")
	m.WriteAt(0x1000, data)
	got := make([]byte, len(data))
	m.ReadAt(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestMemoryUnwrittenReadsZero(t *testing.T) {
	m := NewMemory()
	buf := []byte{1, 2, 3, 4}
	m.ReadAt(0xdeadbeef, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten memory read non-zero: %v", buf)
		}
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	// Write spanning a 64 KiB page boundary.
	addr := Addr(pageSize - 3)
	data := []byte{9, 8, 7, 6, 5, 4}
	m.WriteAt(addr, data)
	got := make([]byte, len(data))
	m.ReadAt(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip mismatch: %v", got)
	}
}

func TestMemoryPropertyRoundTrip(t *testing.T) {
	m := NewMemory()
	check := func(addrRaw uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := Addr(addrRaw)
		m.WriteAt(addr, data)
		got := make([]byte, len(data))
		m.ReadAt(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScalarHelpers(t *testing.T) {
	m := NewMemory()
	m.Store64(8, 0x0123456789abcdef)
	if got := m.Load64(8); got != 0x0123456789abcdef {
		t.Fatalf("Load64 = %#x", got)
	}
	m.Store32(100, 0xcafebabe)
	if got := m.Load32(100); got != 0xcafebabe {
		t.Fatalf("Load32 = %#x", got)
	}
	m.Store16(200, 0xbeef)
	if got := m.Load16(200); got != 0xbeef {
		t.Fatalf("Load16 = %#x", got)
	}
	// Little-endian layout check: low byte first.
	var b [1]byte
	m.ReadAt(8, b[:])
	if b[0] != 0xef {
		t.Fatalf("Store64 is not little-endian: first byte %#x", b[0])
	}
}

func TestLineAliasesTheBackingPage(t *testing.T) {
	m := NewMemory()
	m.Store32(0x2044, 0xcafebabe)
	l := m.Line(0x2050, false) // any address inside the line
	if len(l) != LineSize || cap(l) != LineSize {
		t.Fatalf("Line len/cap = %d/%d, want %d", len(l), cap(l), LineSize)
	}
	if got := binary.LittleEndian.Uint32(l[4:]); got != 0xcafebabe {
		t.Fatalf("Line does not see an earlier store: %#x", got)
	}
	binary.LittleEndian.PutUint16(l[8:], 0xbeef) // a store through the alias
	if got := m.Load16(0x2048); got != 0xbeef {
		t.Fatalf("store through the alias not visible to Load16: %#x", got)
	}
	m.Store64(0x2078, 7) // and a later store is visible through the old alias
	if l[0x38] != 7 {
		t.Fatal("alias went stale after a later store")
	}
	// Growing the page table must not move pages out from under an alias.
	m.Store64(Addr(5000)<<pageBits, 1)
	if m.Store64(0x2040, 9); l[0] != 9 {
		t.Fatal("alias went stale after the page table grew")
	}
}

func TestLineOnUnwrittenPages(t *testing.T) {
	for _, addr := range []Addr{0x30040, Addr(densePages)<<pageBits + 0x40} {
		m := NewMemory()
		l := m.Line(addr, false)
		if m.FootprintBytes() != 0 {
			t.Fatalf("Line(%#x, false) allocated a page", addr)
		}
		if !bytes.Equal(l, make([]byte, LineSize)) {
			t.Fatalf("unwritten line reads %v", l)
		}
		w := m.Line(addr, true)
		if m.FootprintBytes() != pageSize {
			t.Fatalf("Line(%#x, true): footprint %d, want one page", addr, m.FootprintBytes())
		}
		w[3] = 0xab
		var b [1]byte
		if m.ReadAt(addr+3, b[:]); b[0] != 0xab {
			t.Fatal("store through a created line not visible to ReadAt")
		}
		if r := m.Line(addr, false); &r[0] != &w[0] {
			t.Fatal("Line without create does not alias the now-written page")
		}
		if z := NewMemory().Line(addr, false); z[3] != 0 {
			t.Fatal("the shared zero line was written")
		}
	}
}

// TestDenseLimit puts pages on both sides of the flat table's limit and
// checks they behave alike and are all counted.
func TestDenseLimit(t *testing.T) {
	m := NewMemory()
	last := Addr(densePages-1) << pageBits // last dense page
	first := Addr(densePages) << pageBits  // first sparse page
	far := Addr(1) << 60
	for i, a := range []Addr{0, 0x10000, last, first, far} {
		if got := m.Load64(a + 8); got != 0 {
			t.Fatalf("unwritten %#x reads %#x", a, got)
		}
		m.Store64(a+8, uint64(i)+1)
	}
	for i, a := range []Addr{0, 0x10000, last, first, far} {
		if got := m.Load64(a + 8); got != uint64(i)+1 {
			t.Fatalf("%#x reads %d, want %d", a, got, i+1)
		}
	}
	if got := m.FootprintBytes(); got != 5*pageSize {
		t.Fatalf("footprint %d, want 5 pages", got)
	}
	if len(m.dense) != densePages || len(m.sparse) != 2 {
		t.Fatalf("dense table %d entries, sparse map %d: pages landed on the wrong side", len(m.dense), len(m.sparse))
	}
	m.Store64(8, 99) // rewriting allocates nothing
	if got := m.FootprintBytes(); got != 5*pageSize {
		t.Fatalf("footprint after a rewrite %d, want 5 pages", got)
	}
	// A write straddling the limit lands half on each side.
	m.WriteAt(first-2, []byte{1, 2, 3, 4})
	if m.Load16(first-2) != 0x0201 || m.Load16(first) != 0x0403 {
		t.Fatal("write across the dense limit misplaced")
	}
}

// TestStraddlingScalarsNextToALine: loads and stores that cross a page
// boundary go through the byte path; the line aliases on either side must
// see their halves.
func TestStraddlingScalarsNextToALine(t *testing.T) {
	for _, boundary := range []Addr{pageSize, Addr(densePages) << pageBits} {
		m := NewMemory()
		lo, hi := m.Line(boundary-1, true), m.Line(boundary, true)
		m.Store16(boundary-1, 0x2211)
		if lo[LineSize-1] != 0x11 || hi[0] != 0x22 {
			t.Fatalf("Store16 across %#x: %#x | %#x", boundary, lo[LineSize-1], hi[0])
		}
		m.Store32(boundary-3, 0x44332211)
		if got := m.Load32(boundary - 3); got != 0x44332211 || hi[0] != 0x44 {
			t.Fatalf("Store32/Load32 across %#x: %#x, hi[0]=%#x", boundary, got, hi[0])
		}
		m.Store64(boundary-5, 0x8877665544332211)
		if got := m.Load64(boundary - 5); got != 0x8877665544332211 || lo[LineSize-5] != 0x11 || hi[2] != 0x88 {
			t.Fatalf("Store64/Load64 across %#x: %#x", boundary, got)
		}
		copy(hi, []byte{0xaa, 0xbb}) // stores through the alias feed a straddling load
		if got := m.Load16(boundary - 1); got != 0xaa55 {
			t.Fatalf("Load16 across %#x after alias store: %#x", boundary, got)
		}
	}
}

// TestCloneCopiesOnWrite: after Clone, a write on either side is invisible
// to the other, whatever the page kind and write path; a page nobody writes
// stays shared, and copying one leaves the footprint alone.
func TestCloneCopiesOnWrite(t *testing.T) {
	dense, sparse, straddle := Addr(0x30040), Addr(densePages)<<pageBits+0x40, Addr(pageSize-4)
	untouched := Addr(5 * pageSize)
	writes := []struct {
		name  string
		at    Addr // read back with Load64
		write func(m *Memory, v uint64)
	}{
		{"dense page", dense, func(m *Memory, v uint64) { m.Store64(dense, v) }},
		{"sparse page", sparse, func(m *Memory, v uint64) { m.Store64(sparse, v) }},
		{"Line alias", dense + 8, func(m *Memory, v uint64) {
			binary.LittleEndian.PutUint64(m.Line(dense+8, true)[8:], v)
		}},
		{"straddling Store64", straddle, func(m *Memory, v uint64) { m.Store64(straddle, v) }},
	}
	for _, w := range writes {
		for _, writeClone := range []bool{false, true} {
			m := NewMemory()
			for _, a := range []Addr{dense, dense + 8, sparse, straddle, untouched} {
				m.Store64(a, 1)
			}
			c := m.Clone()
			footprint := m.FootprintBytes()
			writer, other := m, c
			if writeClone {
				writer, other = c, m
			}
			w.write(writer, 2)
			if got := writer.Load64(w.at); got != 2 {
				t.Errorf("%s, clone writes %v: the writer reads %d, want 2", w.name, writeClone, got)
			}
			if got := other.Load64(w.at); got != 1 {
				t.Errorf("%s, clone writes %v: the other side reads %d, want 1", w.name, writeClone, got)
			}
			if m.FootprintBytes() != footprint || c.FootprintBytes() != footprint {
				t.Errorf("%s: footprints %d and %d after a copy, want %d", w.name, m.FootprintBytes(), c.FootprintBytes(), footprint)
			}
			if &m.Line(untouched, false)[0] != &c.Line(untouched, false)[0] {
				t.Errorf("%s: a page neither side wrote was copied", w.name)
			}
		}
	}
}

// TestCloneOfAClone: three memories descended from one page each write it;
// every one reads back only its own value.
func TestCloneOfAClone(t *testing.T) {
	m := NewMemory()
	m.Store64(0x40, 1)
	c1 := m.Clone()
	c1.Store64(0x40, 2) // c1 now owns a copy, which c2 starts out sharing
	c2 := c1.Clone()
	if got := c2.Load64(0x40); got != 2 {
		t.Fatalf("a clone of a clone reads %d, want its source's 2", got)
	}
	m.Store64(0x40, 10)
	c1.Store64(0x40, 20)
	c2.Store64(0x40, 30)
	for i, mm := range []*Memory{m, c1, c2} {
		if got, want := mm.Load64(0x40), uint64(10*(i+1)); got != want {
			t.Errorf("memory %d reads %d, want %d", i, got, want)
		}
	}
}

func TestZeroValueMemoryIsUsable(t *testing.T) {
	var m Memory
	if m.Load32(0x1234) != 0 || m.Load32(Addr(1)<<50) != 0 {
		t.Fatal("zero-value memory reads non-zero")
	}
	m.Store32(0x1234, 5)
	m.Store32(Addr(1)<<50, 6)
	if m.Load32(0x1234) != 5 || m.Load32(Addr(1)<<50) != 6 || m.FootprintBytes() != 2*pageSize {
		t.Fatal("zero-value memory lost a store")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 64 || LineAddr(130) != 128 {
		t.Fatal("LineAddr misaligned")
	}
}

func TestAllocatorAlignmentAndDisjointness(t *testing.T) {
	a := NewAllocator(0x100, 1<<20)
	p1 := a.Alloc(10, 64)
	p2 := a.Alloc(100, 64)
	p3 := a.AllocLines(2)
	if p1%64 != 0 || p2%64 != 0 || p3%64 != 0 {
		t.Fatalf("allocations not aligned: %#x %#x %#x", p1, p2, p3)
	}
	if p1+10 > p2 || p2+100 > p3 {
		t.Fatalf("allocations overlap: %#x %#x %#x", p1, p2, p3)
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	a := NewAllocator(0, 128)
	a.Alloc(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted allocator did not panic")
		}
	}()
	a.Alloc(100, 1)
}

func TestDRAMRowBufferLocality(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// First access to a row: miss.
	t1 := d.Access(0, 0, false)
	// Same row (same bank route needs same line modulo channels*banks; use
	// the exact same address): hit, cheaper.
	t2 := d.Access(t1.Done, 0, false)
	if t2.Latency() >= t1.Latency() {
		t.Fatalf("row hit latency %d not cheaper than miss %d", t2.Latency(), t1.Latency())
	}
	s := d.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 || s.Reads != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDRAMBankContention(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// Two simultaneous accesses to the same bank serialise.
	a := d.Access(0, 0, false)
	b := d.Access(0, 0, false)
	if b.Done <= a.Done {
		t.Fatalf("same-bank accesses did not serialise: %d vs %d", b.Done, a.Done)
	}
	// Accesses to different channels overlap almost fully.
	d2 := NewDRAM(DefaultDRAMConfig())
	c1 := d2.Access(0, 0, false)
	c2 := d2.Access(0, LineSize, false) // next line maps to the other channel
	if c2.Done > c1.Done+DefaultDRAMConfig().BusCycles {
		t.Fatalf("different-channel accesses serialised: %d vs %d", c2.Done, c1.Done)
	}
}

func TestDRAMWriteCounting(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	d.Access(0, 0, true)
	if s := d.Stats(); s.Writes != 1 || s.Reads != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDRAMCompletionMonotonicWithIssue(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	var prev sim.Ticket
	for i := 0; i < 100; i++ {
		tk := d.Access(sim.Cycle(i*10), Addr(i*LineSize), false)
		if tk.Done < tk.Issued {
			t.Fatal("ticket completes before issue")
		}
		if i > 0 && tk.Done+1000 < prev.Done {
			t.Fatal("wildly non-monotonic completion")
		}
		prev = tk
	}
}
