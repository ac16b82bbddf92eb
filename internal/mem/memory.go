// Package mem models the simulated physical memory: a functional,
// byte-addressable backing store plus a DRAM timing model.
//
// The store is *functional first*: the cuckoo hash tables used in experiments
// really live in this memory as bytes, and both the software lookup path and
// the HALO accelerators read the same bytes. Timing (caches, DRAM banks) is
// layered on top and can never change an answer, only a cycle count.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated physical address.
type Addr uint64

// LineSize is the cache-line size in bytes, matching the 64 B lines the paper
// assumes (one hash bucket per line).
const LineSize = 64

// LineAddr returns the address of the cache line containing a.
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

const pageBits = 16 // 64 KiB pages
const pageSize = 1 << pageBits

// densePages is the dense limit of the page table: pages numbered below it
// (addresses below 16 GiB, which covers every allocator arena the
// experiments size) are found by indexing a flat slice that grows on demand;
// pages at or beyond it live in a map, so a stray high address costs one map
// entry rather than a table sized to reach it.
const densePages = 1 << 18

type page = [pageSize]byte

// Memory is a sparse, page-granular physical memory. The zero value is
// usable and empty; unwritten bytes read as zero.
//
// Memory is not safe for concurrent use. Every simulated platform owns its
// memory exclusively, matching how the worker pool shards experiment points.
// A Clone shares pages with its source, and each side copies a shared page
// before writing it, so a source and its clones may have different owners
// once Clone no longer writes the source (see MarkShared).
type Memory struct {
	dense  []*page          // indexed by page number, below densePages
	shared []bool           // shared[n]: a Clone may hold dense[n] too, so copy before writing; as long as dense
	sparse map[uint64]*page // page numbers at or beyond densePages
	pages  uint64           // allocated pages, both kinds
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// Clone returns a copy of m. The dense pages are copied on write: both sides
// keep the same page and mark it shared, and the first write to it through
// either side copies it (a page nobody writes is never copied). Sparse pages
// are copied at once. A Line alias taken with create set before the Clone
// still points at the shared page, so it must not be written afterwards.
func (m *Memory) Clone() *Memory {
	m.MarkShared()
	c := &Memory{dense: append([]*page(nil), m.dense...), shared: make([]bool, len(m.dense)), pages: m.pages}
	for n, p := range m.dense {
		c.shared[n] = p != nil
	}
	if m.sparse != nil {
		c.sparse = make(map[uint64]*page, len(m.sparse))
		for n, p := range m.sparse {
			cp := new(page)
			*cp = *p
			c.sparse[n] = cp
		}
	}
	return c
}

// MarkShared marks every dense page of m shared, as Clone does: the next
// write to one through m copies it first. It writes m only for pages not
// yet marked, so after it Clone only reads m — a memory nobody writes any
// more can then be cloned on several goroutines at once.
func (m *Memory) MarkShared() {
	for n, p := range m.dense {
		if p != nil && !m.shared[n] {
			m.shared[n] = true
		}
	}
}

func (m *Memory) page(addr Addr, create bool) *page {
	n := uint64(addr >> pageBits)
	if n < uint64(len(m.dense)) {
		if p := m.dense[n]; !create || p != nil && !m.shared[n] {
			return p
		}
	}
	return m.pageSlow(n, create)
}

// pageSlow handles what the flat-table hit does not: a page beyond the
// table's current length, the first write to a page or to a shared one, and
// the sparse range.
func (m *Memory) pageSlow(n uint64, create bool) *page {
	if n >= densePages {
		p := m.sparse[n]
		if p == nil && create {
			if m.sparse == nil {
				m.sparse = make(map[uint64]*page)
			}
			p = new(page)
			m.sparse[n] = p
			m.pages++
		}
		return p
	}
	if !create {
		return nil
	}
	if n >= uint64(len(m.dense)) {
		size := min(max(n+1, 2*uint64(len(m.dense))), densePages)
		grown, shared := make([]*page, size), make([]bool, size)
		copy(grown, m.dense)
		copy(shared, m.shared)
		m.dense, m.shared = grown, shared
	}
	if m.shared[n] {
		p := new(page)
		*p = *m.dense[n]
		m.dense[n], m.shared[n] = p, false
		return p
	}
	p := new(page)
	m.dense[n] = p
	m.pages++
	return p
}

// zeroLine is what Line returns for unwritten memory when not creating.
var zeroLine [LineSize]byte

// Line returns the 64-byte cache line containing addr as a slice aliasing
// the backing page: loads and stores through it are loads and stores of
// simulated memory, with no copy. Lines never straddle a page, and a page
// moves only when the first write after a Clone copies it, so an alias taken
// with create set stays valid until the next Clone.
//
// With create false the line may lie in a page shared with a clone, so the
// alias is for reading, until the next write to its page; an unwritten page
// is not allocated, and the result is then a shared all-zero line.
func (m *Memory) Line(addr Addr, create bool) []byte {
	p := m.page(addr, create)
	if p == nil {
		return zeroLine[:]
	}
	off := int(addr&(pageSize-1)) &^ (LineSize - 1)
	return p[off : off+LineSize : off+LineSize]
}

// ReadAt fills buf with the bytes at addr. Unwritten memory reads as zero.
func (m *Memory) ReadAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		off := int(addr & (pageSize - 1))
		n := min(pageSize-off, len(buf))
		if p := m.page(addr, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += Addr(n)
	}
}

// WriteAt stores buf at addr.
func (m *Memory) WriteAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		off := int(addr & (pageSize - 1))
		n := min(pageSize-off, len(buf))
		copy(m.page(addr, true)[off:off+n], buf[:n])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// FootprintBytes reports how many bytes of backing store have been allocated
// (page granular).
func (m *Memory) FootprintBytes() uint64 { return m.pages * pageSize }

// The LoadN/StoreN methods are scalar access: they index the page directly
// instead of copying through a caller buffer, falling back to ReadAt/WriteAt
// only when the value straddles a page boundary.

// Load16 loads a little-endian uint16 at addr.
func (m *Memory) Load16(addr Addr) uint16 {
	off := int(addr & (pageSize - 1))
	if off+2 <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint16(p[off:])
	}
	var buf [2]byte
	m.ReadAt(addr, buf[:])
	return binary.LittleEndian.Uint16(buf[:])
}

// Load32 loads a little-endian uint32 at addr.
func (m *Memory) Load32(addr Addr) uint32 {
	off := int(addr & (pageSize - 1))
	if off+4 <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off:])
	}
	var buf [4]byte
	m.ReadAt(addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// Load64 loads a little-endian uint64 at addr.
func (m *Memory) Load64(addr Addr) uint64 {
	off := int(addr & (pageSize - 1))
	if off+8 <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var buf [8]byte
	m.ReadAt(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Store16 stores a little-endian uint16 at addr.
func (m *Memory) Store16(addr Addr, v uint16) {
	off := int(addr & (pageSize - 1))
	if off+2 <= pageSize {
		binary.LittleEndian.PutUint16(m.page(addr, true)[off:], v)
		return
	}
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], v)
	m.WriteAt(addr, buf[:])
}

// Store32 stores a little-endian uint32 at addr.
func (m *Memory) Store32(addr Addr, v uint32) {
	off := int(addr & (pageSize - 1))
	if off+4 <= pageSize {
		binary.LittleEndian.PutUint32(m.page(addr, true)[off:], v)
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	m.WriteAt(addr, buf[:])
}

// Store64 stores a little-endian uint64 at addr.
func (m *Memory) Store64(addr Addr, v uint64) {
	off := int(addr & (pageSize - 1))
	if off+8 <= pageSize {
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.WriteAt(addr, buf[:])
}

// Allocator hands out non-overlapping address ranges from a memory region,
// used to lay out hash tables and key-value arrays in simulated memory.
type Allocator struct {
	next  Addr
	limit Addr
}

// NewAllocator returns an allocator over [base, base+size).
func NewAllocator(base Addr, size uint64) *Allocator {
	return &Allocator{next: base, limit: base + Addr(size)}
}

// Alloc reserves size bytes aligned to align (a power of two) and returns the
// base address. It panics when the region is exhausted: experiment setups
// size their arenas statically, so exhaustion is a configuration bug.
func (a *Allocator) Alloc(size uint64, align uint64) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	base := (a.next + Addr(align-1)) &^ Addr(align-1)
	if base+Addr(size) > a.limit || base+Addr(size) < base {
		panic(fmt.Sprintf("mem: arena exhausted allocating %d bytes", size))
	}
	a.next = base + Addr(size)
	return base
}

// AllocLines reserves n cache lines, line-aligned.
func (a *Allocator) AllocLines(n uint64) Addr {
	return a.Alloc(n*LineSize, LineSize)
}

// Used reports the number of bytes handed out so far, including alignment
// padding.
func (a *Allocator) Used(base Addr) uint64 { return uint64(a.next - base) }
