package flowwire

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// This file is the shared-memory half of the shm transport (DESIGN.md §11):
// the segment layout and the SPSC byte ring. The ring is a plain byte
// stream — frames cross it exactly as they cross a socket, torn across the
// wrap boundary whenever they land there — so the frame codec, bufio
// layers, server pipeline and pooled client run on top unchanged. Nothing
// in this file makes a syscall: a steady-state producer/consumer pair
// communicates through two atomic cursors and memcpy.
//
// Segment layout (little-endian, one 4 KiB control page then the two data
// regions):
//
//	offset  size     field
//	0       4        magic  ("HALO")
//	4       4        layout version
//	8       4        ring data bytes, each direction (power of two)
//	64      8        request ring: tail  — bytes produced (client writes)
//	128     8        request ring: head  — bytes consumed (server writes)
//	192     4        request ring: consumer-waiting flag (server parks)
//	256     4        request ring: producer-waiting flag (client parks)
//	320..   —        reply ring: same four words, roles swapped
//	4096    size     request ring data (client → server)
//	4096+size        reply ring data (server → client)
//
// Every control word sits on its own 64-byte line so the producer's tail
// and the consumer's head never false-share, and the waiting flags (which
// the peer swaps) don't bounce the cursor lines.
const (
	shmMagic     = 0x4f4c4148 // "HALO" little-endian
	shmLayoutVer = 2

	segHdrSize = 4096

	offMagic    = 0
	offVersion  = 4
	offRingSize = 8

	offReqTail = 64
	offReqHead = 128
	offReqCons = 192
	offReqProd = 256

	offRepTail = 320
	offRepHead = 384
	offRepCons = 448
	offRepProd = 512

	// Ring geometry bounds. The lower bound keeps the wrap arithmetic and
	// tests honest (tiny rings are exercised deliberately); the upper bound
	// stops a hostile segment file from making a client map gigabytes.
	minShmRingBytes = 64
	maxShmRingBytes = 1 << 30
)

// DefaultShmRingBytes is the per-direction ring capacity Listen gives shm
// connections: large enough that neither the server's 64 KiB reply flush nor
// a client request frame of that size blocks the producer when the consumer
// keeps up, small enough that per-connection segments stay cheap (two rings +
// the control page ≈ 516 KiB).
const DefaultShmRingBytes = 1 << 18

var errBadSegment = errors.New("flowwire: bad shm segment")

// checkRingBytes validates one ring-size field.
func checkRingBytes(n uint32) error {
	if n < minShmRingBytes || n > maxShmRingBytes || bits.OnesCount32(n) != 1 {
		return fmt.Errorf("%w: ring size %d (want a power of two in [%d, %d])",
			errBadSegment, n, minShmRingBytes, maxShmRingBytes)
	}
	return nil
}

// u64at and u32at bind an atomic word to an offset inside the mapped
// segment. The control offsets are all 64-byte multiples and mmap regions
// are page-aligned, so the required 8-byte alignment holds by construction.
func u64at(mem []byte, off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&mem[off]))
}

func u32at(mem []byte, off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&mem[off]))
}

// spscRing is one direction of the segment: a single-producer,
// single-consumer byte ring over shared memory. The cursors are free
// running (they never wrap; the data offset is cursor & mask), which makes
// full/empty unambiguous: readable = tail-head, writable = size-(tail-head).
//
// Memory ordering: the producer copies payload bytes into data and then
// publishes them with an atomic tail store; the consumer loads tail before
// touching the bytes. Go's sync/atomic operations are sequentially
// consistent, so the byte copies are ordered before the cursor publish on
// one side and after the cursor observation on the other — the classic
// release/acquire pairing, strengthened. The same argument covers head in
// the reverse direction (the producer must observe head before reusing the
// space it frees). The waiting flags ride the same rules; see shmconn.go
// for the park/wake handshake built on them.
type spscRing struct {
	tail *atomic.Uint64 // bytes ever produced; written by the producer only
	head *atomic.Uint64 // bytes ever consumed; written by the consumer only
	cons *atomic.Uint32 // consumer parked, waiting for bytes
	prod *atomic.Uint32 // producer parked, waiting for space
	data []byte
	mask uint64
}

// bindRing attaches a ring view to its control words and data region.
func bindRing(mem []byte, tailOff, headOff, consOff, prodOff int, data []byte) spscRing {
	return spscRing{
		tail: u64at(mem, tailOff),
		head: u64at(mem, headOff),
		cons: u32at(mem, consOff),
		prod: u32at(mem, prodOff),
		data: data,
		mask: uint64(len(data) - 1),
	}
}

// readable reports how many bytes the consumer could take right now.
func (r *spscRing) readable() int { return int(r.tail.Load() - r.head.Load()) }

// writable reports how much space the producer could fill right now.
func (r *spscRing) writable() int { return len(r.data) - int(r.tail.Load()-r.head.Load()) }

// write copies as much of p as fits and publishes it, returning the byte
// count (0 when full). Producer-side only.
func (r *spscRing) write(p []byte) int {
	t := r.tail.Load()
	free := len(r.data) - int(t-r.head.Load())
	n := len(p)
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	off := int(t & r.mask)
	c := copy(r.data[off:], p[:n])
	if c < n {
		copy(r.data, p[c:n])
	}
	r.tail.Store(t + uint64(n))
	return n
}

// read copies up to len(p) available bytes out and retires them, returning
// the byte count (0 when empty). Consumer-side only.
func (r *spscRing) read(p []byte) int {
	h := r.head.Load()
	avail := int(r.tail.Load() - h)
	n := len(p)
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	off := int(h & r.mask)
	c := copy(p[:n], r.data[off:])
	if c < n {
		copy(p[c:n], r.data)
	}
	r.head.Store(h + uint64(n))
	return n
}

// shmSegment is a bound view of one connection's mapped segment: the two
// rings plus the mapping itself (unmapped by the conn's finalizer, never by
// Close — a concurrent reader must not race an munmap).
type shmSegment struct {
	mem []byte
	req spscRing // client → server
	rep spscRing // server → client
}

// segmentSize is the file size a segment with the given ring size needs.
func segmentSize(ringBytes uint32) int {
	return segHdrSize + 2*int(ringBytes)
}

// initSegment stamps a freshly created (zeroed) mapping with the layout
// header and returns the bound view. Server-side, before the handshake.
func initSegment(mem []byte, ringBytes uint32) (*shmSegment, error) {
	if err := checkRingBytes(ringBytes); err != nil {
		return nil, err
	}
	if len(mem) != segmentSize(ringBytes) {
		return nil, fmt.Errorf("%w: mapping is %d bytes, want %d", errBadSegment, len(mem), segmentSize(ringBytes))
	}
	u32at(mem, offRingSize).Store(ringBytes)
	u32at(mem, offVersion).Store(shmLayoutVer)
	u32at(mem, offMagic).Store(shmMagic)
	return bindSegment(mem, ringBytes), nil
}

// attachSegment validates a mapping created by a peer's initSegment and
// returns the bound view. Client-side, after the handshake named the file.
// The header is the one statement of the geometry: the handshake carries
// none.
func attachSegment(mem []byte) (*shmSegment, error) {
	if len(mem) < segHdrSize {
		return nil, fmt.Errorf("%w: mapping is %d bytes, smaller than the control page", errBadSegment, len(mem))
	}
	if m := u32at(mem, offMagic).Load(); m != shmMagic {
		return nil, fmt.Errorf("%w: magic %#x, want %#x", errBadSegment, m, shmMagic)
	}
	if v := u32at(mem, offVersion).Load(); v != shmLayoutVer {
		return nil, fmt.Errorf("%w: layout version %d, want %d", errBadSegment, v, shmLayoutVer)
	}
	ringBytes := u32at(mem, offRingSize).Load()
	if err := checkRingBytes(ringBytes); err != nil {
		return nil, err
	}
	if len(mem) != segmentSize(ringBytes) {
		return nil, fmt.Errorf("%w: mapping is %d bytes, header claims %d", errBadSegment, len(mem), segmentSize(ringBytes))
	}
	return bindSegment(mem, ringBytes), nil
}

func bindSegment(mem []byte, ringBytes uint32) *shmSegment {
	reqData := mem[segHdrSize : segHdrSize+int(ringBytes)]
	repData := mem[segHdrSize+int(ringBytes) : segmentSize(ringBytes)]
	return &shmSegment{
		mem: mem,
		req: bindRing(mem, offReqTail, offReqHead, offReqCons, offReqProd, reqData),
		rep: bindRing(mem, offRepTail, offRepHead, offRepCons, offRepProd, repData),
	}
}
