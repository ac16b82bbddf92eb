package halo

import (
	"halo/internal/cpu"
	"halo/internal/mem"
	"halo/internal/sim"
)

// Tree-walk support: paper §4.8 observes that the HALO accelerator's
// fetch-and-compare datapath also serves tree-structured lookups (EffiCuts
// and friends): "HALO accelerator can be used to conduct the comparison with
// the nodes in the tree". This file defines the node-memory contract the
// accelerator understands and the walk engine itself.
//
// A tree node occupies one cache line:
//
//	+0   uint32  magic (walkMagic)
//	+4   uint8   kind (0 = internal, 1 = leaf)
//	+5   uint8   field selector (internal): byte offset into the key
//	+6   uint16  width (internal): field width in bytes (1, 2 or 4)
//	+8   uint64  split value (internal): key[field] < split → left
//	+16  uint64  left child address   / leaf: result value
//	+24  uint64  right child address  / leaf: result-found flag
//
// The accelerator fetches the key once, then chases node lines, comparing
// the selected field at each level — exactly the bucket-walk datapath with a
// different address generator.

// WalkMagic identifies a HALO-walkable tree node.
const WalkMagic uint32 = 0x544e4f44 // "DONT" backwards: "TNOD"

// Node field offsets.
const (
	walkOffMagic = 0
	walkOffKind  = 4
	walkOffField = 5
	walkOffWidth = 6
	walkOffSplit = 8
	walkOffLeft  = 16
	walkOffRight = 24
)

// Node kinds.
const (
	WalkInternal uint8 = 0
	WalkLeaf     uint8 = 1
)

// WriteInternalNode lays an internal node out in memory.
func WriteInternalNode(s *mem.Memory, addr mem.Addr, field uint8, width uint16, split uint64, left, right mem.Addr) {
	s.Store32(addr+walkOffMagic, WalkMagic)
	s.WriteAt(addr+walkOffKind, []byte{WalkInternal, field})
	s.Store16(addr+walkOffWidth, width)
	s.Store64(addr+walkOffSplit, split)
	s.Store64(addr+walkOffLeft, uint64(left))
	s.Store64(addr+walkOffRight, uint64(right))
}

// WriteLeafNode lays a leaf out in memory.
func WriteLeafNode(s *mem.Memory, addr mem.Addr, value uint64, found bool) {
	s.Store32(addr+walkOffMagic, WalkMagic)
	s.WriteAt(addr+walkOffKind, []byte{WalkLeaf, 0})
	s.Store64(addr+walkOffLeft, value)
	f := uint64(0)
	if found {
		f = 1
	}
	s.Store64(addr+walkOffRight, f)
}

// WalkQuery asks an accelerator to chase a decision tree for a key.
type WalkQuery struct {
	Core     int
	RootAddr mem.Addr
	KeyAddr  mem.Addr
	KeyLen   int
	MaxDepth int // fault guard; 0 means the default
}

// defaultMaxWalkDepth bounds runaway walks on corrupt trees.
const defaultMaxWalkDepth = 64

// WalkResult reports a completed tree walk.
type WalkResult struct {
	Value  uint64
	Found  bool
	Fault  bool // key length outside 1..64, bad node magic or depth exceeded
	Depth  int
	Issued sim.Cycle
	Done   sim.Cycle
	Slice  int
}

// ProcessWalk executes one tree walk on the accelerator: fetch the key,
// then per level fetch the node line and compare the selected field. The
// walk holds no locks (trees here are read-mostly; updates rebuild).
func (a *Accelerator) ProcessWalk(at sim.Cycle, q WalkQuery) WalkResult {
	a.stats.Queries++
	t := a.admit(at)
	issued := t
	if q.KeyLen < 1 || q.KeyLen > maxKeyLen {
		a.stats.Faults++
		a.recordCompletion(t)
		return WalkResult{Fault: true, Issued: issued, Done: t, Slice: a.slice}
	}

	res := a.access(t, q.KeyAddr, false)
	t = res.Done
	if mem.LineAddr(q.KeyAddr) != mem.LineAddr(q.KeyAddr+mem.Addr(q.KeyLen)-1) {
		res = a.access(t, q.KeyAddr+mem.Addr(q.KeyLen)-1, false)
		t = res.Done
	}
	key := a.txn.key[:q.KeyLen]
	a.space.ReadAt(q.KeyAddr, key)

	maxDepth := q.MaxDepth
	if maxDepth <= 0 {
		maxDepth = defaultMaxWalkDepth
	}
	node := q.RootAddr
	r := WalkResult{Issued: issued, Slice: a.slice}
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			r.Fault = true
			break
		}
		res = a.access(t, node, false)
		t = res.Done + a.cfg.CompareLatency
		if a.space.Load32(node+walkOffMagic) != WalkMagic {
			a.stats.Faults++
			r.Fault = true
			break
		}
		// Kind and field selector share a little-endian 16-bit load so the
		// hot walk loop stays on the allocation-free scalar path.
		hdr := a.space.Load16(node + walkOffKind)
		if uint8(hdr) == WalkLeaf {
			r.Value = a.space.Load64(node + walkOffLeft)
			r.Found = a.space.Load64(node+walkOffRight) != 0
			r.Depth = depth
			break
		}
		field := int(hdr >> 8)
		width := int(a.space.Load16(node + walkOffWidth))
		split := a.space.Load64(node + walkOffSplit)
		v := fieldValue(key, field, width)
		next := node + walkOffRight
		if v < split {
			next = node + walkOffLeft
		}
		node = mem.Addr(a.space.Load64(next))
		if node == 0 {
			r.Fault = true
			break
		}
	}
	if r.Found {
		a.stats.Hits++
	} else if !r.Fault {
		a.stats.Misses++
	}
	r.Done = t
	a.recordCompletion(t)
	return r
}

// fieldValue extracts a big-endian field of the given width from the key
// (out-of-range selectors read as zero — the hardware clamps).
func fieldValue(key []byte, off, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 8
		if off+i < len(key) {
			v |= uint64(key[off+i])
		}
	}
	return v
}

// WalkB dispatches a blocking tree walk through the distributor (queries
// hash on the root address, like table lookups hash on the table address)
// and blocks the issuing thread until the result returns.
func (u *Unit) WalkB(th *cpu.Thread, rootAddr, keyAddr mem.Addr, keyLen int) WalkResult {
	th.ALU(1)
	th.Other(1)
	u.refreshBusyBits(th.Now)
	slice, _ := u.dist.Target(th.Core, uint64(rootAddr), uint64(keyAddr))
	r := u.accel[slice].ProcessWalk(th.Now+u.cmdDelay(th.Core, slice), WalkQuery{
		Core:     th.Core,
		RootAddr: rootAddr,
		KeyAddr:  keyAddr,
		KeyLen:   keyLen,
	})
	th.WaitUntil(r.Done + u.cmdDelay(r.Slice, th.Core))
	return r
}
