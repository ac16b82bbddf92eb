package trafficgen

import (
	"math/bits"

	"halo/internal/packet"
)

// tupleSet is the uniqueness check behind Generate and RandomTuples: an
// open-addressed set of five-tuples, sized once for the population and probed
// linearly. A tuple packs into two words, so a probe is two compares on one
// 16-byte slot instead of Go's field-by-field hash and compare of a padded
// FiveTuple map key, and a million-tuple set is one flat array rather than a
// map of buckets.
type tupleSet struct {
	slots []tupleSlot
}

// tupleSlot holds SrcIP<<32|DstIP in hi, and the ports, the protocol and an
// occupied bit in lo. The occupied bit keeps the all-zero FiveTuple apart
// from an empty slot, whose lo is 0.
type tupleSlot struct{ hi, lo uint64 }

// newTupleSet returns a set for up to n tuples. It holds at least twice n
// slots, so a linear probe stays short up to the last insert.
func newTupleSet(n int) *tupleSet {
	return &tupleSet{slots: make([]tupleSlot, 2*n+1)}
}

// add inserts f and reports whether it was absent. Adding more tuples than
// the set was sized for is a bug in the caller.
func (s *tupleSet) add(f packet.FiveTuple) bool {
	k := tupleSlot{
		hi: uint64(f.SrcIP)<<32 | uint64(f.DstIP),
		lo: uint64(f.SrcPort)<<32 | uint64(f.DstPort)<<16 | uint64(f.Proto)<<8 | 1,
	}
	h := (k.hi ^ bits.RotateLeft64(k.lo, 29)) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	// The high word of h·len maps the hash onto [0, len) without needing a
	// power-of-two length.
	i, _ := bits.Mul64(h, uint64(len(s.slots)))
	for {
		e := &s.slots[i]
		if e.lo == 0 {
			*e = k
			return true
		}
		if *e == k {
			return false
		}
		if i++; i == uint64(len(s.slots)) {
			i = 0
		}
	}
}
