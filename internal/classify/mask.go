// Package classify implements the flow-classification stack of an OVS-style
// virtual switch (paper §2.2, Fig. 2a): the exact-match cache (EMC), the
// MegaFlow layer (tuple space search over wildcard masks, first match wins)
// and the OpenFlow layer (search every tuple, highest priority wins). Rule
// tables are cuckoo hash tables resident in simulated memory, so both the
// software path and the HALO accelerators can classify.
package classify

import (
	"fmt"

	"halo/internal/packet"
)

// Mask describes one wildcard pattern over the five-tuple: prefix lengths
// for the IPs and wildcard bits for ports and protocol. Rules sharing a Mask
// live in the same tuple (hash table).
type Mask struct {
	SrcIPBits   uint8 // 0..32 prefix bits that must match
	DstIPBits   uint8
	SrcPortWild bool
	DstPortWild bool
	ProtoWild   bool
}

func prefixMask(bits uint8) uint32 {
	if bits == 0 {
		return 0
	}
	if bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - bits)
}

// Apply zeroes the wildcarded bits of a tuple, producing the canonical
// masked key for this tuple's hash table.
func (m Mask) Apply(t packet.FiveTuple) packet.FiveTuple {
	t.SrcIP &= prefixMask(m.SrcIPBits)
	t.DstIP &= prefixMask(m.DstIPBits)
	if m.SrcPortWild {
		t.SrcPort = 0
	}
	if m.DstPortWild {
		t.DstPort = 0
	}
	if m.ProtoWild {
		t.Proto = 0
	}
	return t
}

// Key returns the packed masked key as a fresh slice.
func (m Mask) Key(t packet.FiveTuple) []byte {
	return m.Apply(t).Packed()
}

// KeyInto packs the masked key into buf (at least packet.KeyBytes long),
// for hot paths that reuse a scratch buffer.
func (m Mask) KeyInto(t packet.FiveTuple, buf []byte) {
	m.Apply(t).Pack(buf)
}

// Valid reports whether the mask is well formed.
func (m Mask) Valid() bool {
	return m.SrcIPBits <= 32 && m.DstIPBits <= 32
}

func (m Mask) String() string {
	return fmt.Sprintf("Mask{src/%d dst/%d sp=%v dp=%v proto=%v}",
		m.SrcIPBits, m.DstIPBits, !m.SrcPortWild, !m.DstPortWild, !m.ProtoWild)
}

// ActionKind is what the switch does with a matched packet.
type ActionKind uint8

// ActionOutput forwards the packet to Action.Port. Its value, 1, is part
// of every encoded rule value (encodeRule), so it must not change.
const ActionOutput ActionKind = 1

// Action is a match's consequence.
type Action struct {
	Kind ActionKind
	Port int // output/mirror port, NAT pool index
}

// Match is a classification result.
type Match struct {
	Action   Action
	Priority uint16
	RuleID   uint32
}
