package nf

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

// ACL is a DPDK-style access control list (paper Table 3: "packets randomly
// generated to match 6 rules and 1 route with various wildcarding"). Rules
// are five-tuple ranges evaluated in priority order; the rule array and a
// route trie page live in simulated memory, so the NF has a real private
// working set.
type ACL struct {
	Stats
	p     *halo.Platform
	rules []ACLRule

	ruleBase  mem.Addr
	trieBase  mem.Addr
	trieLines uint64

	permitted, denied uint64
}

// ACLRule is one range rule.
type ACLRule struct {
	SrcIPLo, SrcIPHi     uint32
	DstIPLo, DstIPHi     uint32
	SrcPortLo, SrcPortHi uint16
	DstPortLo, DstPortHi uint16
	Proto                uint8 // 0 = any
	Permit               bool
}

// MatchesRule reports whether a packet hits a rule.
func (r ACLRule) MatchesRule(p *packet.Packet) bool {
	return p.SrcIP >= r.SrcIPLo && p.SrcIP <= r.SrcIPHi &&
		p.DstIP >= r.DstIPLo && p.DstIP <= r.DstIPHi &&
		p.SrcPort >= r.SrcPortLo && p.SrcPort <= r.SrcPortHi &&
		p.DstPort >= r.DstPortLo && p.DstPort <= r.DstPortHi &&
		(r.Proto == 0 || r.Proto == p.Proto)
}

const aclRuleBytes = 32 // two rules per cache line

// NewACL builds an ACL with the given rules and a trie working set of
// trieKB kilobytes (DPDK ACL tries run tens to hundreds of KB).
func NewACL(p *halo.Platform, rules []ACLRule, trieKB int) (*ACL, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("nf: ACL needs at least one rule")
	}
	a := &ACL{
		p:         p,
		rules:     append([]ACLRule(nil), rules...),
		ruleBase:  p.Alloc.AllocLines(uint64(len(rules)*aclRuleBytes+mem.LineSize-1) / mem.LineSize),
		trieLines: uint64(trieKB) * 1024 / mem.LineSize,
	}
	a.trieBase = p.Alloc.AllocLines(a.trieLines)
	return a, nil
}

// DefaultRules returns the paper's 6-rule + default-route configuration.
func DefaultRules() []ACLRule {
	return []ACLRule{
		{SrcIPLo: 0x0a000000, SrcIPHi: 0x0affffff, DstPortLo: 22, DstPortHi: 22, SrcPortHi: 65535, DstIPHi: ^uint32(0), Permit: false},
		{SrcIPLo: 0x0a000000, SrcIPHi: 0x0a00ffff, DstPortLo: 80, DstPortHi: 443, SrcPortHi: 65535, DstIPHi: ^uint32(0), Permit: true},
		{DstIPLo: 0xc0a80000, DstIPHi: 0xc0a8ffff, DstPortHi: 1023, SrcPortHi: 65535, SrcIPHi: ^uint32(0), Permit: false},
		{DstIPLo: 0xc0a80000, DstIPHi: 0xc0a8ffff, DstPortLo: 1024, DstPortHi: 65535, SrcPortHi: 65535, SrcIPHi: ^uint32(0), Permit: true},
		{SrcIPLo: 0, SrcIPHi: ^uint32(0), DstIPHi: ^uint32(0), SrcPortHi: 65535, DstPortLo: 53, DstPortHi: 53, Proto: packet.ProtoUDP, Permit: true},
		{SrcIPHi: ^uint32(0), DstIPHi: ^uint32(0), SrcPortHi: 65535, DstPortHi: 65535, Proto: packet.ProtoTCP, Permit: true},
		// Default route: permit everything remaining.
		{SrcIPHi: ^uint32(0), DstIPHi: ^uint32(0), SrcPortHi: 65535, DstPortHi: 65535, Permit: true},
	}
}

// Name implements NF.
func (a *ACL) Name() string { return "acl" }

// Permitted and Denied report verdict counts.
func (a *ACL) Permitted() uint64 { return a.permitted }

// Denied reports denied-packet count.
func (a *ACL) Denied() uint64 { return a.denied }

// ProcessPacket implements NF: trie walk plus rule-range evaluation.
func (a *ACL) ProcessPacket(th *cpu.Thread, pkt *packet.Packet) Verdict {
	th.LocalLoad(8)
	th.ALU(10)

	// Trie walk: four levels indexed by destination address bytes. The
	// trie pages are this NF's cache working set.
	idx := uint64(pkt.DstIP)
	for level := 0; level < 4; level++ {
		line := ((idx >> (8 * level)) & 0xff) * 97 % a.trieLines
		th.Load(a.trieBase + mem.Addr(line)*mem.LineSize)
		th.ALU(4)
	}

	// Range evaluation over the rule array (vectorised in DPDK; the
	// comparisons still retire).
	verdict := VerdictDrop
	for i, r := range a.rules {
		if i%2 == 0 {
			th.Load(a.ruleBase + mem.Addr(i/2)*mem.LineSize)
		}
		th.ALU(10)
		th.Other(2)
		if r.MatchesRule(pkt) {
			if r.Permit {
				verdict = VerdictAccept
			}
			break
		}
	}
	th.Other(6)
	if verdict == VerdictAccept {
		a.permitted++
	} else {
		a.denied++
	}
	a.Stats.record()
	return verdict
}
