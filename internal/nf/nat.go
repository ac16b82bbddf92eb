package nf

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/packet"
)

// NAT is a DPDK-style exact-match network address translator (paper
// Table 3): a hash table maps LAN flows to allocated WAN (IP, port) pairs;
// hits rewrite the header, misses allocate a new binding. Packets arrive in
// a DDIO buffer ring and the binding table keys on the raw header window, so
// the HALO engine's lookups read the key straight from the packet buffer.
type NAT struct {
	Stats
	engine Engine
	p      *halo.Platform
	table  *cuckoo.Table
	ring   *pktRing

	wanIP    uint32
	nextPort uint16

	hits, misses uint64

	keyBuf [packet.HeaderKeyLen]byte // per-packet key scratch (table copies)
}

// NewNAT builds a NAT whose binding table holds `entries` flows.
func NewNAT(p *halo.Platform, engine Engine, entries uint64) (*NAT, error) {
	tbl, err := cuckoo.Create(p.Space, p.Alloc, cuckoo.Config{Entries: entries, KeyLen: packet.HeaderKeyLen})
	if err != nil {
		return nil, fmt.Errorf("nf: creating NAT table: %w", err)
	}
	return &NAT{
		engine: engine, p: p, table: tbl, ring: newPktRing(p),
		wanIP: 0xC6336401, nextPort: 20000,
	}, nil
}

// Name implements NF.
func (n *NAT) Name() string { return "nat" }

// Table exposes the binding table for preloading and warming.
func (n *NAT) Table() *cuckoo.Table { return n.table }

// HitRate reports the binding-table hit rate.
func (n *NAT) HitRate() float64 {
	if n.hits+n.misses == 0 {
		return 0
	}
	return float64(n.hits) / float64(n.hits+n.misses)
}

// Clone returns the NAT in its current state on a clone of its platform
// (halo.Platform.Clone), doing its lookups with engine: one preloaded,
// warmed table then serves a run per engine.
func (n *NAT) Clone(engine Engine) (*halo.Platform, NF) {
	p, tables := n.p.Clone(n.table)
	c := *n
	c.engine, c.p, c.table, c.ring = engine, p, tables[0], n.ring.on(p)
	return p, &c
}

// Preload installs bindings for a set of flows so measurement runs are
// lookup-dominated, as in the paper's 1K/10K/100K-entry configurations. It
// stops at the first flow that does not go in.
func (n *NAT) Preload(flows []packet.FiveTuple) error {
	_, err := n.table.Fill(uint64(len(flows)),
		func(i uint64, k []byte) { flows[i].PutHeaderKey(k) },
		func(uint64) uint64 { return n.allocBinding() })
	return err
}

func (n *NAT) allocBinding() uint64 {
	n.nextPort++
	if n.nextPort < 20000 {
		n.nextPort = 20000
	}
	return uint64(n.wanIP)<<16 | uint64(n.nextPort)
}

// ProcessPacket implements NF: translate one LAN→WAN packet.
func (n *NAT) ProcessPacket(th *cpu.Thread, pkt *packet.Packet) Verdict {
	bufAddr := n.ring.deliver(pkt)
	rxCost(th, bufAddr)
	th.ALU(10)

	var binding uint64
	var ok bool
	switch n.engine {
	case EngineHalo:
		binding, ok = n.p.Unit.LookupBAt(th, n.table.Base(), headerKeyAddr(bufAddr))
	default:
		pkt.Key().PutHeaderKey(n.keyBuf[:])
		binding, ok = n.table.TimedLookup(th, n.keyBuf[:], cuckoo.DefaultLookupOptions())
	}
	if !ok {
		n.misses++
		binding = n.allocBinding()
		// Allocation path: pick a free port, insert the binding.
		th.ALU(10)
		th.Other(8)
		pkt.Key().PutHeaderKey(n.keyBuf[:])
		if err := n.table.TimedInsert(th, n.keyBuf[:], binding); err != nil {
			n.Stats.record()
			return VerdictDrop
		}
	} else {
		n.hits++
	}

	// Rewrite source IP/port and fold the checksum delta.
	pkt.SrcIP = uint32(binding >> 16)
	pkt.SrcPort = uint16(binding)
	th.ALU(16)
	th.LocalStore(6)
	th.Other(6)
	n.Stats.record()
	return VerdictRewritten
}
