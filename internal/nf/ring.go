package nf

import (
	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

// pktRing is the receive path shared by the hash-table network functions: a
// small DPDK-style buffer ring the NIC DMA-delivers packets into. Hash-table
// NFs key their tables on the raw header window, so the HALO engines can
// point LOOKUP instructions straight at the buffer — no key staging, exactly
// like the virtual switch datapath.
type pktRing struct {
	p    *halo.Platform
	base mem.Addr
	n    int
	next int
}

// ringBuffers matches the hot-set size of a recycling DPDK mempool (one RX
// burst).
const ringBuffers = 64

func newPktRing(p *halo.Platform) *pktRing {
	return &pktRing{p: p, base: p.Alloc.AllocLines(ringBuffers), n: ringBuffers}
}

// on returns the ring at the same addresses and position on p, a clone of
// r's platform.
func (r *pktRing) on(p *halo.Platform) *pktRing {
	c := *r
	c.p = p
	return &c
}

// deliver DMA-writes the packet's wire form into the next buffer and returns
// the buffer address. No core time is charged (the NIC pays).
func (r *pktRing) deliver(pkt *packet.Packet) mem.Addr {
	addr := r.base + mem.Addr(r.next)*mem.LineSize
	r.next = (r.next + 1) % r.n
	var wire [mem.LineSize]byte
	if err := pkt.Marshal(wire[:]); err != nil {
		panic("nf: marshalling packet: " + err.Error())
	}
	r.p.Space.WriteAt(addr, wire[:])
	r.p.Hier.DMAWrite(addr)
	return addr
}

// rxCost charges the per-packet receive work: descriptor handling and header
// parsing. These NFs process RX bursts the way DPDK applications do — the
// header of packet i+1 is prefetched while packet i is processed — so in
// steady state the header bytes are L1-resident by parse time and the fetch
// latency is hidden; only the issue slots and parse instructions remain.
func rxCost(th *cpu.Thread, bufAddr mem.Addr) {
	th.Prefetch(bufAddr) // retire the (amortized) header prefetch
	th.Other(10)
	th.LocalLoad(10)
	th.LocalStore(4)
}

// headerKeyAddr returns the address of the raw-header flow key inside a
// delivered buffer.
func headerKeyAddr(bufAddr mem.Addr) mem.Addr {
	return bufAddr + packet.HeaderKeyOff
}

// srcIPKeyAddr returns the address of the 4-byte source-IP key inside a
// delivered buffer (wire offset 26).
func srcIPKeyAddr(bufAddr mem.Addr) mem.Addr {
	return bufAddr + 26
}
