package nf

import (
	"encoding/binary"
	"fmt"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

// Prads is a passive real-time asset detection system (paper Table 3): it
// tracks observed hosts (assets) keyed by source IP in a hash table, where
// each asset record accumulates packet counts and last-seen service info.
// The record array lives in simulated memory; updates are real stores.
type Prads struct {
	Stats
	engine Engine
	p      *halo.Platform
	table  *cuckoo.Table
	ring   *pktRing

	recordBase mem.Addr
	nextRecord uint32
	capacity   uint64

	assets uint64
}

const pradsRecordBytes = 64 // one cache line per asset record

// NewPrads builds an asset tracker with room for `entries` assets.
func NewPrads(p *halo.Platform, engine Engine, entries uint64) (*Prads, error) {
	tbl, err := cuckoo.Create(p.Space, p.Alloc, cuckoo.Config{Entries: entries, KeyLen: 4})
	if err != nil {
		return nil, fmt.Errorf("nf: creating prads table: %w", err)
	}
	base := p.Alloc.AllocLines(entries)
	return &Prads{engine: engine, p: p, table: tbl, ring: newPktRing(p), recordBase: base, capacity: entries}, nil
}

// Name implements NF.
func (pr *Prads) Name() string { return "prads" }

// Table exposes the asset index table.
func (pr *Prads) Table() *cuckoo.Table { return pr.table }

// Assets reports the number of tracked assets.
func (pr *Prads) Assets() uint64 { return pr.assets }

// AssetPackets returns the accumulated packet count for a host, reading the
// record from simulated memory.
func (pr *Prads) AssetPackets(srcIP uint32) (uint64, bool) {
	// Keys are the wire-order (big-endian) source address bytes, matching
	// what sits in the packet buffer at the key address.
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], srcIP)
	rec, ok := pr.table.Lookup(key[:])
	if !ok {
		return 0, false
	}
	return pr.p.Space.Load64(mem.Addr(rec)), true
}

// Clone returns the tracker in its current state on a clone of its platform
// (halo.Platform.Clone), doing its lookups with engine: one preloaded,
// warmed table then serves a run per engine.
func (pr *Prads) Clone(engine Engine) (*halo.Platform, NF) {
	p, tables := pr.p.Clone(pr.table)
	c := *pr
	c.engine, c.p, c.table, c.ring = engine, p, tables[0], pr.ring.on(p)
	return p, &c
}

// Preload registers a set of hosts as known assets.
func (pr *Prads) Preload(hosts []uint32) error {
	var key [4]byte
	for _, h := range hosts {
		binary.BigEndian.PutUint32(key[:], h)
		if _, ok := pr.table.Lookup(key[:]); ok {
			continue
		}
		if err := pr.table.Insert(key[:], uint64(pr.newRecord())); err != nil {
			return err
		}
	}
	return nil
}

func (pr *Prads) newRecord() mem.Addr {
	rec := pr.recordBase + mem.Addr(pr.nextRecord)*pradsRecordBytes
	pr.nextRecord++
	pr.assets++
	return rec
}

// ProcessPacket implements NF: look up the source host's asset record and
// update it; register unknown hosts.
func (pr *Prads) ProcessPacket(th *cpu.Thread, pkt *packet.Packet) Verdict {
	bufAddr := pr.ring.deliver(pkt)
	rxCost(th, bufAddr)
	th.ALU(6)
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], pkt.SrcIP)

	var rec uint64
	var ok bool
	switch pr.engine {
	case EngineHalo:
		rec, ok = pr.p.Unit.LookupBAt(th, pr.table.Base(), srcIPKeyAddr(bufAddr))
	default:
		rec, ok = pr.table.TimedLookup(th, key[:], cuckoo.DefaultLookupOptions())
	}
	if !ok {
		if pr.nextRecord >= uint32(pr.capacity) {
			pr.Stats.record()
			return VerdictAccept // table full: stop tracking new assets
		}
		rec = uint64(pr.newRecord())
		th.ALU(6)
		th.Other(6)
		if err := pr.table.TimedInsert(th, key[:], rec); err != nil {
			pr.Stats.record()
			return VerdictAccept
		}
	}

	// Update the asset record: packet count, last-seen port/proto.
	recAddr := mem.Addr(rec)
	count := pr.p.Space.Load64(recAddr) + 1
	pr.p.Space.Store64(recAddr, count)
	pr.p.Space.Store32(recAddr+8, uint32(pkt.DstPort)<<16|uint32(pkt.Proto))
	th.Load(recAddr)
	th.ALU(6)
	th.Store(recAddr)
	th.Other(4)
	pr.Stats.record()
	return VerdictAlert
}
