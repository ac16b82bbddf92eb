package nf

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/packet"
)

// Filter is a hash-table IP packet filter (paper Table 3): a table of exact
// flow rules decides drop or accept; unlisted flows pass with the default
// verdict. Rules key on the raw header window so the HALO engine reads keys
// straight from the DDIO packet buffers.
type Filter struct {
	Stats
	engine  Engine
	p       *halo.Platform
	table   *cuckoo.Table
	ring    *pktRing
	Default Verdict

	dropped uint64

	keyBuf [packet.HeaderKeyLen]byte // per-packet key scratch (table copies)
}

// Filter rule values.
const (
	filterDrop uint64 = iota + 1
	filterAccept
)

// NewFilter builds a filter with room for `entries` rules.
func NewFilter(p *halo.Platform, engine Engine, entries uint64) (*Filter, error) {
	tbl, err := cuckoo.Create(p.Space, p.Alloc, cuckoo.Config{Entries: entries, KeyLen: packet.HeaderKeyLen})
	if err != nil {
		return nil, fmt.Errorf("nf: creating filter table: %w", err)
	}
	return &Filter{engine: engine, p: p, table: tbl, ring: newPktRing(p), Default: VerdictAccept}, nil
}

// Name implements NF.
func (f *Filter) Name() string { return "packet-filter" }

// Table exposes the rule table.
func (f *Filter) Table() *cuckoo.Table { return f.table }

// Dropped reports dropped-packet count.
func (f *Filter) Dropped() uint64 { return f.dropped }

// AddRule installs a drop or accept rule for a flow.
func (f *Filter) AddRule(flow packet.FiveTuple, drop bool) error {
	return f.table.Insert(flow.HeaderKey(), filterRule(drop))
}

// filterRule is the table value of a drop or accept rule.
func filterRule(drop bool) uint64 {
	if drop {
		return filterDrop
	}
	return filterAccept
}

// Preload installs one rule per flow, flow i's a drop rule when drop(i)
// holds, as AddRule-ing them in order would. It stops at the first rule
// that does not go in.
func (f *Filter) Preload(flows []packet.FiveTuple, drop func(i int) bool) error {
	_, err := f.table.Fill(uint64(len(flows)),
		func(i uint64, k []byte) { flows[i].PutHeaderKey(k) },
		func(i uint64) uint64 { return filterRule(drop(int(i))) })
	return err
}

// Clone returns the filter in its current state on a clone of its platform
// (halo.Platform.Clone), doing its lookups with engine: one preloaded,
// warmed table then serves a run per engine.
func (f *Filter) Clone(engine Engine) (*halo.Platform, NF) {
	p, tables := f.p.Clone(f.table)
	c := *f
	c.engine, c.p, c.table, c.ring = engine, p, tables[0], f.ring.on(p)
	return p, &c
}

// ProcessPacket implements NF.
func (f *Filter) ProcessPacket(th *cpu.Thread, pkt *packet.Packet) Verdict {
	bufAddr := f.ring.deliver(pkt)
	rxCost(th, bufAddr)
	th.ALU(8)

	var v uint64
	var ok bool
	switch f.engine {
	case EngineHalo:
		v, ok = f.p.Unit.LookupBAt(th, f.table.Base(), headerKeyAddr(bufAddr))
	default:
		pkt.Key().PutHeaderKey(f.keyBuf[:])
		v, ok = f.table.TimedLookup(th, f.keyBuf[:], cuckoo.DefaultLookupOptions())
	}
	th.Other(4)
	verdict := f.Default
	if ok && v == filterDrop {
		verdict = VerdictDrop
		f.dropped++
	}
	f.Stats.record()
	return verdict
}
