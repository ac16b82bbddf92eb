// Package vswitch models an OVS-style software virtual switch datapath:
// packet IO (descriptor ring + DDIO packet buffers), header pre-processing,
// the EMC, and the MegaFlow tuple-space layer, with the per-stage cycle
// breakdown of paper Fig. 3.
package vswitch

import (
	"fmt"

	"halo/internal/classify"
	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
	"halo/internal/stats"
)

// Stage labels the datapath components of the Fig. 3 breakdown.
type Stage int

// Datapath stages.
const (
	StagePacketIO Stage = iota
	StagePreProc
	StageEMC
	StageMegaFlow
	StageOpenFlow
	StageOther
	stageCount
)

func (s Stage) String() string {
	switch s {
	case StagePacketIO:
		return "packet-io"
	case StagePreProc:
		return "pre-processing"
	case StageEMC:
		return "emc-lookup"
	case StageMegaFlow:
		return "megaflow-lookup"
	case StageOpenFlow:
		return "openflow-lookup"
	case StageOther:
		return "other"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Breakdown accumulates cycles per stage.
type Breakdown [stageCount]uint64

// Total sums all stages.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// ClassificationShare returns the fraction of cycles spent in flow
// classification (EMC + MegaFlow + OpenFlow), the paper's headline §3.2
// metric.
func (b Breakdown) ClassificationShare() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b[StageEMC]+b[StageMegaFlow]+b[StageOpenFlow]) / float64(t)
}

// Engine selects the classification implementation.
type Engine int

// Engines.
const (
	// EngineSoftware is the DPDK-optimized software baseline.
	EngineSoftware Engine = iota
	// EngineHalo offloads the EMC to blocking accelerator lookups and the
	// MegaFlow search to non-blocking batches.
	EngineHalo
)

// Config selects the switch's engine and layers; the table and ring sizes
// are the OVS/DPDK defaults below.
type Config struct {
	Engine Engine
	// OpenFlow enables the third classification layer (paper Fig. 2a):
	// rules install there, the MegaFlow layer starts empty and learns
	// megaflows from OpenFlow results. The paper's analysis skips this
	// layer because it is "seldom accessed in practice" — exactly the
	// steady state the learning produces.
	OpenFlow bool
}

// DefaultConfig mirrors OVS/DPDK defaults.
func DefaultConfig() Config {
	return Config{Engine: EngineSoftware}
}

// Table and ring sizes, OVS/DPDK defaults.
const (
	emcEntries   = classify.DefaultEMCEntries
	tupleEntries = 1024
	// DPDK mempools recycle last-freed-first, so the hot buffer set is
	// about one RX burst, not the whole pool.
	packetBuffers = 64
	// emcInsertProb learns 1 in N MegaFlow-resolved EMC misses (OVS default).
	emcInsertProb = 100
)

// softwareLookups is the optimized DPDK software-lookup configuration the
// software engine's timed lookups run with.
var softwareLookups = cuckoo.DefaultLookupOptions()

// The EMC keys on the raw header window (packet.HeaderKeyOff..+HeaderKeyLen),
// the way RSS-style header hashing does, so the HALO lookup's key address
// points straight into the DDIO-delivered packet buffer.
const (
	hdrKeyOff = packet.HeaderKeyOff
	hdrKeyLen = packet.HeaderKeyLen
)

// Switch is one datapath instance bound to a platform.
type Switch struct {
	cfg  Config
	p    *halo.Platform
	EMC  *classify.EMC
	Mega *classify.TupleSpace
	Open *classify.TupleSpace // nil unless cfg.OpenFlow

	bufBase  mem.Addr
	descBase mem.Addr
	nextBuf  int
	pktCount uint64

	breakdown  Breakdown
	packets    uint64
	megaHits   uint64
	megaMisses uint64
	openHits   uint64

	// hdrKeyBuf is the per-packet header-key scratch; every consumer of the
	// key (EMC/MegaFlow lookups, LearnRaw) copies what it retains, so
	// one buffer per switch is safe.
	hdrKeyBuf [hdrKeyLen]byte
}

// New builds a switch on a platform. The MegaFlow layer uses first-match
// semantics, as OVS's does.
func New(p *halo.Platform, cfg Config) (*Switch, error) {
	emc, err := classify.NewEMCKeyLen(p.Space, p.Alloc, emcEntries, hdrKeyLen)
	if err != nil {
		return nil, err
	}
	sw := &Switch{
		cfg:      cfg,
		p:        p,
		EMC:      emc,
		Mega:     classify.NewTupleSpace(p.Space, p.Alloc, classify.FirstMatch, tupleEntries),
		bufBase:  p.Alloc.AllocLines(packetBuffers),
		descBase: p.Alloc.AllocLines((packetBuffers + 3) / 4),
	}
	if cfg.OpenFlow {
		sw.Open = classify.NewTupleSpace(p.Space, p.Alloc, classify.HighestPriority, tupleEntries)
	}
	return sw, nil
}

// CollectInto gathers the switch's counters into a snapshot: per-stage
// cycles, MegaFlow/OpenFlow outcomes and the classification tables'
// operation counts.
func (sw *Switch) CollectInto(s *stats.Snapshot) {
	s.Add("vswitch.packets", sw.packets)
	for st := StagePacketIO; st <= StageOther; st++ {
		s.Add("vswitch.cycles."+st.String(), sw.breakdown[st])
	}
	s.Add("vswitch.mega.hits", sw.megaHits)
	s.Add("vswitch.mega.misses", sw.megaMisses)
	s.Add("vswitch.openflow.hits", sw.openHits)
	sw.EMC.Table().Stats().CollectInto(s)
	for _, tp := range sw.Mega.Tuples() {
		tp.Table.Stats().CollectInto(s)
	}
	if sw.Open != nil {
		for _, tp := range sw.Open.Tuples() {
			tp.Table.Stats().CollectInto(s)
		}
	}
}

// Breakdown returns the accumulated per-stage cycles.
func (sw *Switch) Breakdown() Breakdown { return sw.breakdown }

// Packets returns the number processed.
func (sw *Switch) Packets() uint64 { return sw.packets }

// MegaStats returns MegaFlow-layer hit/miss counts.
func (sw *Switch) MegaStats() (hits, misses uint64) { return sw.megaHits, sw.megaMisses }

// OpenFlowHits reports slow-path classifications.
func (sw *Switch) OpenFlowHits() uint64 { return sw.openHits }

// CyclesPerPacket returns the average packet cost so far.
func (sw *Switch) CyclesPerPacket() float64 {
	if sw.packets == 0 {
		return 0
	}
	return float64(sw.breakdown.Total()) / float64(sw.packets)
}

// ResetStats clears the breakdown (e.g. after warm-up).
func (sw *Switch) ResetStats() {
	sw.breakdown = Breakdown{}
	sw.packets = 0
	sw.megaHits = 0
	sw.megaMisses = 0
	sw.openHits = 0
}

// deliver models the NIC DMA: the packet's wire bytes land in the next ring
// buffer via DDIO.
func (sw *Switch) deliver(pkt *packet.Packet) (bufAddr, descAddr mem.Addr) {
	i := sw.nextBuf
	sw.nextBuf = (sw.nextBuf + 1) % packetBuffers
	bufAddr = sw.bufBase + mem.Addr(i)*mem.LineSize
	descAddr = sw.descBase + mem.Addr(i/4)*mem.LineSize

	var wire [mem.LineSize]byte
	if err := pkt.Marshal(wire[:]); err != nil {
		panic("vswitch: marshalling generated packet: " + err.Error())
	}
	sw.p.Space.WriteAt(bufAddr, wire[:])
	sw.p.Hier.DMAWrite(bufAddr)
	sw.p.Hier.DMAWrite(descAddr)
	return bufAddr, descAddr
}

// ProcessPacket runs one packet through the datapath on the given thread
// and returns its classification result.
func (sw *Switch) ProcessPacket(th *cpu.Thread, pkt *packet.Packet) (classify.Match, bool) {
	sw.packets++
	start := th.Now
	bufAddr, descAddr := sw.deliver(pkt)

	// --- Packet IO: descriptor poll, buffer fetch, ring bookkeeping.
	t0 := th.Now
	th.Load(descAddr) // RX descriptor (DDIO-fresh: LLC hit)
	th.Load(bufAddr)  // packet header line
	th.Other(30)
	th.LocalLoad(16)
	th.LocalStore(14)
	th.ALU(8)
	sw.breakdown[StagePacketIO] += uint64(th.Now - t0)

	// --- Pre-processing: parse headers, build the miniflow key.
	t0 = th.Now
	th.LocalLoad(18) // header fields (line already in L1)
	th.ALU(46)       // field extraction, byte swaps, key packing
	th.LocalStore(8)
	th.Other(20)
	key := pkt.Key()
	sw.breakdown[StagePreProc] += uint64(th.Now - t0)

	// --- EMC lookup.
	t0 = th.Now
	var m classify.Match
	var ok bool
	hdrKey := sw.hdrKeyBuf[:]
	sw.p.Space.ReadAt(bufAddr+hdrKeyOff, hdrKey)
	if sw.cfg.Engine == EngineHalo {
		m, ok = sw.EMC.LookupHaloBAt(th, sw.p.Unit, bufAddr+hdrKeyOff)
	} else {
		m, ok = sw.EMC.LookupTimedRaw(th, hdrKey, softwareLookups)
	}
	sw.breakdown[StageEMC] += uint64(th.Now - t0)

	// --- MegaFlow tuple space search on EMC miss.
	if !ok {
		t0 = th.Now
		if sw.cfg.Engine == EngineHalo {
			m, ok = sw.Mega.ClassifyHaloNB(th, sw.p.Unit, key)
		} else {
			m, ok = sw.Mega.ClassifyTimed(th, key, softwareLookups)
		}
		if ok {
			sw.megaHits++
			// Probabilistic EMC insertion (OVS: 1 in emcInsertProb).
			sw.pktCount++
			if sw.pktCount%emcInsertProb == 0 {
				sw.learnEMC(th, hdrKey, m)
			}
		} else {
			sw.megaMisses++
		}
		sw.breakdown[StageMegaFlow] += uint64(th.Now - t0)

		// --- OpenFlow slow path on MegaFlow miss: search every tuple,
		// highest priority wins, then install the winning rule as a
		// megaflow so later packets short-circuit (the upcall path).
		if !ok && sw.Open != nil {
			t0 = th.Now
			m, ok = sw.Open.ClassifyTimed(th, key, softwareLookups)
			if ok {
				sw.openHits++
				if mask, pattern, found := sw.Open.RuleSource(key, m); found {
					if err := sw.Mega.InsertRule(mask, pattern, m); err == nil {
						th.Other(40) // upcall + megaflow installation work
						th.LocalStore(12)
					}
				}
				sw.learnEMC(th, hdrKey, m)
			}
			sw.breakdown[StageOpenFlow] += uint64(th.Now - t0)
		}
	}

	// --- Other: action execution, stats, TX batching.
	t0 = th.Now
	th.Other(42)
	th.LocalLoad(18)
	th.LocalStore(16)
	th.ALU(12)
	th.Store(descAddr) // TX descriptor writeback
	sw.breakdown[StageOther] += uint64(th.Now - t0)

	th.Record("lat.packet", th.Now-start)
	return m, ok
}

// learnEMC inserts a resolved flow into the EMC, charging the thread.
func (sw *Switch) learnEMC(th *cpu.Thread, hdrKey []byte, m classify.Match) {
	// The insert itself is charged as a timed insert against the EMC
	// table; eviction management is the functional layer's concern.
	_ = th
	sw.EMC.LearnRaw(hdrKey, m)
	th.Other(20)
	th.LocalStore(6)
	th.Store(sw.EMC.Table().Base()) // version/metadata touch
}

// RuleLayer is the tuple space rules install into: the OpenFlow layer when
// it is enabled, leaving the MegaFlow layer to learn, else MegaFlow.
func (sw *Switch) RuleLayer() *classify.TupleSpace {
	if sw.Open != nil {
		return sw.Open
	}
	return sw.Mega
}

// Warm pre-loads the switch's tables into the LLC.
func (sw *Switch) Warm() {
	sw.p.WarmTable(sw.EMC.Table())
	for _, tp := range sw.Mega.Tuples() {
		sw.p.WarmTable(tp.Table)
	}
	if sw.Open != nil {
		for _, tp := range sw.Open.Tuples() {
			sw.p.WarmTable(tp.Table)
		}
	}
}
