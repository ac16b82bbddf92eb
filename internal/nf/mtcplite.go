package nf

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

// MTCPLite is a user-level TCP stack in the mould of mTCP (paper Table 3):
// a connection hash table maps five-tuples to per-connection control blocks
// (TCB) and socket buffers in simulated memory. Per-packet processing is a
// TCB lookup, protocol state-machine work, and receive-buffer bookkeeping —
// the private-cache-resident TCB working set is what collocation pollutes.
type MTCPLite struct {
	Stats
	p     *halo.Platform
	table *cuckoo.Table

	tcbBase  mem.Addr
	nextTCB  uint32
	capacity uint64

	established uint64
	segments    uint64

	keyBuf [packet.KeyBytes]byte // per-packet key scratch (table copies)
}

// TCP state values stored in the TCB.
const (
	tcpListen uint32 = iota
	tcpSynReceived
	tcpEstablished
)

const tcbBytes = 128 // control block + receive-window metadata: two lines

// NewMTCPLite builds a stack with room for `connections` concurrent flows.
func NewMTCPLite(p *halo.Platform, connections uint64) (*MTCPLite, error) {
	tbl, err := cuckoo.Create(p.Space, p.Alloc, cuckoo.Config{Entries: connections, KeyLen: packet.KeyBytes})
	if err != nil {
		return nil, fmt.Errorf("nf: creating connection table: %w", err)
	}
	base := p.Alloc.Alloc(connections*tcbBytes, mem.LineSize)
	return &MTCPLite{p: p, table: tbl, tcbBase: base, capacity: connections}, nil
}

// Name implements NF.
func (m *MTCPLite) Name() string { return "mtcplite" }

// Table exposes the connection table.
func (m *MTCPLite) Table() *cuckoo.Table { return m.table }

// Established reports connections that have completed the handshake.
func (m *MTCPLite) Established() uint64 { return m.established }

// Segments reports processed data segments.
func (m *MTCPLite) Segments() uint64 { return m.segments }

// ConnState returns a connection's TCP state, for tests.
func (m *MTCPLite) ConnState(f packet.FiveTuple) (uint32, bool) {
	v, ok := m.table.Lookup(f.Packed())
	if !ok {
		return 0, false
	}
	return m.p.Space.Load32(mem.Addr(v)), true
}

// ProcessPacket implements NF: demux to a connection and run the protocol
// state machine. Non-TCP packets are dropped.
func (m *MTCPLite) ProcessPacket(th *cpu.Thread, pkt *packet.Packet) Verdict {
	th.LocalLoad(10)
	th.ALU(16)
	if pkt.Proto != packet.ProtoTCP {
		th.Other(4)
		m.Stats.record()
		return VerdictDrop
	}
	key := m.keyBuf[:]
	pkt.Key().Pack(key)
	tcb, ok := m.table.TimedLookup(th, key, cuckoo.DefaultLookupOptions())
	if !ok {
		// New connection: allocate a TCB (SYN handling).
		if uint64(m.nextTCB)*tcbBytes >= m.capacity*tcbBytes {
			m.Stats.record()
			return VerdictDrop
		}
		tcb = uint64(m.tcbBase) + uint64(m.nextTCB)*tcbBytes
		m.nextTCB++
		th.ALU(12)
		th.Other(10)
		if err := m.table.TimedInsert(th, key, tcb); err != nil {
			m.Stats.record()
			return VerdictDrop
		}
		m.p.Space.Store32(mem.Addr(tcb), tcpSynReceived)
		th.Store(mem.Addr(tcb))
		m.Stats.record()
		return VerdictAccept
	}

	// Existing connection: read the TCB, advance the state machine,
	// update sequence bookkeeping and the receive window.
	tcbAddr := mem.Addr(tcb)
	th.Load(tcbAddr)
	state := m.p.Space.Load32(tcbAddr)
	switch state {
	case tcpSynReceived:
		m.p.Space.Store32(tcbAddr, tcpEstablished)
		m.established++
		th.ALU(14)
	case tcpEstablished:
		m.segments++
		// Sequence/ack arithmetic and reassembly checks.
		seq := m.p.Space.Load64(tcbAddr+8) + uint64(pkt.PayloadBytes)
		m.p.Space.Store64(tcbAddr+8, seq)
		th.ALU(30)
		th.Other(12)
		// Receive-buffer line touch.
		th.Load(tcbAddr + mem.LineSize)
		th.Store(tcbAddr + mem.LineSize)
	default:
		m.p.Space.Store32(tcbAddr, tcpSynReceived)
		th.ALU(8)
	}
	th.Store(tcbAddr)
	th.Other(8)
	th.LocalStore(8)
	m.Stats.record()
	return VerdictAccept
}
