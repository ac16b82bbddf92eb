// Package nf implements the network functions of paper Table 3: the
// hash-table-bound NFs that HALO accelerates directly (NAT, passive asset
// detection, packet filtering — Fig. 13) and the compute-bound NFs used in
// the collocation study (ACL, signature matching, a user-level TCP stack —
// Fig. 12). Each NF owns state in simulated memory and processes packets on
// a cpu.Thread, so cache interactions with a collocated virtual switch are
// real, not modelled.
package nf

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/packet"
)

// Verdict is an NF's per-packet outcome.
type Verdict int

// Verdicts.
const (
	VerdictAccept Verdict = iota
	VerdictDrop
	VerdictRewritten
	VerdictAlert
)

func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "accept"
	case VerdictDrop:
		return "drop"
	case VerdictRewritten:
		return "rewritten"
	case VerdictAlert:
		return "alert"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Engine selects how a hash-table NF performs its lookups.
type Engine int

// Engines.
const (
	EngineSoftware Engine = iota
	EngineHalo
)

// NF is one network function instance.
type NF interface {
	Name() string
	// ProcessPacket runs one packet, charging the thread.
	ProcessPacket(th *cpu.Thread, pkt *packet.Packet) Verdict
	// Packets reports how many packets have been processed.
	Packets() uint64
}

// Stats tracks common counters for NF implementations.
type Stats struct {
	packets uint64
}

func (s *Stats) record() { s.packets++ }

// Packets reports processed packets.
func (s *Stats) Packets() uint64 { return s.packets }
