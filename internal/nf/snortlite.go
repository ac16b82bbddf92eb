package nf

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/hashfn"
	"halo/internal/mem"
	"halo/internal/packet"
	"halo/internal/sim"
)

// SnortLite is a signature-based intrusion detector in the mould of Snort
// (paper Table 3): an Aho-Corasick DFA over packet payloads. The DFA's
// transition table lives in simulated memory and is walked one load per
// payload byte — the L2-sized automaton working set is exactly what a
// collocated virtual switch pollutes in the paper's Fig. 12 study.
type SnortLite struct {
	Stats
	p *halo.Platform

	// Functional DFA.
	trans   [][256]int32 // state × byte → state
	output  []bool       // accepting states
	nstates int

	// Timing: where each state's transition row lives in memory.
	tableBase mem.Addr
	rowLines  uint64

	rng *sim.Rand

	keyBuf     [packet.KeyBytes]byte // per-packet key scratch
	payloadBuf [256]byte             // synthetic-payload scratch (Scan only reads)
}

// NewSnortLite builds the detector from a pattern set. Patterns are matched
// case-sensitively anywhere in the payload.
func NewSnortLite(p *halo.Platform, patterns []string) (*SnortLite, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("nf: snortlite needs at least one pattern")
	}
	s := &SnortLite{p: p, rng: sim.NewRand(0x5eed)}
	s.build(patterns)
	// One transition row = 256 × int32 = 1 KiB = 16 lines.
	s.rowLines = 16
	s.tableBase = p.Alloc.AllocLines(uint64(s.nstates) * s.rowLines)
	return s, nil
}

// DefaultPatterns returns a rule set sized to give the automaton a few
// hundred states (an L2-scale working set), standing in for the Snort VRT
// community rules.
func DefaultPatterns() []string {
	base := []string{
		"GET /admin", "cmd.exe", "/etc/passwd", "SELECT * FROM", "UNION SELECT",
		"<script>", "\\x90\\x90\\x90\\x90", "powershell -enc", "wget http://",
		"chmod 777", "/bin/sh", "eval(base64", "DROP TABLE", "xp_cmdshell",
		"../..//", "USER anonymous", "OPTIONS * HTTP", "\\xde\\xad\\xbe\\xef",
	}
	out := make([]string, 0, len(base)*3)
	for i, b := range base {
		out = append(out, b)
		out = append(out, fmt.Sprintf("%s?v=%d", b, i))
		out = append(out, fmt.Sprintf("X-%02d: %s", i, b))
	}
	return out
}

// build constructs the Aho-Corasick automaton as a dense DFA.
func (s *SnortLite) build(patterns []string) {
	type node struct {
		next [256]int32
		fail int32
		out  bool
	}
	nodes := []node{{}}
	for i := range nodes[0].next {
		nodes[0].next[i] = -1
	}
	// Trie construction.
	for _, pat := range patterns {
		cur := int32(0)
		for i := 0; i < len(pat); i++ {
			c := pat[i]
			if nodes[cur].next[c] < 0 {
				var n node
				for j := range n.next {
					n.next[j] = -1
				}
				nodes = append(nodes, n)
				nodes[cur].next[c] = int32(len(nodes) - 1)
			}
			cur = nodes[cur].next[c]
		}
		nodes[cur].out = true
	}
	// BFS failure links, converting to a dense DFA as we go.
	queue := []int32{}
	for c := 0; c < 256; c++ {
		if nodes[0].next[c] < 0 {
			nodes[0].next[c] = 0
		} else {
			nodes[nodes[0].next[c]].fail = 0
			queue = append(queue, nodes[0].next[c])
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if nodes[nodes[u].fail].out {
			nodes[u].out = true
		}
		for c := 0; c < 256; c++ {
			v := nodes[u].next[c]
			if v < 0 {
				nodes[u].next[c] = nodes[nodes[u].fail].next[c]
				continue
			}
			nodes[v].fail = nodes[nodes[u].fail].next[c]
			queue = append(queue, v)
		}
	}
	s.nstates = len(nodes)
	s.trans = make([][256]int32, len(nodes))
	s.output = make([]bool, len(nodes))
	for i, n := range nodes {
		s.trans[i] = n.next
		s.output[i] = n.out
	}
}

// States reports the automaton size.
func (s *SnortLite) States() int { return s.nstates }

// WorkingSetBytes reports the DFA table footprint.
func (s *SnortLite) WorkingSetBytes() uint64 {
	return uint64(s.nstates) * s.rowLines * mem.LineSize
}

// Name implements NF.
func (s *SnortLite) Name() string { return "snortlite" }

// Scan runs the DFA over a payload, charging one transition-table load per
// byte, and reports whether any signature matched.
func (s *SnortLite) Scan(th *cpu.Thread, payload []byte) bool {
	state := int32(0)
	matched := false
	for _, b := range payload {
		// The transition entry's cache line within the state's row.
		line := s.tableBase + mem.Addr(uint64(state)*s.rowLines+uint64(b)/16)*mem.LineSize
		th.Load(line)
		th.ALU(3)
		th.Other(1)
		state = s.trans[state][b]
		if s.output[state] {
			matched = true
		}
	}
	return matched
}

// syntheticPayload derives a deterministic pseudo-payload for a packet. A
// small fraction of packets carry an embedded signature so alerts fire.
func (s *SnortLite) syntheticPayload(pkt *packet.Packet) []byte {
	n := pkt.PayloadBytes
	if n <= 0 {
		n = 64
	}
	if n > 256 {
		n = 256
	}
	pkt.Key().Pack(s.keyBuf[:])
	rng := sim.NewRand(hashfn.Hash(hashfn.SeedFlowReg, s.keyBuf[:]))
	buf := s.payloadBuf[:n]
	for i := range buf {
		buf[i] = byte(rng.Uint32() >> 8)
	}
	if rng.Intn(50) == 0 && n > 16 {
		copy(buf[4:], "cmd.exe")
	}
	return buf
}

// ProcessPacket implements NF.
func (s *SnortLite) ProcessPacket(th *cpu.Thread, pkt *packet.Packet) Verdict {
	th.LocalLoad(10)
	th.ALU(12)
	th.Other(8)
	payload := s.syntheticPayload(pkt)
	if s.Scan(th, payload) {
		th.Other(20) // alert formatting path
		th.LocalStore(8)
		s.Stats.record()
		return VerdictAlert
	}
	s.Stats.record()
	return VerdictAccept
}
