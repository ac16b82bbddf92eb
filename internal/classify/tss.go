package classify

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

// ruleValue packs a Match into a table value: priority<<40 | ruleID<<8 |
// actionKind, with the action port in bits 8..39 of a side table. To keep
// the value self-contained (the accelerator returns just the value), the
// whole Match is encoded in 61 bits: priority(16) | ruleID(24) | port(16) |
// kind(4).
func encodeRule(m Match) uint64 {
	return uint64(m.Priority)<<44 | uint64(m.RuleID&0xFFFFFF)<<20 |
		uint64(uint16(m.Action.Port))<<4 | uint64(m.Action.Kind&0xF)
}

// DecodeRuleValue unpacks a classifier table value into its Match (for
// datapaths that read the tables directly).
func DecodeRuleValue(v uint64) Match {
	return Match{
		Priority: uint16(v >> 44),
		RuleID:   uint32(v >> 20 & 0xFFFFFF),
		Action:   Action{Kind: ActionKind(v & 0xF), Port: int(uint16(v >> 4))},
	}
}

// Tuple is one wildcard pattern's rule table: a mask plus a cuckoo hash
// table of masked keys.
type Tuple struct {
	Mask  Mask
	Table *cuckoo.Table
	rules uint64
}

// SearchMode selects the layer semantics of paper Fig. 2a.
type SearchMode int

const (
	// FirstMatch returns on the first tuple that matches (MegaFlow layer;
	// its rules are built disjoint by the revalidator).
	FirstMatch SearchMode = iota
	// HighestPriority searches every tuple and keeps the best-priority
	// match (OpenFlow layer).
	HighestPriority
)

// TupleSpace is a tuple-space-search classifier.
type TupleSpace struct {
	space  *mem.Memory
	alloc  *mem.Allocator
	mode   SearchMode
	tuples []*Tuple

	entriesPerTuple uint64

	// Per-search scratch. Sequential search paths mask one tuple's key at a
	// time into keyScratch (every lookup copies what it keeps); the
	// non-blocking path needs all per-tuple keys live at once until the batch
	// issues, so it carves them out of the nbKeys arena. Classifiers were
	// already single-owner (table stats race otherwise).
	keyScratch [packet.KeyBytes]byte
	nbKeys     []byte
	nbQueries  []halo.NBQuery
	nbResults  []halo.NBResult
}

// NewTupleSpace builds an empty classifier whose tuples hold up to
// entriesPerTuple rules each (the paper evaluates 1024-entry tuples).
func NewTupleSpace(space *mem.Memory, alloc *mem.Allocator, mode SearchMode, entriesPerTuple uint64) *TupleSpace {
	return &TupleSpace{space: space, alloc: alloc, mode: mode, entriesPerTuple: entriesPerTuple}
}

// Clone returns ts on a clone of p, the platform whose memory ts was built
// in (halo.Platform.Clone): the same tuples, masks and rules over the
// clone's copies of the tuple tables, which stay unregistered as ts's are,
// and fresh search scratch. The two classifiers then evolve independently.
func (ts *TupleSpace) Clone(p *halo.Platform) (*halo.Platform, *TupleSpace) {
	tables := make([]*cuckoo.Table, len(ts.tuples))
	for i, tp := range ts.tuples {
		tables[i] = tp.Table
	}
	cp, cloned := p.Clone(tables...)
	c := NewTupleSpace(cp.Space, cp.Alloc, ts.mode, ts.entriesPerTuple)
	for i, tp := range ts.tuples {
		c.tuples = append(c.tuples, &Tuple{Mask: tp.Mask, Table: cloned[i], rules: tp.rules})
	}
	return cp, c
}

// Tuples returns the live tuples, most-recently-hit ordering preserved as
// inserted (OVS sorts by hit frequency; workloads here control order
// explicitly).
func (ts *TupleSpace) Tuples() []*Tuple { return ts.tuples }

// Mode returns the search semantics.
func (ts *TupleSpace) Mode() SearchMode { return ts.mode }

// RuleCount returns the number of installed rules.
func (ts *TupleSpace) RuleCount() uint64 {
	var n uint64
	for _, tp := range ts.tuples {
		n += tp.rules
	}
	return n
}

// tupleFor returns the tuple with mask m, creating it on first use.
func (ts *TupleSpace) tupleFor(m Mask) (*Tuple, error) {
	for _, tp := range ts.tuples {
		if tp.Mask == m {
			return tp, nil
		}
	}
	tbl, err := cuckoo.Create(ts.space, ts.alloc, cuckoo.Config{
		Entries: ts.entriesPerTuple,
		KeyLen:  packet.KeyBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("classify: creating tuple table: %w", err)
	}
	tp := &Tuple{Mask: m, Table: tbl}
	ts.tuples = append(ts.tuples, tp)
	return tp, nil
}

// InsertRule installs a rule: packets matching `pattern` under `mask` get
// `match`. The pattern is canonicalised through the mask first.
func (ts *TupleSpace) InsertRule(mask Mask, pattern packet.FiveTuple, match Match) error {
	if !mask.Valid() {
		return fmt.Errorf("classify: invalid mask %v", mask)
	}
	tp, err := ts.tupleFor(mask)
	if err != nil {
		return err
	}
	if err := tp.Table.Insert(mask.Key(pattern), encodeRule(match)); err != nil {
		return fmt.Errorf("classify: inserting rule: %w", err)
	}
	tp.rules++
	return nil
}

// RuleSource returns the mask and canonical masked pattern of the rule that
// produced match m for key t — what a datapath needs to install the winning
// slow-path rule into a faster layer (megaflow generation).
func (ts *TupleSpace) RuleSource(t packet.FiveTuple, m Match) (Mask, packet.FiveTuple, bool) {
	want := encodeRule(m)
	for _, tp := range ts.tuples {
		tp.Mask.KeyInto(t, ts.keyScratch[:])
		if v, ok := tp.Table.Lookup(ts.keyScratch[:]); ok && v == want {
			return tp.Mask, tp.Mask.Apply(t), true
		}
	}
	return Mask{}, packet.FiveTuple{}, false
}

// Classify performs a functional (untimed) tuple space search.
func (ts *TupleSpace) Classify(t packet.FiveTuple) (Match, bool) {
	var best Match
	found := false
	for _, tp := range ts.tuples {
		tp.Mask.KeyInto(t, ts.keyScratch[:])
		v, ok := tp.Table.Lookup(ts.keyScratch[:])
		if !ok {
			continue
		}
		m := DecodeRuleValue(v)
		switch ts.mode {
		case FirstMatch:
			return m, true
		case HighestPriority:
			if !found || m.Priority > best.Priority {
				best = m
				found = true
			}
		}
	}
	return best, found
}

// maskCost charges the per-tuple key-masking work (AND + pack, vectorised).
func maskCost(th *cpu.Thread) {
	th.ALU(6)
	th.LocalStore(2)
	th.Other(2)
}

// ClassifyTimed performs the software tuple space search, charging th. This
// is the paper's software baseline for Fig. 11: tuples are probed
// sequentially because each probe is a dependent load chain.
func (ts *TupleSpace) ClassifyTimed(th *cpu.Thread, t packet.FiveTuple, opts cuckoo.LookupOptions) (Match, bool) {
	var best Match
	found := false
	th.Other(4) // loop setup
	for _, tp := range ts.tuples {
		maskCost(th)
		tp.Mask.KeyInto(t, ts.keyScratch[:])
		v, ok := tp.Table.TimedLookup(th, ts.keyScratch[:], opts)
		if !ok {
			continue
		}
		m := DecodeRuleValue(v)
		switch ts.mode {
		case FirstMatch:
			return m, true
		case HighestPriority:
			if !found || m.Priority > best.Priority {
				best = m
				found = true
			}
			th.ALU(2)
		}
	}
	return best, found
}

// ClassifyHaloNB performs the accelerated tuple space search: the masked
// keys for every tuple are staged and all lookups issued at once with
// LOOKUP_NB, then the result line is polled (paper §5.1, "send the queries
// to all the tuples at once"). First-match semantics pick the
// lowest-indexed hitting tuple, matching the software search order.
func (ts *TupleSpace) ClassifyHaloNB(th *cpu.Thread, unit *halo.Unit, t packet.FiveTuple) (Match, bool) {
	n := len(ts.tuples)
	if cap(ts.nbQueries) < n {
		ts.nbQueries = make([]halo.NBQuery, n)
		ts.nbResults = make([]halo.NBResult, n)
		ts.nbKeys = make([]byte, n*packet.KeyBytes)
	}
	queries, results := ts.nbQueries[:n], ts.nbResults[:n]
	for i, tp := range ts.tuples {
		maskCost(th)
		kb := ts.nbKeys[i*packet.KeyBytes : (i+1)*packet.KeyBytes]
		tp.Mask.KeyInto(t, kb)
		queries[i] = halo.NBQuery{TableAddr: tp.Table.Base(), Key: kb}
	}
	unit.LookupManyNBInto(th, queries, results)
	var best Match
	found := false
	for i, r := range results {
		if !r.Found {
			continue
		}
		m := DecodeRuleValue(r.Value)
		if ts.mode == FirstMatch {
			return m, true
		}
		if !found || m.Priority > best.Priority {
			best = m
			found = true
		}
		_ = i
	}
	return best, found
}

// ClassifyHaloB performs the accelerated search with blocking lookups —
// the paper's HALO-blocking baseline in Fig. 11, which serialises tuples.
func (ts *TupleSpace) ClassifyHaloB(th *cpu.Thread, unit *halo.Unit, t packet.FiveTuple) (Match, bool) {
	var best Match
	found := false
	for _, tp := range ts.tuples {
		maskCost(th)
		tp.Mask.KeyInto(t, ts.keyScratch[:])
		v, ok := unit.LookupB(th, tp.Table.Base(), ts.keyScratch[:])
		if !ok {
			continue
		}
		m := DecodeRuleValue(v)
		if ts.mode == FirstMatch {
			return m, true
		}
		if !found || m.Priority > best.Priority {
			best = m
			found = true
		}
	}
	return best, found
}
