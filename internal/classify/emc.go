package classify

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
)

// EMC is the exact-match cache: the first, fastest classification layer
// (paper Fig. 2a). It maps exact flow keys to their resolved match, learning
// entries from MegaFlow results and evicting old flows when full (OVS's EMC
// holds 8K flows by default). Keys are raw bytes of the length fixed at
// construction, such as the header window a datapath keys on.
type EMC struct {
	table *cuckoo.Table

	hits    uint64
	misses  uint64
	inserts uint64
	// evictRing remembers insertion order for FIFO eviction when the
	// cuckoo table refuses a new flow (OVS overwrites by hash position;
	// FIFO gives the same "old flows fall out" behaviour deterministically).
	evictRing []string
	evictNext int
}

// DefaultEMCEntries matches OVS's default EMC size.
const DefaultEMCEntries = 8192

// NewEMCKeyLen builds an exact-match cache for keys of keyLen bytes.
func NewEMCKeyLen(space *mem.Memory, alloc *mem.Allocator, entries uint64, keyLen int) (*EMC, error) {
	tbl, err := cuckoo.Create(space, alloc, cuckoo.Config{Entries: entries, KeyLen: keyLen})
	if err != nil {
		return nil, fmt.Errorf("classify: creating EMC: %w", err)
	}
	return &EMC{table: tbl}, nil
}

// Table exposes the backing table (for HALO offload and warming).
func (e *EMC) Table() *cuckoo.Table { return e.table }

// Stats returns hit/miss/insert counts.
func (e *EMC) Stats() (hits, misses, inserts uint64) { return e.hits, e.misses, e.inserts }

// HitRate returns the fraction of lookups that hit.
func (e *EMC) HitRate() float64 {
	if e.hits+e.misses == 0 {
		return 0
	}
	return float64(e.hits) / float64(e.hits+e.misses)
}

// LookupTimedRaw finds a flow by raw key, charging the thread.
func (e *EMC) LookupTimedRaw(th *cpu.Thread, key []byte, opts cuckoo.LookupOptions) (Match, bool) {
	v, ok := e.table.TimedLookup(th, key, opts)
	if ok {
		e.hits++
		return DecodeRuleValue(v), true
	}
	e.misses++
	return Match{}, false
}

// LookupHaloBAt finds a flow through a blocking accelerator lookup against
// a key already resident in simulated memory (e.g. inside a packet buffer).
func (e *EMC) LookupHaloBAt(th *cpu.Thread, unit *halo.Unit, keyAddr mem.Addr) (Match, bool) {
	v, ok := unit.LookupBAt(th, e.table.Base(), keyAddr)
	if ok {
		e.hits++
		return DecodeRuleValue(v), true
	}
	e.misses++
	return Match{}, false
}

// LearnRaw installs a resolved flow by raw key, evicting the oldest learned
// flow if the table refuses the insert.
func (e *EMC) LearnRaw(key []byte, m Match) {
	if e.table.Update(key, encodeRule(m)) {
		return
	}
	placedInRing := false
	for attempt := 0; attempt < 4; attempt++ {
		err := e.table.Insert(key, encodeRule(m))
		if err == nil {
			e.inserts++
			if !placedInRing {
				e.evictRing = append(e.evictRing, string(key))
			}
			return
		}
		if err != cuckoo.ErrTableFull || len(e.evictRing) == 0 {
			return
		}
		// Evict the oldest learned flow and take over its ring slot.
		slot := e.evictNext % len(e.evictRing)
		victim := e.evictRing[slot]
		e.evictRing[slot] = string(key)
		e.evictNext++
		placedInRing = true
		e.table.Delete([]byte(victim))
	}
}
