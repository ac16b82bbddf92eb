// Package cache models the simulated CPU's cache hierarchy: private L1/L2
// caches per core and a shared, sliced (NUCA) last-level cache with one
// Caching-and-Home-Agent (CHA) directory per slice. The hierarchy is a
// timing-and-state model: functional data lives in the mem package, so a
// cache bug can only distort cycle counts, never answers.
//
// The HALO-specific extensions live here too: the per-line lock bit that the
// accelerator sets while it walks a bucket (paper §4.4) and the core-valid
// bit that keeps each accelerator's metadata cache coherent (paper §4.3).
package cache

import (
	"fmt"

	"halo/internal/mem"
	"halo/internal/sim"
)

// State is a MESI coherence state.
type State uint8

// Coherence states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// line is one cache line's bookkeeping in a set-associative array. A way is
// occupied exactly when its state is not Invalid; the fields are ordered so
// the struct is 32 bytes and a 16-way set spans eight host cache lines.
type line struct {
	tag mem.Addr // full line address
	lru uint64

	// Directory state, used only by LLC arrays:
	lockFreeAt sim.Cycle
	coreValid  uint32 // bitmask of cores whose private caches hold the line
	accelValid bool   // CV bit: line is cached by a HALO metadata cache
	locked     bool   // HALO hardware lock bit

	state State
	dirty bool
}

func (l *line) valid() bool { return l.state != Invalid }

// array is a set-associative cache structure with LRU replacement. Sets are
// materialised lazily: experiments touch a small fraction of a 32 MB LLC's
// sets, and eager allocation dominated the simulator's memory profile. A
// set's slice covers only the ways that have ever been filled (its capacity
// is the associativity), so scans skip the never-used tail; its storage is
// carved from slabs that double in size, so an array that ends up fully
// touched costs a dozen allocations, not one per set.
type array struct {
	sets     [][]line
	slab     []line // unused tail of the newest slab
	slabSets int    // sets in the newest slab
	ways     int
	setMask  uint64
	lruTick  uint64

	hits   uint64
	misses uint64
}

// maxSlabSets caps slab doubling (256 sets of 16 ways are 128 KiB).
const maxSlabSets = 256

func newArray(sizeBytes, ways int) *array {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: array needs positive size and ways")
	}
	lines := sizeBytes / mem.LineSize
	sets := lines / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", sets))
	}
	return &array{sets: make([][]line, sets), ways: ways, setMask: uint64(sets - 1)}
}

// copyFrom makes a a deep copy of src, an array of the same geometry —
// every way, LRU stamp, directory bit, the tick and the counters — with the
// copied sets carved from one slab of a's own, so the two arrays share no
// line. a keeps its set table and drops whatever it held.
func (a *array) copyFrom(src *array) {
	if len(a.sets) != len(src.sets) || a.ways != src.ways {
		panic("cache: copying between arrays of different geometry")
	}
	sets := a.sets
	*a = *src
	a.sets, a.slab = sets, nil
	used := 0
	for _, set := range src.sets {
		if set != nil {
			used++
		}
	}
	slab := make([]line, used*a.ways)
	for i, set := range src.sets {
		sets[i] = nil
		if set != nil {
			sets[i], slab = append(slab[:0:a.ways], set...), slab[a.ways:]
		}
	}
}

func (a *array) setIndex(lineAddr mem.Addr) uint64 {
	return (uint64(lineAddr) / mem.LineSize) & a.setMask
}

// nextWay extends set idx by its lowest never-used way and returns it,
// carving the set's storage from the slab on first touch.
func (a *array) nextWay(idx uint64) *line {
	set := a.sets[idx]
	if set == nil {
		if len(a.slab) == 0 {
			a.slabSets = min(max(2*a.slabSets, 1), maxSlabSets)
			a.slab = make([]line, a.slabSets*a.ways)
		}
		set, a.slab = a.slab[:0:a.ways], a.slab[a.ways:]
	}
	set = set[:len(set)+1]
	a.sets[idx] = set
	return &set[len(set)-1]
}

// lookup finds the line, updating LRU on hit. It returns nil on miss.
func (a *array) lookup(lineAddr mem.Addr) *line {
	set := a.sets[a.setIndex(lineAddr)]
	for i := range set {
		if set[i].tag == lineAddr && set[i].valid() {
			a.lruTick++
			set[i].lru = a.lruTick
			a.hits++
			return &set[i]
		}
	}
	a.misses++
	return nil
}

// peek finds the line without touching LRU or hit/miss counters.
func (a *array) peek(lineAddr mem.Addr) *line {
	set := a.sets[a.setIndex(lineAddr)]
	for i := range set {
		if set[i].tag == lineAddr && set[i].valid() {
			return &set[i]
		}
	}
	return nil
}

// slot scans lineAddr's set once and returns the way a fill of lineAddr goes
// to: the way already holding it (hit), otherwise the replacement victim —
// the lowest invalid way if one exists, otherwise the LRU way, skipping locked
// lines (a locked line must not be evicted mid-query; the paper's lock bit
// pins it). If every way is locked — impossible in practice given scoreboard
// limits — the LRU way is returned anyway to guarantee progress. The caller
// handles a valid victim's eviction, then calls fill.
func (a *array) slot(lineAddr mem.Addr) (way *line, hit bool) {
	idx := a.setIndex(lineAddr)
	set := a.sets[idx]
	var invalid, lru, lruAny *line
	for i := range set {
		l := &set[i]
		switch {
		case !l.valid():
			if invalid == nil {
				invalid = l
			}
			continue
		case l.tag == lineAddr:
			return l, true
		}
		if lruAny == nil || l.lru < lruAny.lru {
			lruAny = l
		}
		if !l.locked && (lru == nil || l.lru < lru.lru) {
			lru = l
		}
	}
	switch {
	case invalid != nil:
		return invalid, false
	case len(set) < a.ways:
		return a.nextWay(idx), false
	case lru != nil:
		return lru, false
	}
	return lruAny, false
}

// fill places lineAddr into the way slot returned for it. A hit way is
// reused in place (its dirty bit and directory state survive; state is
// updated), so a set can never hold duplicate ways for one tag; a victim way
// has all its metadata reset.
func (a *array) fill(l *line, hit bool, lineAddr mem.Addr, st State) {
	a.lruTick++
	if hit {
		l.state = st
		l.lru = a.lruTick
		return
	}
	*l = line{tag: lineAddr, state: st, lru: a.lruTick}
}

// invalidate drops the line if present.
func (a *array) invalidate(lineAddr mem.Addr) {
	if l := a.peek(lineAddr); l != nil {
		*l = line{}
	}
}
