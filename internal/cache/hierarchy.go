package cache

import (
	"fmt"
	"unsafe"

	"halo/internal/mem"
	"halo/internal/noc"
	"halo/internal/sim"
	"halo/internal/stats"
)

// Config sizes and times the hierarchy. Defaults follow paper Table 2
// (32 KB L1D, 1 MB L2, 32 MB shared LLC in 16 slices) with latencies
// calibrated to a Skylake-SP-class part at 2.1 GHz.
type Config struct {
	Cores  int
	Slices int

	L1SizeBytes int
	L1Ways      int
	L1Latency   sim.Cycle

	L2SizeBytes int
	L2Ways      int
	L2Latency   sim.Cycle

	LLCSliceBytes int
	LLCWays       int
	LLCLatency    sim.Cycle

	// MissHandling is the per-private-cache-miss overhead a core pays on top
	// of raw array latencies: MSHR allocation, fill-buffer management and
	// load replay. The CHA-side accelerator path does not pay it — that
	// asymmetry is where HALO's 4.1× faster LLC data access (paper Fig. 10)
	// comes from.
	MissHandling sim.Cycle

	// SnoopPenalty is the extra latency to source a line from a remote
	// core's private cache instead of the LLC data array (paper §3.4 cites
	// ~2× an LLC hit, >100 cycles total). CleanSnoopPenalty is the cheaper
	// case: the owner holds the line Exclusive but unmodified, so the CHA
	// only confirms cleanliness while the LLC supplies the data in
	// parallel, leaving just the snoop-response tail exposed.
	SnoopPenalty      sim.Cycle
	CleanSnoopPenalty sim.Cycle

	// AccelLocalLatency is a HALO accelerator's access time to its own
	// slice's data array; AccelHopCycles is the per-hop cost of the
	// dedicated CHA-to-CHA path for remote-slice lines.
	AccelLocalLatency sim.Cycle
	AccelHopCycles    sim.Cycle

	// PortOccupancy serialises accesses to one LLC slice's data array.
	PortOccupancy sim.Cycle
}

// DefaultConfig returns the paper's Table 2 platform.
func DefaultConfig() Config {
	return Config{
		Cores:             16,
		Slices:            16,
		L1SizeBytes:       32 << 10,
		L1Ways:            8,
		L1Latency:         4,
		L2SizeBytes:       1 << 20,
		L2Ways:            16,
		L2Latency:         14,
		LLCSliceBytes:     2 << 20,
		LLCWays:           16,
		LLCLatency:        18,
		MissHandling:      8,
		SnoopPenalty:      60,
		CleanSnoopPenalty: 12,

		AccelLocalLatency: 6,
		AccelHopCycles:    1,
		PortOccupancy:     2,
	}
}

// HitWhere reports which structure serviced an access.
type HitWhere int

// Access service points, ordered by distance from the core.
const (
	InL1 HitWhere = iota
	InL2
	InLLC
	InRemoteCache
	InMemory
)

func (w HitWhere) String() string {
	switch w {
	case InL1:
		return "L1"
	case InL2:
		return "L2"
	case InLLC:
		return "LLC"
	case InRemoteCache:
		return "remote-cache"
	case InMemory:
		return "memory"
	}
	return fmt.Sprintf("HitWhere(%d)", int(w))
}

// AccessResult carries the completion ticket and service point of an access.
type AccessResult struct {
	sim.Ticket
	Where HitWhere
}

// Stats is a snapshot of hierarchy activity.
type Stats struct {
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	LLCHits, LLCMisses uint64
	RemoteCacheHits    uint64
	AccelAccesses      uint64
	AccelAccessCycles  uint64
	AccelLLCMisses     uint64
	LockStallCycles    uint64
	LockStalls         uint64
	BackInvalidations  uint64
	Writebacks         uint64
}

// CollectInto adds the hierarchy counters to a snapshot under the cache.*
// names documented in DESIGN.md.
func (s Stats) CollectInto(snap *stats.Snapshot) {
	snap.Add("cache.l1.hits", s.L1Hits)
	snap.Add("cache.l1.misses", s.L1Misses)
	snap.Add("cache.l2.hits", s.L2Hits)
	snap.Add("cache.l2.misses", s.L2Misses)
	snap.Add("cache.llc.hits", s.LLCHits)
	snap.Add("cache.llc.misses", s.LLCMisses)
	snap.Add("cache.remote.hits", s.RemoteCacheHits)
	snap.Add("cache.accel.accesses", s.AccelAccesses)
	snap.Add("cache.accel.cycles", s.AccelAccessCycles)
	snap.Add("cache.accel.llc_misses", s.AccelLLCMisses)
	snap.Add("cache.lock.stalls", s.LockStalls)
	snap.Add("cache.lock.stall_cycles", s.LockStallCycles)
	snap.Add("cache.back_invalidations", s.BackInvalidations)
	snap.Add("cache.writebacks", s.Writebacks)
}

// Hierarchy is the full simulated cache system.
type Hierarchy struct {
	cfg  Config
	ring *noc.Ring
	dram *mem.DRAM

	l1  []*array // per core
	l2  []*array // per core
	llc []*array // per slice

	llcPort []*sim.CalendarResource

	stats   Stats
	touched mem.Addr // sink for WarmRange's set loads

	// OnAccelInvalidate, when set, is called whenever a line with the
	// accelerator core-valid bit set leaves the LLC or is written, so HALO
	// metadata caches stay coherent (paper §4.3).
	OnAccelInvalidate func(lineAddr mem.Addr)
}

// New builds a hierarchy over the given interconnect and memory controller.
func New(cfg Config, ring *noc.Ring, dram *mem.DRAM) *Hierarchy {
	if cfg.Cores <= 0 || cfg.Cores > 32 {
		panic("cache: core count must be in 1..32 (directory uses a 32-bit mask)")
	}
	if cfg.Slices != ring.Stops() {
		panic("cache: slice count must match ring stops")
	}
	h := &Hierarchy{
		cfg:     cfg,
		ring:    ring,
		dram:    dram,
		l1:      make([]*array, cfg.Cores),
		l2:      make([]*array, cfg.Cores),
		llc:     make([]*array, cfg.Slices),
		llcPort: make([]*sim.CalendarResource, cfg.Slices),
	}
	for i := range h.llcPort {
		h.llcPort[i] = sim.NewCalendarResource()
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1[i] = newArray(cfg.L1SizeBytes, cfg.L1Ways)
		h.l2[i] = newArray(cfg.L2SizeBytes, cfg.L2Ways)
	}
	for i := 0; i < cfg.Slices; i++ {
		h.llc[i] = newArray(cfg.LLCSliceBytes, cfg.LLCWays)
	}
	return h
}

// CopyLLCFrom makes h's LLC slices deep copies of src's, a hierarchy of the
// same configuration: every way, LRU stamp and directory bit, each slice's
// tick and counters. It only reads src. h's private caches, ports and own
// counters are left as they are. It lets a platform be cloned after its
// table is warmed (halo.Platform.Clone).
func (h *Hierarchy) CopyLLCFrom(src *Hierarchy) {
	for i, a := range src.llc {
		h.llc[i].copyFrom(a)
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the accumulated counters.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	for _, a := range h.l1 {
		s.L1Hits += a.hits
		s.L1Misses += a.misses
	}
	for _, a := range h.l2 {
		s.L2Hits += a.hits
		s.L2Misses += a.misses
	}
	for _, a := range h.llc {
		s.LLCHits += a.hits
		s.LLCMisses += a.misses
	}
	return s
}

// ResetStats zeroes all counters (array hit/miss counters included).
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{}
	for _, a := range h.l1 {
		a.hits, a.misses = 0, 0
	}
	for _, a := range h.l2 {
		a.hits, a.misses = 0, 0
	}
	for _, a := range h.llc {
		a.hits, a.misses = 0, 0
	}
}

func (h *Hierarchy) homeSlice(lineAddr mem.Addr) int {
	return noc.SliceHash(uint64(lineAddr), h.cfg.Slices)
}

// lockedUntil returns the cycle a line's hardware lock clears, lazily
// clearing expired locks. Zero means unlocked.
func lockedUntil(l *line, now sim.Cycle) sim.Cycle {
	if !l.locked {
		return 0
	}
	if l.lockFreeAt <= now {
		l.locked = false
		l.lockFreeAt = 0
		return 0
	}
	return l.lockFreeAt
}

// exclusiveOwner returns the single core holding the line in M or E state,
// or -1 when the line is unowned or shared.
func (h *Hierarchy) exclusiveOwner(l *line) int {
	mask := l.coreValid
	if mask == 0 || mask&(mask-1) != 0 {
		return -1 // zero or multiple sharers: data in LLC is usable
	}
	core := 0
	for mask>>1 != 0 {
		mask >>= 1
		core++
	}
	priv := h.l2[core].peek(l.tag)
	if priv == nil {
		priv = h.l1[core].peek(l.tag)
	}
	if priv != nil && (priv.state == Modified || priv.state == Exclusive) {
		return core
	}
	return -1
}

// snoopPenaltyFor returns the latency of snooping the owner's copy: the
// full dirty-forward cost when the owner modified the line, the cheaper
// clean-confirmation cost otherwise.
func (h *Hierarchy) snoopPenaltyFor(owner int, lineAddr mem.Addr) sim.Cycle {
	if op := h.l1[owner].peek(lineAddr); op != nil && (op.dirty || op.state == Modified) {
		return h.cfg.SnoopPenalty
	}
	if op := h.l2[owner].peek(lineAddr); op != nil && (op.dirty || op.state == Modified) {
		return h.cfg.SnoopPenalty
	}
	return h.cfg.CleanSnoopPenalty
}

// ensureLLC returns lineAddr's line in its home slice, installing it in state
// st when absent. One scan of the set finds the line or its replacement
// victim; a valid victim is evicted and the way overwritten in place. A line
// already present is returned untouched — its LRU position included, and the
// slice's lruTick advances only on an install — so warming a resident table a
// second time changes nothing.
func (h *Hierarchy) ensureLLC(at sim.Cycle, home int, lineAddr mem.Addr, st State) *line {
	a := h.llc[home]
	l, hit := a.slot(lineAddr)
	if hit {
		return l
	}
	if l.valid() {
		h.evictLLC(at, l)
	}
	a.fill(l, false, lineAddr, st)
	return l
}

// evictLLC retires a valid LLC victim: back-invalidates private copies,
// notifies the accelerator metadata caches, and writes dirty data back to
// DRAM (fire and forget). The caller overwrites the way.
func (h *Hierarchy) evictLLC(at sim.Cycle, v *line) {
	dirty := v.dirty
	for core := 0; core < h.cfg.Cores; core++ {
		if v.coreValid&(1<<core) == 0 {
			continue
		}
		if pl := h.l1[core].peek(v.tag); pl != nil && pl.dirty {
			dirty = true
		}
		if pl := h.l2[core].peek(v.tag); pl != nil && pl.dirty {
			dirty = true
		}
		h.l1[core].invalidate(v.tag)
		h.l2[core].invalidate(v.tag)
		h.stats.BackInvalidations++
	}
	h.dropAccelCopy(v)
	if dirty {
		h.dram.Access(at, v.tag, true)
		h.stats.Writebacks++
	}
}

// fillPrivate places a line into one private array: an already-present line
// is updated in place (no victim is disturbed), otherwise the victim way is
// dropped first.
func (h *Hierarchy) fillPrivate(core int, a *array, lineAddr mem.Addr, st State) *line {
	l, hit := a.slot(lineAddr)
	if !hit && l.valid() {
		h.dropPrivateVictim(core, a, l)
	}
	a.fill(l, hit, lineAddr, st)
	return l
}

// installPrivate places a line into a core's L2 and L1, handling evictions.
// A dirty private victim propagates its dirtiness to the LLC copy.
func (h *Hierarchy) installPrivate(core int, lineAddr mem.Addr, st State) {
	h.fillPrivate(core, h.l2[core], lineAddr, st)
	h.fillPrivate(core, h.l1[core], lineAddr, st)
}

// dropPrivateVictim removes one private-cache line, keeping inclusivity (an
// L2 victim forces the L1 copy out too) and the LLC directory in sync.
func (h *Hierarchy) dropPrivateVictim(core int, a *array, v *line) {
	dirty := v.dirty
	if a == h.l2[core] {
		if l1c := h.l1[core].peek(v.tag); l1c != nil {
			if l1c.dirty {
				dirty = true
			}
			h.l1[core].invalidate(v.tag)
		}
	} else if h.l2[core].peek(v.tag) != nil {
		// L1 victim still present in L2: propagate dirtiness there, keep
		// the directory bit (the core still holds the line in L2).
		if dirty {
			h.l2[core].peek(v.tag).dirty = true
		}
		*v = line{}
		return
	}
	home := h.homeSlice(v.tag)
	if ll := h.llc[home].peek(v.tag); ll != nil {
		if dirty {
			ll.dirty = true
		}
		ll.coreValid &^= 1 << core
	}
	*v = line{}
}

// CoreAccess models one load (write=false) or store (write=true) from a core
// through its private caches into the shared LLC and memory: private-cache
// probe, then home LLC-slice service, then private install.
func (h *Hierarchy) CoreAccess(at sim.Cycle, core int, addr mem.Addr, write bool) AccessResult {
	lineAddr := mem.LineAddr(addr)
	t := at + h.cfg.L1Latency
	if l := h.l1[core].lookup(lineAddr); l != nil {
		if !write {
			return AccessResult{sim.Ticket{Issued: at, Done: t}, InL1}
		}
		if l.state != Shared {
			l.state = Modified
			l.dirty = true
			return AccessResult{sim.Ticket{Issued: at, Done: t}, InL1}
		}
		// Write to a Shared line: fall through to the LLC for ownership.
	} else if l2l := h.l2[core].lookup(lineAddr); l2l != nil {
		t += h.cfg.L2Latency
		if !write || l2l.state != Shared {
			st := l2l.state
			if write {
				st = Modified
				l2l.state = Modified
				l2l.dirty = true
			}
			nl := h.fillPrivate(core, h.l1[core], lineAddr, st)
			if write {
				nl.dirty = true
			}
			return AccessResult{sim.Ticket{Issued: at, Done: t}, InL2}
		}
	} else {
		t += h.cfg.L2Latency
	}
	t += h.cfg.MissHandling

	home := h.homeSlice(lineAddr)
	l, done, where := h.serviceLLC(t+h.ring.Delay(core, home), h.cfg.LLCLatency, core, home, lineAddr, write)
	var st State
	if write {
		h.invalidateSharers(l, core)
		h.dropAccelCopy(l)
		st = Modified
	} else if l.coreValid == 0 {
		st = Exclusive
	} else {
		st = Shared
		// Downgrade existing holders to Shared.
		for c := 0; c < h.cfg.Cores; c++ {
			if l.coreValid&(1<<c) == 0 {
				continue
			}
			if op := h.l1[c].peek(lineAddr); op != nil && op.state == Exclusive {
				op.state = Shared
			}
			if op := h.l2[c].peek(lineAddr); op != nil && op.state == Exclusive {
				op.state = Shared
			}
		}
	}
	l.coreValid |= 1 << core
	h.installPrivate(core, lineAddr, st)
	if write {
		if pl := h.l1[core].peek(lineAddr); pl != nil {
			pl.dirty = true
		}
	}
	return AccessResult{sim.Ticket{Issued: at, Done: done + h.ring.Delay(home, core)}, where}
}

// AccelAccess models a HALO accelerator at `slice` touching a line. The
// access never allocates into private caches and is serviced CHA-side: local
// lines cost AccelLocalLatency, remote-slice lines add the CHA-to-CHA hop
// path both ways. A write lands in the LLC, so every core copy goes stale.
func (h *Hierarchy) AccelAccess(at sim.Cycle, slice int, addr mem.Addr, write bool) AccessResult {
	lineAddr := mem.LineAddr(addr)
	home := h.homeSlice(lineAddr)
	hops := sim.Cycle(h.ring.Hops(slice, home)) * h.cfg.AccelHopCycles
	l, done, where := h.serviceLLC(at+hops, h.cfg.AccelLocalLatency, -1, home, lineAddr, write)
	if where == InMemory {
		h.stats.AccelLLCMisses++
	}
	if write {
		h.invalidateSharers(l, -1)
	}
	done += hops
	h.stats.AccelAccesses++
	h.stats.AccelAccessCycles += uint64(done - at)
	return AccessResult{sim.Ticket{Issued: at, Done: done}, where}
}

// serviceLLC is an access's turn at lineAddr's home slice, arriving at cycle
// `arrive` from requester (a core, or -1 for an accelerator): port claim,
// directory lookup taking `latency`, DRAM fill on a miss; on a hit, a write
// stalls until the line's lock clears, and a core other than the requester
// holding the line exclusively is snooped and downgraded to Shared, its dirty
// data captured by the LLC copy. It returns the line, the cycle service
// completes and where the data came from.
func (h *Hierarchy) serviceLLC(arrive, latency sim.Cycle, requester, home int, lineAddr mem.Addr, write bool) (*line, sim.Cycle, HitWhere) {
	done := h.llcPort[home].Claim(arrive, h.cfg.PortOccupancy) + latency
	l := h.llc[home].lookup(lineAddr)
	if l == nil {
		done = h.dram.Access(done, lineAddr, false).Done
		return h.ensureLLC(done, home, lineAddr, Exclusive), done, InMemory
	}
	where := InLLC
	if write {
		if until := lockedUntil(l, done); until > 0 {
			h.stats.LockStalls++
			h.stats.LockStallCycles += uint64(until - done)
			done = until
		}
	}
	if owner := h.exclusiveOwner(l); owner >= 0 && owner != requester {
		done += h.snoopPenaltyFor(owner, lineAddr)
		where = InRemoteCache
		h.stats.RemoteCacheHits++
		for _, op := range [2]*line{h.l1[owner].peek(lineAddr), h.l2[owner].peek(lineAddr)} {
			if op != nil {
				l.dirty = l.dirty || op.dirty
				op.state, op.dirty = Shared, false
			}
		}
	}
	return l, done, where
}

// invalidateSharers makes a write's LLC line the only up-to-date copy but
// the writer's: every private copy except core keep's (-1 keeps none) is
// dropped with its directory bit, and the LLC line is marked dirty.
func (h *Hierarchy) invalidateSharers(l *line, keep int) {
	for c := 0; c < h.cfg.Cores; c++ {
		if c == keep || l.coreValid&(1<<c) == 0 {
			continue
		}
		h.l1[c].invalidate(l.tag)
		h.l2[c].invalidate(l.tag)
		l.coreValid &^= 1 << c
	}
	l.dirty = true
}

// dropAccelCopy tells the HALO metadata caches that a line they may hold is
// being written or evicted, and clears its accelerator core-valid bit.
func (h *Hierarchy) dropAccelCopy(l *line) {
	if l.accelValid {
		if h.OnAccelInvalidate != nil {
			h.OnAccelInvalidate(l.tag)
		}
		l.accelValid = false
	}
}

// SnapshotRead models the SNAPSHOT_READ instruction (paper §4.5): the core
// reads the current value of a line without acquiring ownership, so the line
// stays put (typically in the LLC, where the accelerator writes results) and
// never bounces between private caches.
func (h *Hierarchy) SnapshotRead(at sim.Cycle, core int, addr mem.Addr) AccessResult {
	lineAddr := mem.LineAddr(addr)
	t := at + h.cfg.L1Latency
	if h.l1[core].lookup(lineAddr) != nil {
		return AccessResult{sim.Ticket{Issued: at, Done: t}, InL1}
	}
	if h.l2[core].lookup(lineAddr) != nil {
		return AccessResult{sim.Ticket{Issued: at, Done: t + h.cfg.L2Latency}, InL2}
	}
	t += h.cfg.L2Latency
	home := h.homeSlice(lineAddr)
	arrive := t + h.ring.Delay(core, home)
	start := h.llcPort[home].Claim(arrive, h.cfg.PortOccupancy)
	done := start + h.cfg.LLCLatency
	where := InLLC
	if h.llc[home].lookup(lineAddr) == nil {
		dt := h.dram.Access(done, lineAddr, false)
		done = dt.Done
		h.ensureLLC(done, home, lineAddr, Exclusive)
		where = InMemory
	}
	done += h.ring.Delay(home, core)
	return AccessResult{sim.Ticket{Issued: at, Done: done}, where}
}

// LockLine sets the HALO hardware lock bit on a line until the given cycle
// (paper §4.4). The line is brought into the LLC if absent. It returns the
// cycle at which the lock is held.
func (h *Hierarchy) LockLine(at sim.Cycle, slice int, addr mem.Addr, until sim.Cycle) sim.Cycle {
	lineAddr := mem.LineAddr(addr)
	home := h.homeSlice(lineAddr)
	l := h.llc[home].peek(lineAddr)
	if l == nil {
		res := h.AccelAccess(at, slice, addr, false)
		at = res.Done
		l = h.llc[home].peek(lineAddr)
		if l == nil {
			// Pathological conflict: every way locked. Skip locking.
			return at
		}
	}
	l.locked = true
	if until > l.lockFreeAt {
		l.lockFreeAt = until
	}
	return at
}

// MarkAccelValid sets the accelerator core-valid bit on a line so LLC
// evictions and core writes notify the HALO metadata caches.
func (h *Hierarchy) MarkAccelValid(addr mem.Addr) {
	lineAddr := mem.LineAddr(addr)
	if l := h.llc[h.homeSlice(lineAddr)].peek(lineAddr); l != nil {
		l.accelValid = true
	}
}

// DMAWrite models a DDIO device write (NIC delivering a packet): the line is
// installed into the LLC dirty and any core copies are invalidated, without
// charging core time (the device pays, not the thread under test).
func (h *Hierarchy) DMAWrite(addr mem.Addr) {
	lineAddr := mem.LineAddr(addr)
	l := h.ensureLLC(0, h.homeSlice(lineAddr), lineAddr, Modified)
	h.invalidateSharers(l, -1)
	h.dropAccelCopy(l)
}

// WarmLLC installs a line into the LLC without charging time, for experiment
// preconditioning ("10K lookups to warm up", paper §5.2).
func (h *Hierarchy) WarmLLC(addr mem.Addr) { h.WarmRange(addr, addr) }

// warmGroup is how many lines WarmRange looks up before it warms the first
// of them.
const warmGroup = 16

// waysPerHostLine is how many ways one 64-byte host cache line holds.
const waysPerHostLine = 64 / int(unsafe.Sizeof(line{}))

// WarmRange warms every line from the one holding first to the one holding
// last, in address order. It works on groups of warmGroup lines: it finds
// each line's set and loads one way from each host cache line the set spans
// — independent host misses that overlap — and only then warms the group in
// order, each warm finding its set already in the host's cache. The loads
// only touch the sets; every decision is ensureLLC's.
func (h *Hierarchy) WarmRange(first, last mem.Addr) {
	var homes [warmGroup]int
	var sets [warmGroup][]line
	for a := mem.LineAddr(first); a <= last; {
		n := 0
		for ; n < warmGroup && a+mem.Addr(n)*mem.LineSize <= last; n++ {
			la := a + mem.Addr(n)*mem.LineSize
			homes[n] = h.homeSlice(la)
			llc := h.llc[homes[n]]
			sets[n] = llc.sets[llc.setIndex(la)]
		}
		var w mem.Addr
		for _, set := range sets[:n] {
			for i := 0; i < len(set); i += waysPerHostLine {
				w ^= set[i].tag
			}
		}
		h.touched ^= w
		for j := range n {
			h.ensureLLC(0, homes[j], a, Exclusive)
			a += mem.LineSize
		}
	}
}

// Present reports where a line currently resides for a given core's view,
// without disturbing LRU or counters.
func (h *Hierarchy) Present(core int, addr mem.Addr) (inL1, inL2, inLLC bool) {
	lineAddr := mem.LineAddr(addr)
	inL1 = h.l1[core].peek(lineAddr) != nil
	inL2 = h.l2[core].peek(lineAddr) != nil
	inLLC = h.llc[h.homeSlice(lineAddr)].peek(lineAddr) != nil
	return
}
