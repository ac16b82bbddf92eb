// Package cpu models the timing of software running on the simulated cores.
//
// Instead of simulating an out-of-order pipeline instruction by instruction,
// algorithms in this repository are written as ordinary Go code that charges
// a Thread for the instructions the compiled x86-64 code would execute:
// loads and stores go through the simulated cache hierarchy (and really read
// simulated memory at the functional layer above), arithmetic and control
// instructions are charged at the core's sustained IPC. That captures the
// four effects HALO exploits — instruction count, data-movement latency,
// locking, and parallelism — while keeping lookups cheap to simulate.
package cpu

import (
	"halo/internal/cache"
	"halo/internal/mem"
	"halo/internal/sim"
	"halo/internal/stats"
)

// Width is the sustained non-memory IPC of the modelled core: a Skylake-class
// 4-wide machine sustains close to its full width on the simple integer code
// of a hash-table probe when its loads hit the L1.
const Width = 4

// InstrCounts tallies retired instructions by the categories of paper
// Table 1.
type InstrCounts struct {
	Loads  uint64
	Stores uint64
	Arith  uint64
	Other  uint64
}

// Total returns the number of retired instructions.
func (c InstrCounts) Total() uint64 { return c.Loads + c.Stores + c.Arith + c.Other }

// StallStats attributes load-stall cycles to the structure that serviced the
// load, supporting the paper's Fig. 4 analysis.
type StallStats struct {
	CyclesByWhere [5]uint64 // indexed by cache.HitWhere
	LoadsByWhere  [5]uint64
}

// Thread is one software execution context bound to a core. Now advances as
// the thread executes; experiments interleave threads by comparing Now.
type Thread struct {
	Core int
	Now  sim.Cycle
	H    *cache.Hierarchy

	Counts InstrCounts
	Stalls StallStats

	// pendingFills tracks prefetches in flight so later demand loads to the
	// same line cannot complete before the fill does (and are attributed
	// to the structure the fill came from, not the L1 it lands in). The map
	// is allocated lazily by Prefetch: threads that never prefetch keep it
	// nil and demand loads skip the lookup entirely.
	pendingFills map[mem.Addr]pendingFill

	aluResidue uint64    // sub-cycle accumulator for IPC modelling
	winStart   sim.Cycle // measurement-window start (set by ResetCounts)

	// hists holds the thread's named latency histograms (lat.*), allocated
	// lazily so threads that never record pay nothing.
	hists map[string]*stats.Histogram
}

// NewThread creates a thread on the given core at cycle 0.
func NewThread(h *cache.Hierarchy, core int) *Thread {
	return &Thread{Core: core, H: h}
}

// pendingFill records an in-flight prefetch: when it completes and where
// the data is coming from.
type pendingFill struct {
	ready sim.Cycle
	where cache.HitWhere
}

// ALU charges n simple arithmetic instructions.
func (t *Thread) ALU(n int) {
	t.Counts.Arith += uint64(n)
	t.advance(n)
}

// Other charges n control-flow / miscellaneous instructions.
func (t *Thread) Other(n int) {
	t.Counts.Other += uint64(n)
	t.advance(n)
}

func (t *Thread) advance(n int) {
	t.aluResidue += uint64(n)
	t.Now += sim.Cycle(t.aluResidue / Width)
	t.aluResidue %= Width
}

// LocalLoad charges n loads that hit core-local, pipelined state — stack
// slots, spilled registers, already-resident metadata. An out-of-order core
// fully overlaps such loads, so they cost issue slots, not L1 latency, but
// they still retire and count toward the instruction profile (Table 1).
func (t *Thread) LocalLoad(n int) {
	t.Counts.Loads += uint64(n)
	t.Stalls.LoadsByWhere[cache.InL1] += uint64(n)
	t.advance(n)
}

// LocalStore charges n stores to core-local state (stack, spills).
func (t *Thread) LocalStore(n int) {
	t.Counts.Stores += uint64(n)
	t.advance(n)
}

// Load performs a demand load: the thread blocks until the data arrives.
// Loads that hit the L1 are effectively free beyond their issue slot — an
// out-of-order core hides L1 latency completely under surrounding work —
// while loads serviced farther away stall the dependent chain for their
// full latency, matching how the paper attributes stalls (§3.3).
func (t *Thread) Load(addr mem.Addr) cache.AccessResult {
	t.Counts.Loads++
	res := t.H.CoreAccess(t.Now, t.Core, addr, false)
	if len(t.pendingFills) > 0 {
		if fill, ok := t.pendingFills[mem.LineAddr(addr)]; ok {
			if fill.ready > res.Done {
				// Still waiting on the prefetch: the stall belongs to the
				// structure the fill is coming from.
				res.Done = fill.ready
				res.Where = fill.where
			}
			if fill.ready <= t.Now {
				delete(t.pendingFills, mem.LineAddr(addr))
			}
		}
	}
	t.Stalls.LoadsByWhere[res.Where]++
	if res.Where == cache.InL1 && res.Done <= t.Now+t.H.Config().L1Latency {
		t.Stalls.CyclesByWhere[res.Where]++
		t.advance(1)
		res.Done = t.Now
		return res
	}
	t.Stalls.CyclesByWhere[res.Where] += uint64(res.Done - t.Now)
	t.Now = res.Done
	return res
}

// Prefetch issues a non-blocking load (software prefetch). The thread pays
// one issue slot; the fill completes in the background and gates later
// demand loads to the same line.
func (t *Thread) Prefetch(addr mem.Addr) {
	t.Counts.Other++ // prefetch instructions retire as "other"
	res := t.H.CoreAccess(t.Now, t.Core, addr, false)
	line := mem.LineAddr(addr)
	if t.pendingFills == nil {
		t.pendingFills = make(map[mem.Addr]pendingFill)
	}
	if cur, ok := t.pendingFills[line]; !ok || res.Done > cur.ready {
		t.pendingFills[line] = pendingFill{ready: res.Done, where: res.Where}
	}
	t.advance(1)
}

// Store performs a store. Stores retire through the store buffer, so the
// thread only pays the issue slot; the coherence work is still charged to
// the hierarchy at the current cycle.
func (t *Thread) Store(addr mem.Addr) {
	t.Counts.Stores++
	t.H.CoreAccess(t.Now, t.Core, addr, true)
	t.advance(1)
}

// SnapshotRead performs the SNAPSHOT_READ instruction: a load that does not
// change line ownership.
func (t *Thread) SnapshotRead(addr mem.Addr) cache.AccessResult {
	t.Counts.Loads++
	res := t.H.SnapshotRead(t.Now, t.Core, addr)
	t.Stalls.CyclesByWhere[res.Where] += uint64(res.Latency())
	t.Stalls.LoadsByWhere[res.Where]++
	t.Now = res.Done
	return res
}

// WaitUntil advances the thread's clock to at least `at` (e.g. blocking on
// an accelerator result).
func (t *Thread) WaitUntil(at sim.Cycle) {
	if at > t.Now {
		t.Now = at
	}
}

// MissRatio returns the fraction of the thread's loads serviced at or beyond
// `beyond`: MissRatio(cache.InL2) is its L1D miss ratio, MissRatio(cache.InLLC)
// its L2 miss ratio.
func (t *Thread) MissRatio(beyond cache.HitWhere) float64 {
	var loads, misses uint64
	for w, n := range t.Stalls.LoadsByWhere {
		loads += n
		if cache.HitWhere(w) >= beyond {
			misses += n
		}
	}
	if loads == 0 {
		return 0
	}
	return float64(misses) / float64(loads)
}

// StallRatio returns the fraction of the current measurement window's
// cycles spent waiting on loads serviced at or beyond `beyond`. The window
// starts at thread creation or the last ResetCounts call.
func (t *Thread) StallRatio(beyond cache.HitWhere) float64 {
	elapsed := t.Now - t.winStart
	if elapsed == 0 {
		return 0
	}
	var stall uint64
	for w, c := range t.Stalls.CyclesByWhere {
		if cache.HitWhere(w) >= beyond {
			stall += c
		}
	}
	return float64(stall) / float64(elapsed)
}

// Reset zeroes the thread's clock and counters, keeping its core binding.
// Only safe against a fresh hierarchy: shared port resources remember their
// busy-until cycles, so winding a thread's clock back to zero while reusing
// a hierarchy inflates every subsequent access. Use ResetCounts to start a
// measurement window mid-simulation.
func (t *Thread) Reset() {
	t.Now = 0
	t.ResetCounts()
}

// ResetCounts clears instruction and stall counters (latency histograms
// included) without touching the clock, marking the start of a measurement
// window.
func (t *Thread) ResetCounts() {
	t.Counts = InstrCounts{}
	t.Stalls = StallStats{}
	clear(t.pendingFills)
	t.aluResidue = 0
	t.winStart = t.Now
	t.hists = nil
}

// Record adds one cycle-cost observation to the thread's named latency
// histogram, created on first use. Component code calls this with the
// elapsed simulated cycles of an operation (a lookup, an insert, a whole
// packet) under the stable lat.* names documented in DESIGN.md.
func (t *Thread) Record(name string, cycles sim.Cycle) {
	if t.hists == nil {
		t.hists = make(map[string]*stats.Histogram)
	}
	h := t.hists[name]
	if h == nil {
		h = stats.NewHistogram()
		t.hists[name] = h
	}
	h.Observe(uint64(cycles))
}

// Hist returns the thread's named latency histogram, or nil if nothing was
// recorded under that name in the current measurement window.
func (t *Thread) Hist(name string) *stats.Histogram { return t.hists[name] }

// CollectInto merges the thread's instruction counts and latency histograms
// into a snapshot under the cpu.instr.* and lat.* names.
func (t *Thread) CollectInto(s *stats.Snapshot) {
	s.Add("cpu.instr.loads", t.Counts.Loads)
	s.Add("cpu.instr.stores", t.Counts.Stores)
	s.Add("cpu.instr.arith", t.Counts.Arith)
	s.Add("cpu.instr.other", t.Counts.Other)
	for name, h := range t.hists {
		s.MergeHist(name, h)
	}
}
