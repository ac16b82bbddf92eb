package halo

import (
	"fmt"

	"halo/internal/cache"
	"halo/internal/cpu"
	"halo/internal/mem"
	"halo/internal/noc"
	"halo/internal/sim"
)

// Result-word encoding for non-blocking lookups. The accelerator writes one
// 64-bit word per query into the result line; software polls with
// SNAPSHOT_READ until every slot is non-zero (paper §4.5).
const (
	// ResultDone marks a completed query (always set by the accelerator, so
	// a result word is never zero).
	ResultDone uint64 = 1 << 63
	// ResultFound marks a hit; the low bits then carry the value.
	ResultFound uint64 = 1 << 62
	// ResultFault marks a query that failed metadata validation (with
	// ResultDone, so a poller still sees it complete).
	ResultFault uint64 = 1 << 61
	// ResultValueMask extracts the value bits.
	ResultValueMask uint64 = (1 << 61) - 1
)

// EncodeResult packs a lookup outcome into a result word.
func EncodeResult(value uint64, found bool) uint64 {
	w := ResultDone | (value & ResultValueMask)
	if found {
		w |= ResultFound
	}
	return w
}

// UnitConfig parametrises the chip-wide HALO unit.
type UnitConfig struct {
	Accel AccelConfig
	// FlowRegBits sizes each accelerator's flow register (paper: 32).
	FlowRegBits uint
	// Dispatch selects the query-distribution policy.
	Dispatch noc.DispatchPolicy
	// BatchSize is the non-blocking issue width: queries per result line
	// (eight 64-bit slots per 64 B line).
	BatchSize int
	// WindowLines is how many result lines a core keeps in flight: the
	// issue window is BatchSize*WindowLines non-blocking queries before
	// the first poll.
	WindowLines int
}

// DefaultUnitConfig matches the paper's system.
func DefaultUnitConfig() UnitConfig {
	return UnitConfig{
		Accel:       DefaultAccelConfig(),
		FlowRegBits: 32,
		Dispatch:    noc.DispatchByTable,
		BatchSize:   8,
		WindowLines: 8,
	}
}

// Unit is the chip-wide HALO installation: one accelerator per LLC slice,
// the query distributor in the interconnect, and per-core staging memory for
// keys and result lines.
type Unit struct {
	cfg   UnitConfig
	hier  *cache.Hierarchy
	ring  *noc.Ring
	space *mem.Memory
	dist  *noc.QueryDistributor
	accel []*Accelerator

	keyBuf    []mem.Addr // per-core key staging buffer (one line)
	resultBuf []mem.Addr // per-core result line

	lineDone []sim.Cycle // poll-deadline scratch, one slot per window line
}

// zeroLine clears result lines; it is never written.
var zeroLine [mem.LineSize]byte

// NewUnit installs HALO onto an existing platform. The allocator provides
// the per-core staging buffers in simulated memory.
func NewUnit(cfg UnitConfig, hier *cache.Hierarchy, ring *noc.Ring, space *mem.Memory, alloc *mem.Allocator) *Unit {
	if cfg.BatchSize <= 0 || cfg.BatchSize > 8 {
		panic("halo: batch size must be 1..8 (one result line)")
	}
	if cfg.WindowLines <= 0 {
		cfg.WindowLines = 1
	}
	cores := hier.Config().Cores
	u := &Unit{
		cfg:       cfg,
		hier:      hier,
		ring:      ring,
		space:     space,
		dist:      noc.NewQueryDistributor(ring, cfg.Dispatch),
		accel:     make([]*Accelerator, hier.Config().Slices),
		keyBuf:    make([]mem.Addr, cores),
		resultBuf: make([]mem.Addr, cores),
	}
	for s := range u.accel {
		u.accel[s] = NewAccelerator(s, cfg.Accel, hier, space, cfg.FlowRegBits)
	}
	for c := 0; c < cores; c++ {
		// One staging line per in-flight window slot, plus the window's
		// result lines.
		u.keyBuf[c] = alloc.AllocLines(uint64(cfg.BatchSize * cfg.WindowLines))
		u.resultBuf[c] = alloc.AllocLines(uint64(cfg.WindowLines))
	}
	hier.OnAccelInvalidate = u.invalidateMeta
	return u
}

func (u *Unit) invalidateMeta(lineAddr mem.Addr) {
	for _, a := range u.accel {
		a.meta.Invalidate(lineAddr)
	}
}

// Accelerator returns the accelerator at a slice (for stats and tests).
func (u *Unit) Accelerator(slice int) *Accelerator { return u.accel[slice] }

// Distributor returns the query distributor (for stats and tests).
func (u *Unit) Distributor() *noc.QueryDistributor { return u.dist }

// Stats aggregates all accelerators.
func (u *Unit) Stats() AccelStats {
	var s AccelStats
	for _, a := range u.accel {
		as := a.Stats()
		s.Queries += as.Queries
		s.Hits += as.Hits
		s.Misses += as.Misses
		s.Faults += as.Faults
		s.MetaHits += as.MetaHits
		s.MetaMisses += as.MetaMisses
		s.DataAccess += as.DataAccess
		s.BusyCycles += as.BusyCycles
		s.QueueCycles += as.QueueCycles
	}
	return s
}

// ActiveFlowEstimate merges every accelerator's flow register and returns
// the chip-wide linear-counting estimate for the current window.
func (u *Unit) ActiveFlowEstimate() float64 {
	merged := NewFlowRegister(u.cfg.FlowRegBits)
	for _, a := range u.accel {
		merged.Merge(a.flowReg)
	}
	return merged.Estimate()
}

// ResetFlowWindow clears all flow registers (the periodic scan).
func (u *Unit) ResetFlowWindow() {
	for _, a := range u.accel {
		a.flowReg.Reset()
	}
}

// refreshBusyBits mirrors scoreboard occupancy into the distributor.
func (u *Unit) refreshBusyBits(at sim.Cycle) {
	for s, a := range u.accel {
		u.dist.SetBusy(s, a.OutstandingAt(at) >= u.cfg.Accel.ScoreboardDepth)
	}
}

// cmdDelay is the latency of a HALO command or response message between a
// core's ring stop and an accelerator: query and result packets are tiny and
// ride the CHA-side command path (the same lightweight path CHA-to-CHA data
// requests use), not the fully arbitrated data ring.
func (u *Unit) cmdDelay(from, to int) sim.Cycle {
	return 2 + sim.Cycle(u.ring.Hops(from, to))*u.hier.Config().AccelHopCycles
}

// dispatch routes a query and runs it on the selected accelerator.
func (u *Unit) dispatch(at sim.Cycle, q Query) QueryResult {
	u.refreshBusyBits(at)
	slice, _ := u.dist.Target(q.Core, uint64(q.TableAddr), uint64(q.KeyAddr))
	return u.accel[slice].Process(at+u.cmdDelay(q.Core, slice), q)
}

// stageKey writes the lookup key into the core's staging buffer, charging
// the thread for the stores the compiled code would issue.
func (u *Unit) stageKey(th *cpu.Thread, key []byte) mem.Addr {
	buf := u.keyBuf[th.Core]
	u.space.WriteAt(buf, key)
	words := (len(key) + 7) / 8
	th.LocalStore(words)
	return buf
}

// LookupB performs a blocking accelerator lookup (the LOOKUP_B instruction):
// the core stages the key, then stalls until the result returns over the
// interconnect.
func (u *Unit) LookupB(th *cpu.Thread, tableAddr mem.Addr, key []byte) (uint64, bool) {
	start := th.Now
	keyAddr := u.stageKey(th, key)
	return u.lookupB(th, start, tableAddr, keyAddr)
}

// LookupBAt issues LOOKUP_B against a key already resident in simulated
// memory — the common NFV case, where the key is a parsed header inside a
// DDIO-delivered packet buffer (clean in the LLC), so the accelerator's key
// fetch avoids the dirty-line snoop that staged keys pay.
func (u *Unit) LookupBAt(th *cpu.Thread, tableAddr, keyAddr mem.Addr) (uint64, bool) {
	return u.lookupB(th, th.Now, tableAddr, keyAddr)
}

// lookupB issues LOOKUP_B for a key at keyAddr and waits for its result,
// recording the latency from `start`.
func (u *Unit) lookupB(th *cpu.Thread, start sim.Cycle, tableAddr, keyAddr mem.Addr) (uint64, bool) {
	th.ALU(1)   // RAX already holds the table address; address formation
	th.Other(1) // the LOOKUP_B instruction itself
	r := u.dispatch(th.Now, Query{Core: th.Core, TableAddr: tableAddr, KeyAddr: keyAddr})
	// Result returns to the issuing core on the command path.
	th.WaitUntil(r.Done + u.cmdDelay(r.Slice, th.Core))
	th.Record("lat.lookup.accel", th.Now-start)
	return r.Value, r.Found
}

// NBQuery is one element of a non-blocking batch: a key to look up in a
// table (tuple-space search sends one key to many tables). When Key is nil,
// KeyAddr names a key already resident in simulated memory (packet buffer);
// otherwise the key is staged through the core's buffer.
type NBQuery struct {
	TableAddr mem.Addr
	Key       []byte
	KeyAddr   mem.Addr
}

// NBResult is one completed non-blocking lookup.
type NBResult struct {
	Value uint64
	Found bool
	Fault bool
}

// LookupManyNB issues a set of lookups with LOOKUP_NB, an issue window of
// BatchSize*WindowLines queries at a time — all queries of a window are
// dispatched before the first poll ("send the queries to all the tuples at
// once", paper §5.1) — then polls each result line with SNAPSHOT_READ +
// vector compare until every slot completes (paper §4.5). The thread
// advances to the cycle the last result was observed.
func (u *Unit) LookupManyNB(th *cpu.Thread, queries []NBQuery) []NBResult {
	results := make([]NBResult, len(queries))
	u.LookupManyNBInto(th, queries, results)
	return results
}

// LookupManyNBInto is LookupManyNB writing into a caller-provided results
// slice (len(results) must cover len(queries)), letting steady-state callers
// reuse their buffers. Neither slice is retained after the call returns.
func (u *Unit) LookupManyNBInto(th *cpu.Thread, queries []NBQuery, results []NBResult) {
	window := u.cfg.BatchSize * u.cfg.WindowLines
	for base := 0; base < len(queries); base += window {
		end := base + window
		if end > len(queries) {
			end = len(queries)
		}
		u.lookupWindowNB(th, queries[base:end], results[base:end])
	}
}

func (u *Unit) lookupWindowNB(th *cpu.Thread, queries []NBQuery, results []NBResult) {
	start := th.Now
	resultBase := u.resultBuf[th.Core]
	lines := (len(queries) + u.cfg.BatchSize - 1) / u.cfg.BatchSize
	// Zero the result lines so "non-zero" means done.
	for li := 0; li < lines; li++ {
		u.space.WriteAt(resultBase+mem.Addr(li)*mem.LineSize, zeroLine[:])
		th.LocalStore(1) // one vector store clears a line
	}

	keyLine := u.keyBuf[th.Core]
	if cap(u.lineDone) < lines {
		u.lineDone = make([]sim.Cycle, lines)
	}
	lineDone := u.lineDone[:lines]
	for li := range lineDone {
		lineDone[li] = 0
	}
	for i, q := range queries {
		keyAddr := q.KeyAddr
		if q.Key != nil {
			// Stage each key in its own line of the per-core staging
			// region so in-flight queries never share a key line.
			keyAddr = keyLine + mem.Addr(i)*mem.LineSize
			u.space.WriteAt(keyAddr, q.Key)
			th.LocalStore((len(q.Key) + 7) / 8)
		}
		th.ALU(1)
		th.Other(1) // LOOKUP_NB retires at issue, like a store

		li := i / u.cfg.BatchSize
		slot := i % u.cfg.BatchSize
		r := u.dispatch(th.Now, Query{
			Core:        th.Core,
			TableAddr:   q.TableAddr,
			KeyAddr:     keyAddr,
			ResultAddr:  resultBase + mem.Addr(li)*mem.LineSize + mem.Addr(slot*8),
			NonBlocking: true,
		})
		results[i] = NBResult{Value: r.Value, Found: r.Found, Fault: r.Fault}
		if r.Done > lineDone[li] {
			lineDone[li] = r.Done
		}
	}

	// Poll: SNAPSHOT_READ each line + AVX compare until its slots are done.
	for li := 0; li < lines; li++ {
		lineAddr := resultBase + mem.Addr(li)*mem.LineSize
		for {
			th.SnapshotRead(lineAddr)
			th.ALU(2)   // vector compare + mask extract
			th.Other(1) // branch
			if th.Now >= lineDone[li] {
				break
			}
			th.WaitUntil(minCycle(lineDone[li], th.Now+8)) // re-poll cadence
		}
	}
	// Read out the slots (register moves from the snapshotted vectors).
	th.ALU(len(queries))
	// One observation per issue window: NB queries complete together, so
	// the window's end-to-end cost is the meaningful latency.
	th.Record("lat.lookup.accel_nb", th.Now-start)
}

func minCycle(a, b sim.Cycle) sim.Cycle {
	if a < b {
		return a
	}
	return b
}

// String summarises the unit for logs.
func (u *Unit) String() string {
	s := u.Stats()
	return fmt.Sprintf("halo.Unit{slices: %d, queries: %d, hit-rate: %.2f}",
		len(u.accel), s.Queries, float64(s.Hits)/float64(max64(s.Queries, 1)))
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
