// Package halo is a from-scratch reproduction of HALO (Yuan, Wang, Wang,
// Huang — ISCA 2019): near-cache accelerators for hash-table lookup that
// scale flow classification in NFV packet processing.
//
// The package bundles a simulated multicore platform (cache hierarchy, ring
// interconnect, DRAM) with the HALO accelerators installed, plus the
// software substrates the paper evaluates against: a DPDK-style cuckoo hash
// table, an OVS-style virtual switch with EMC and tuple-space-search layers,
// TCAM baselines, and hash-table-bound network functions.
//
// Quick start:
//
//	sys := halo.New()
//	table, _ := sys.NewTable(halo.TableConfig{Entries: 1 << 14, KeyLen: 16})
//	table.Insert(key, value)           // functional
//	th := sys.Thread(0)                // a software context on core 0
//	v, ok := table.TimedLookup(th, key, halo.SoftwareLookupDefaults()) // software path
//	v, ok = sys.Unit().LookupB(th, table.Base(), key)                  // LOOKUP_B
//
// Cycle counts accumulate on the Thread; compare th.Now across approaches.
// The experiments behind every table and figure of the paper live in
// internal/experiments and are runnable through cmd/halobench.
package halo

import (
	"halo/internal/classify"
	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/flowserve"
	ihalo "halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/nf"
	"halo/internal/noc"
	"halo/internal/packet"
	"halo/internal/vswitch"
)

// Re-exported core types. Aliases expose the full internal APIs through the
// public package.
type (
	// System is a simulated machine with HALO installed.
	System struct {
		platform *ihalo.Platform
	}

	// Thread is a software execution context on one core.
	Thread = cpu.Thread

	// Table is a DPDK-style bucketized cuckoo hash table resident in the
	// system's simulated memory.
	Table = cuckoo.Table

	// TableConfig parametrises table creation.
	TableConfig = cuckoo.Config

	// LookupOptions tunes the software lookup path.
	LookupOptions = cuckoo.LookupOptions

	// Unit is the chip-wide HALO installation: per-slice accelerators and
	// the query distributor.
	Unit = ihalo.Unit

	// Hybrid switches between software and accelerated lookups using the
	// linear-counting flow registers (paper §4.6).
	Hybrid = ihalo.Hybrid

	// FlowRegister is the linear-counting cardinality estimator.
	FlowRegister = ihalo.FlowRegister

	// NBQuery and NBResult are the non-blocking lookup batch types.
	NBQuery  = ihalo.NBQuery
	NBResult = ihalo.NBResult

	// Addr is a simulated physical address.
	Addr = mem.Addr

	// FiveTuple is the canonical flow key.
	FiveTuple = packet.FiveTuple

	// Packet is a parsed network packet.
	Packet = packet.Packet

	// TupleSpace is the tuple-space-search classifier (MegaFlow/OpenFlow).
	TupleSpace = classify.TupleSpace

	// Mask is a wildcard pattern over the five-tuple.
	Mask = classify.Mask

	// Match is a classification result.
	Match = classify.Match

	// EMC is the exact-match cache layer.
	EMC = classify.EMC

	// Switch is the OVS-style virtual switch datapath.
	Switch = vswitch.Switch

	// SwitchConfig selects a Switch's engine and layers.
	SwitchConfig = vswitch.Config

	// PlatformConfig configures the simulated machine.
	PlatformConfig = ihalo.PlatformConfig
)

// Option customises a System at construction.
type Option func(*PlatformConfig)

// WithConfig replaces the whole platform configuration.
func WithConfig(cfg PlatformConfig) Option {
	return func(c *PlatformConfig) { *c = cfg }
}

// WithDispatchPolicy selects the query-distribution policy.
func WithDispatchPolicy(p DispatchPolicy) Option {
	return func(c *PlatformConfig) { c.Unit.Dispatch = p }
}

// DispatchPolicy selects how lookup queries map to accelerators.
type DispatchPolicy = noc.DispatchPolicy

// Dispatch policies.
const (
	DispatchByTable    = noc.DispatchByTable
	DispatchByKeyLine  = noc.DispatchByKeyLine
	DispatchRoundRobin = noc.DispatchRoundRobin
)

// DefaultPlatformConfig returns the paper's Table 2 machine configuration.
func DefaultPlatformConfig() PlatformConfig { return ihalo.DefaultPlatformConfig() }

// New builds a simulated 16-core platform (paper Table 2) with HALO
// installed.
func New(opts ...Option) *System {
	cfg := ihalo.DefaultPlatformConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &System{platform: ihalo.NewPlatform(cfg)}
}

// Platform exposes the underlying simulated machine for advanced use
// (experiments, custom substrates).
func (s *System) Platform() *ihalo.Platform { return s.platform }

// Unit returns the HALO unit (accelerators + distributor).
func (s *System) Unit() *Unit { return s.platform.Unit }

// Thread creates a software context bound to a core.
func (s *System) Thread(core int) *Thread {
	return cpu.NewThread(s.platform.Hier, core)
}

// Cores returns the simulated core count.
func (s *System) Cores() int { return s.platform.Hier.Config().Cores }

// NewTable creates a cuckoo hash table in simulated memory.
func (s *System) NewTable(cfg TableConfig) (*Table, error) {
	return s.platform.NewTable(cfg)
}

// WarmTable pre-loads a table into the LLC (the paper's warm-up protocol).
func (s *System) WarmTable(t *Table) { s.platform.WarmTable(t) }

// NewHybrid builds a hybrid software/accelerator lookup controller.
func (s *System) NewHybrid() *Hybrid {
	return ihalo.NewHybrid(ihalo.DefaultHybridConfig(), s.platform.Unit)
}

// NewTupleSpace builds a tuple-space-search classifier. firstMatch selects
// MegaFlow semantics; otherwise every tuple is searched and the highest
// priority wins (OpenFlow semantics).
func (s *System) NewTupleSpace(firstMatch bool, entriesPerTuple uint64) *TupleSpace {
	mode := classify.HighestPriority
	if firstMatch {
		mode = classify.FirstMatch
	}
	return classify.NewTupleSpace(s.platform.Space, s.platform.Alloc, mode, entriesPerTuple)
}

// NewSwitch builds an OVS-style virtual switch on this system.
func (s *System) NewSwitch(cfg SwitchConfig) (*Switch, error) {
	return vswitch.New(s.platform, cfg)
}

// DefaultSwitchConfig mirrors OVS/DPDK defaults with the software engine.
func DefaultSwitchConfig() SwitchConfig { return vswitch.DefaultConfig() }

// HaloSwitchConfig is DefaultSwitchConfig with classification offloaded to
// the accelerators.
func HaloSwitchConfig() SwitchConfig {
	cfg := vswitch.DefaultConfig()
	cfg.Engine = vswitch.EngineHalo
	return cfg
}

// SoftwareLookupDefaults returns the optimized DPDK software-lookup
// configuration (optimistic locking + bucket prefetch).
func SoftwareLookupDefaults() LookupOptions { return cuckoo.DefaultLookupOptions() }

// NewNAT builds a network address translator on this system. Accelerated
// NFs use the HALO unit for their table lookups.
func (s *System) NewNAT(accelerated bool, entries uint64) (*nf.NAT, error) {
	return nf.NewNAT(s.platform, nfEngine(accelerated), entries)
}

// NewPacketFilter builds a hash-table packet filter on this system.
func (s *System) NewPacketFilter(accelerated bool, entries uint64) (*nf.Filter, error) {
	return nf.NewFilter(s.platform, nfEngine(accelerated), entries)
}

// NewPrads builds a passive asset tracker on this system.
func (s *System) NewPrads(accelerated bool, entries uint64) (*nf.Prads, error) {
	return nf.NewPrads(s.platform, nfEngine(accelerated), entries)
}

func nfEngine(accelerated bool) nf.Engine {
	if accelerated {
		return nf.EngineHalo
	}
	return nf.EngineSoftware
}

// AllocLines reserves n cache lines of simulated memory (e.g. for packet
// buffers) and returns the base address.
func (s *System) AllocLines(n uint64) Addr { return s.platform.Alloc.AllocLines(n) }

// DMAWrite delivers data into simulated memory the way a DDIO-capable NIC
// does: the bytes land in the LLC, clean of any core's private cache, and no
// core time is charged.
func (s *System) DMAWrite(addr Addr, data []byte) {
	s.platform.Space.WriteAt(addr, data)
	for line := mem.LineAddr(addr); line < addr+Addr(len(data)); line += mem.LineSize {
		s.platform.Hier.DMAWrite(line)
	}
}

// ReadMemory reads simulated memory functionally (no timing).
func (s *System) ReadMemory(addr Addr, buf []byte) { s.platform.Space.ReadAt(addr, buf) }

// Serving layer (DESIGN.md §8–9). Unlike everything above, this is not a
// simulation: ServeTable is the real concurrent sharded flow table that
// cmd/flowserved exposes over the flowwire protocol and cmd/flowload
// load-tests through it.
type (
	// ServeTable is the concurrent sharded serving table (real memory, real
	// goroutines — the live counterpart of the simulated Table).
	ServeTable = flowserve.Table

	// ServeConfig sizes a ServeTable.
	ServeConfig = flowserve.Config

	// ServeResult is one key's outcome in a batched lookup.
	ServeResult = flowserve.Result

	// ServeReader is the serving read interface (Lookup/LookupMany),
	// satisfied by *ServeTable in-process and by flowwire.Client over TCP.
	ServeReader = flowserve.Reader

	// ServeWriter is the serving mutation interface (Insert/Update/Delete),
	// satisfied by the same two implementations.
	ServeWriter = flowserve.Writer
)

// NewServeTable builds a serving table and returns it as the unified
// Reader/Writer pair, so callers written against the interfaces swap freely
// between an in-process table and a remote flowwire client (DESIGN.md §9).
// Both returned values are the same *ServeTable.
func NewServeTable(cfg ServeConfig) (ServeReader, ServeWriter, error) {
	t, err := flowserve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return t, t, nil
}

// ClockGHz is the simulated core frequency (paper Table 2).
const ClockGHz = 2.1

// CyclesToMicros converts simulated cycles to microseconds at the platform
// clock.
func CyclesToMicros(cycles uint64) float64 {
	return float64(cycles) / (ClockGHz * 1e3)
}
