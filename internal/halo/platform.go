package halo

import (
	"fmt"
	"slices"
	"strings"

	"halo/internal/cache"
	"halo/internal/cuckoo"
	"halo/internal/mem"
	"halo/internal/noc"
	"halo/internal/stats"
)

// Platform bundles one simulated machine: functional memory, DRAM timing,
// ring interconnect, cache hierarchy, and the HALO unit. Experiments build a
// Platform, create tables in its memory, and drive threads against it.
type Platform struct {
	Space *mem.Memory
	Alloc *mem.Allocator
	DRAM  *mem.DRAM
	Ring  *noc.Ring
	Hier  *cache.Hierarchy
	Unit  *Unit

	cfg    PlatformConfig
	tables []*cuckoo.Table // tables created through NewTable, for snapshots
}

// PlatformConfig collects the per-component configurations.
type PlatformConfig struct {
	Cache cache.Config
	Ring  noc.RingConfig
	DRAM  mem.DRAMConfig
	Unit  UnitConfig
	// ArenaBytes sizes the simulated-memory allocation arena.
	ArenaBytes uint64
}

// DefaultPlatformConfig is the paper's Table 2 machine with HALO installed.
func DefaultPlatformConfig() PlatformConfig {
	return PlatformConfig{
		Cache:      cache.DefaultConfig(),
		Ring:       noc.DefaultRingConfig(),
		DRAM:       mem.DefaultDRAMConfig(),
		Unit:       DefaultUnitConfig(),
		ArenaBytes: 8 << 30,
	}
}

// NewPlatform builds and wires a simulated machine.
func NewPlatform(cfg PlatformConfig) *Platform {
	space := mem.NewMemory()
	alloc := mem.NewAllocator(mem.LineSize, cfg.ArenaBytes) // skip address 0
	dram := mem.NewDRAM(cfg.DRAM)
	ring := noc.NewRing(cfg.Ring)
	hier := cache.New(cfg.Cache, ring, dram)
	unit := NewUnit(cfg.Unit, hier, ring, space, alloc)
	return &Platform{Space: space, Alloc: alloc, DRAM: dram, Ring: ring, Hier: hier, Unit: unit, cfg: cfg}
}

// Clone returns a second platform in the state p's set-up left it in, and
// the clone's handles for ts, tables in p's memory: one fill and warm-up
// then serves several measured runs. The clone is a fresh NewPlatform —
// unit, DRAM, ring and private caches pristine, the unit's staging buffers
// at p's addresses — given a copy-on-write clone of p's memory, p's
// allocator position and a deep copy of p's LLC. Every table registered
// through NewTable is copied and registered in the clone; any other handle
// in ts is copied unregistered, as its source is, so the clone's snapshots
// read like p's. Anything timed leaves state only in the parts the clone
// builds fresh, so Clone panics, naming the counters, once p's hierarchy,
// unit or DRAM counters have moved.
//
// Once p's pages are all marked shared (mem.Memory.MarkShared), Clone only
// reads p: a prototype nothing runs on may be cloned on several goroutines
// at once, and each clone used on its own.
func (p *Platform) Clone(ts ...*cuckoo.Table) (*Platform, []*cuckoo.Table) {
	if moved := p.movedCounters(); moved != "" {
		panic("halo: Clone of a platform that has run timed traffic: " + moved)
	}
	c := NewPlatform(p.cfg)
	*c.Space = *p.Space.Clone() // the unit and accelerators hold c.Space
	*c.Alloc = *p.Alloc
	c.Hier.CopyLLCFrom(p.Hier)
	for _, pt := range p.tables {
		c.tables = append(c.tables, pt.CloneOnto(c.Space))
	}
	handles := make([]*cuckoo.Table, len(ts))
	for i, t := range ts {
		if j := slices.Index(p.tables, t); j >= 0 {
			handles[i] = c.tables[j]
		} else {
			handles[i] = t.CloneOnto(c.Space)
		}
	}
	return c, handles
}

// movedCounters lists the hierarchy, unit and DRAM counters that are not
// zero, "" when none is.
func (p *Platform) movedCounters() string {
	s := stats.NewSnapshot()
	p.Hier.Stats().CollectInto(s)
	p.Unit.Stats().CollectInto(s)
	p.Unit.Distributor().CollectInto(s)
	d := p.DRAM.Stats()
	s.Add("dram.reads", d.Reads)
	s.Add("dram.writes", d.Writes)
	s.Add("dram.row_hits", d.RowHits)
	s.Add("dram.row_misses", d.RowMisses)
	var moved []string
	for _, name := range s.Names() {
		if v := s.Counter(name); v != 0 {
			moved = append(moved, fmt.Sprintf("%s=%d", name, v))
		}
	}
	return strings.Join(moved, ", ")
}

// NewTable creates a cuckoo table in the platform's memory and registers it
// for snapshot collection.
func (p *Platform) NewTable(cfg cuckoo.Config) (*cuckoo.Table, error) {
	t, err := cuckoo.Create(p.Space, p.Alloc, cfg)
	if err != nil {
		return nil, err
	}
	p.tables = append(p.tables, t)
	return t, nil
}

// CollectInto gathers every platform component's counters into a snapshot:
// the cache hierarchy, all accelerators, the query distributor, and every
// table created through NewTable.
func (p *Platform) CollectInto(s *stats.Snapshot) {
	p.Hier.Stats().CollectInto(s)
	p.Unit.Stats().CollectInto(s)
	p.Unit.Distributor().CollectInto(s)
	for _, t := range p.tables {
		t.Stats().CollectInto(s)
	}
}

// WarmTable walks a table's metadata, buckets and key-value array into the
// LLC without charging time, implementing the paper's warm-up protocol
// (§5.2: 10K lookups before measuring).
func (p *Platform) WarmTable(t *cuckoo.Table) {
	p.Hier.WarmLLC(t.Base())
	p.Hier.WarmRange(t.BucketAddr(0), t.BucketAddr(t.BucketCount()-1))
	p.Hier.WarmRange(t.KVAddr(0), t.KVAddr(uint32(t.Capacity()-1)))
}
