// Package experiments contains one runner per table and figure of the
// paper's evaluation (§3 and §6). Each runner builds fresh simulated
// platforms (mirroring the paper's separate gem5 runs per configuration),
// drives the workload, and returns both a rendered metrics.Table and the
// structured numbers, so the same code backs the halobench CLI, the Go
// benchmarks, and the regression tests.
package experiments

import (
	"encoding/binary"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/stats"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks sweeps and iteration counts for use under `go test`;
	// the full configuration reproduces the paper's parameter ranges.
	Quick bool
	// Seed drives all workload randomness.
	Seed uint64

	protos *prototypes // the running sweep's, set per point by RunPoint
}

// DefaultConfig runs experiments at paper scale.
func DefaultConfig() Config { return Config{Seed: 0x48414c4f} }

// QuickConfig runs shrunk experiments for tests and benchmarks.
func QuickConfig() Config { return Config{Quick: true, Seed: 0x48414c4f} }

// ClockGHz is the simulated core clock (paper Table 2).
const ClockGHz = 2.1

// testKeyLen is the canonical synthetic key size of the raw hash-table
// experiments.
const testKeyLen = 16

// testKeyInto writes the canonical synthetic key for index i into k (at
// least testKeyLen long). Hot loops call it with a reused buffer.
func testKeyInto(i uint64, k []byte) {
	binary.LittleEndian.PutUint64(k, i)
	binary.LittleEndian.PutUint64(k[8:], i^0xabcdef)
}

// lookupFixture is a populated table on a fresh platform with a recycled
// DDIO packet-buffer pool holding lookup keys, the methodology every
// raw-lookup experiment shares (§5.2: tables warmed before measurement).
type lookupFixture struct {
	p       *halo.Platform
	table   *cuckoo.Table
	thread  *cpu.Thread
	keyPool []mem.Addr // one line per pooled key
	fill    uint64
	keyBuf  [testKeyLen]byte // DMA staging scratch
}

// keyPoolLines bounds the packet-buffer pool: real NFV buffer pools are
// small and recycled, so lookup keys arrive in lines that stay LLC-resident.
const keyPoolLines = 4096

func newLookupFixture(entries uint64, occupancy float64) *lookupFixture {
	return fixtureOn(halo.NewPlatform(halo.DefaultPlatformConfig()), entries, occupancy)
}

// fixtureOn builds the fixture against an existing (possibly customised)
// platform.
func fixtureOn(p *halo.Platform, entries uint64, occupancy float64) *lookupFixture {
	table, err := p.NewTable(cuckoo.Config{Entries: entries, KeyLen: 16})
	if err != nil {
		panic(err)
	}
	fill := max(uint64(float64(entries)*occupancy), 1)
	f := &lookupFixture{p: p, table: table, thread: cpu.NewThread(p.Hier, 0)}
	f.fill = fillAndWarm(p, table, fill, func(i uint64) uint64 { return i*2 + 1 })
	pool := p.Alloc.AllocLines(keyPoolLines)
	f.keyPool = make([]mem.Addr, keyPoolLines)
	for i := range f.keyPool {
		f.keyPool[i] = pool + mem.Addr(i)*mem.LineSize
	}
	return f
}

// fillAndWarm inserts the canonical keys 0..n-1, with value(i) as key i's
// value, into a table just created on p, stopping at the first failure, and
// returns how many went in. The fill is the table's staged Fill, with the
// warm-up beside it (warmBeside).
func fillAndWarm(p *halo.Platform, table *cuckoo.Table, n uint64, value func(i uint64) uint64) uint64 {
	var inserted uint64
	warmBeside(p, table, func() { inserted, _ = table.Fill(n, testKeyInto, value) })
	return inserted
}

// warmBeside runs fill, which loads table, while a second goroutine runs
// p.WarmTable(table). The warm-up writes only p.Hier and reads only the
// geometry Create fixed, while a fill writes only p.Space and the handle's
// free list, size and counters (and whatever state of its own fill keeps):
// the two overlap and leave exactly the state fill-then-warm does.
func warmBeside(p *halo.Platform, table *cuckoo.Table, fill func()) {
	warmed := make(chan struct{})
	go func() {
		p.WarmTable(table)
		close(warmed)
	}()
	fill()
	<-warmed
}

// platform implements prototypeOf.
func (f *lookupFixture) platform() *halo.Platform { return f.p }

// fixtureKey names a shared lookup fixture.
type fixtureKey struct {
	entries   uint64
	occupancy float64
}

// sharedFixture returns a clone of the run's prototype of
// newLookupFixture(entries, occupancy): every point of a run that asks for
// the same fixture starts from one fill and warm-up.
func sharedFixture(cfg Config, entries uint64, occupancy float64) *lookupFixture {
	return shared(cfg, fixtureKey{entries, occupancy}, func() *lookupFixture {
		return newLookupFixture(entries, occupancy)
	}).clone()
}

// clone returns a second fixture in the state f's set-up left it in
// (halo.Platform.Clone), with a thread of its own. Take it before f runs
// anything timed.
func (f *lookupFixture) clone() *lookupFixture {
	p, tables := f.p.Clone(f.table)
	return &lookupFixture{p: p, table: tables[0], thread: newThreadOn(p), keyPool: f.keyPool, fill: f.fill}
}

// stageKeyDMA delivers key i into the recycled pool as a NIC would (DDIO:
// functional write + LLC-resident clean line) and returns its address.
func (f *lookupFixture) stageKeyDMA(n uint64) mem.Addr {
	addr := f.keyPool[n%keyPoolLines]
	testKeyInto(n%f.fill, f.keyBuf[:])
	f.p.Space.WriteAt(addr, f.keyBuf[:])
	f.p.Hier.DMAWrite(addr)
	return addr
}

// cyclesPerLookup is the measurement loop of the plain single-table runs:
// warm with lookups/2 lookups of consecutive keys, then time `lookups` of
// them at stride 13 and return cycles per lookup. Runs that interleave a
// writer or reset counters between the phases keep their own loop.
func cyclesPerLookup(th *cpu.Thread, lookups int, lookup func(n uint64)) float64 {
	for i := 0; i < lookups/2; i++ {
		lookup(uint64(i))
	}
	start := th.Now
	for i := 0; i < lookups; i++ {
		lookup(uint64(i * 13))
	}
	return float64(th.Now-start) / float64(lookups)
}

// statsCollector is anything that can publish counters and histograms into
// a snapshot: platforms, threads, switches, hybrid controllers, table stats.
type statsCollector interface {
	CollectInto(*stats.Snapshot)
}

// collectInto gathers every collector into snap. A nil snap makes it a
// no-op: a run passes nil for an arm it measures but keeps out of the
// point's stats.
func collectInto(snap *stats.Snapshot, cs ...statsCollector) {
	if snap == nil {
		return
	}
	for _, c := range cs {
		if c != nil {
			c.CollectInto(snap)
		}
	}
}

// pickSize returns quick or full depending on cfg.
func pickSize(cfg Config, quick, full int) int {
	if cfg.Quick {
		return quick
	}
	return full
}

// newPlatformForTable builds a platform with an arena sized for one table
// of the given capacity (SFH tables over-allocate 5x).
func newPlatformForTable(entries uint64, sfh bool) *halo.Platform {
	cfg := halo.DefaultPlatformConfig()
	need := cuckoo.Footprint(cuckoo.Config{Entries: entries, KeyLen: 16, SFH: sfh})
	if need*2+(1<<26) > cfg.ArenaBytes {
		cfg.ArenaBytes = need*2 + (1 << 26)
	}
	return halo.NewPlatform(cfg)
}

// newThreadOn binds a fresh thread to core 0 of a platform.
func newThreadOn(p *halo.Platform) *cpu.Thread { return cpu.NewThread(p.Hier, 0) }
