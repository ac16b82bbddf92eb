package experiments

import (
	"io"

	"halo/internal/cache"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/metrics"
	"halo/internal/sim"
	"halo/internal/stats"
)

// LockOverheadResult reproduces the §3.4 concurrency analysis: the share of
// software lookup time spent in the optimistic-locking protocol, and the
// cost of touching a line held in a remote core's private cache versus the
// LLC.
type LockOverheadResult struct {
	LockSharePct     float64
	LLCHitCycles     float64
	RemoteHitCycles  float64
	RemoteOverLLC    float64
	HaloLockStallPct float64
	Table            *metrics.Table
}

// lockRow is one of the three independent §3.4 measurements; each knows
// which result fields it fills.
type lockRow interface{ fill(*LockOverheadResult) }

// lockPassRow is the software-locking measurement.
type lockPassRow struct{ WithLock, WithoutLock float64 }

func (r lockPassRow) fill(res *LockOverheadResult) {
	res.LockSharePct = (r.WithLock - r.WithoutLock) / r.WithLock
	if res.LockSharePct < 0 {
		res.LockSharePct = 0
	}
}

// latencyRow is the remote-vs-LLC latency measurement.
type latencyRow struct{ LLCHit, RemoteHit float64 }

func (r latencyRow) fill(res *LockOverheadResult) {
	res.LLCHitCycles = r.LLCHit
	res.RemoteHitCycles = r.RemoteHit
	res.RemoteOverLLC = r.RemoteHit / r.LLCHit
}

// haloLockRow is the hardware-lock stall share of HALO lookup time.
type haloLockRow float64

func (r haloLockRow) fill(res *LockOverheadResult) { res.HaloLockStallPct = float64(r) }

// lockCell is one measurement: its label and how to take it.
type lockCell struct {
	label string
	run   func(cfg Config, lookups int, snap *stats.Snapshot) lockRow
}

func lockCells(Config) []lockCell {
	return []lockCell{
		// Optimistic-lock share of software lookup time, with writers
		// interleaved so the version line actually bounces between cores.
		// Only the locked pass is snapshotted: it is the configuration
		// under study.
		{"software-lock", func(cfg Config, lookups int, snap *stats.Snapshot) lockRow {
			return lockPassRow{
				WithLock:    runLockPass(cfg, lookups, true, snap),
				WithoutLock: runLockPass(cfg, lookups, false, nil),
			}
		}},
		{"remote-latency", func(_ Config, _ int, snap *stats.Snapshot) lockRow { return runLatencyProbe(snap) }},
		// HALO's hardware lock under the same read/write mix — lock stalls
		// happen in the cache, with no instruction overhead.
		{"halo-lock", func(cfg Config, lookups int, snap *stats.Snapshot) lockRow {
			return haloLockRow(runHaloLockPass(cfg, lookups, snap))
		}},
	}
}

// lockoverhead is the §3.4 analysis as its three independent measurements.
var lockoverhead = experiment[lockCell, lockRow, *LockOverheadResult]{
	id:    "lockoverhead",
	cells: lockCells,
	label: func(c lockCell) string { return c.label },
	run: func(cfg Config, _ int, c lockCell, snap *stats.Snapshot) lockRow {
		return c.run(cfg, pickSize(cfg, 2000, 10000), snap)
	},
	assemble: assembleLockOverhead,
	render:   func(r *LockOverheadResult, w io.Writer) { r.Table.Render(w) },
}

// runLatencyProbe measures remote-private-cache access vs LLC access
// (paper: remote is about 2x an LLC hit and can exceed 100 cycles).
func runLatencyProbe(snap *stats.Snapshot) latencyRow {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	llcAddrs := p.Alloc.AllocLines(64)
	var llcTotal, remoteTotal float64
	for i := 0; i < 64; i++ {
		addr := llcAddrs + mem.Addr(i)*mem.LineSize
		p.Hier.WarmLLC(addr)
		r := p.Hier.CoreAccess(sim.Cycle(i)*10000, 0, addr, false)
		llcTotal += float64(r.Latency())
	}
	remAddrs := p.Alloc.AllocLines(64)
	for i := 0; i < 64; i++ {
		addr := remAddrs + mem.Addr(i)*mem.LineSize
		// Core 1 dirties the line; core 0 then reads it remotely.
		w := p.Hier.CoreAccess(1_000_000+sim.Cycle(i)*10000, 1, addr, true)
		r := p.Hier.CoreAccess(w.Done, 0, addr, false)
		if r.Where != cache.InRemoteCache {
			panic("remote access experiment not hitting a remote cache")
		}
		remoteTotal += float64(r.Latency())
	}
	collectInto(snap, p)
	return latencyRow{LLCHit: llcTotal / 64, RemoteHit: remoteTotal / 64}
}

func assembleLockOverhead(_ Config, _ []lockCell, rows []lockRow) *LockOverheadResult {
	res := &LockOverheadResult{}
	for _, r := range rows {
		r.fill(res)
	}

	res.Table = metrics.NewTable("§3.4: concurrency overhead of flow classification",
		"metric", "value")
	res.Table.SetCaption("paper: locking ~13.1%% of lookup time; remote-cache access ~2x an LLC hit")
	res.Table.AddRow("software optimistic-lock share", metrics.Percent(res.LockSharePct))
	res.Table.AddRow("LLC hit latency (cycles)", res.LLCHitCycles)
	res.Table.AddRow("remote private-cache latency (cycles)", res.RemoteHitCycles)
	res.Table.AddRow("remote / LLC ratio", res.RemoteOverLLC)
	res.Table.AddRow("halo hardware-lock stall share", metrics.Percent(res.HaloLockStallPct))
	return res
}

// runLockPass measures software cycles/lookup with a writer thread on
// another core updating the table between reader bursts.
func runLockPass(cfg Config, lookups int, lock bool, snap *stats.Snapshot) float64 {
	f := sharedFixture(cfg, 1<<14, 0.60)
	opts := cuckoo.LookupOptions{OptimisticLock: lock, Prefetch: false}
	writer := newThreadOn(f.p)
	writer.Core = 1
	writeSeq := f.fill

	var kb, wb [testKeyLen]byte
	for i := 0; i < lookups/2; i++ { // warm
		testKeyInto(uint64(i)%f.fill, kb[:])
		f.table.TimedLookup(f.thread, kb[:], opts)
	}
	start := f.thread.Now
	for i := 0; i < lookups; i++ {
		testKeyInto(uint64(i*13)%f.fill, kb[:])
		f.table.TimedLookup(f.thread, kb[:], opts)
		if i%16 == 0 {
			// A concurrent writer inserts a flow (bursty rule updates).
			writer.WaitUntil(f.thread.Now)
			testKeyInto(writeSeq, wb[:])
			_ = f.table.TimedInsert(writer, wb[:], writeSeq)
			writeSeq++
		}
	}
	collectInto(snap, f.p, f.thread, writer)
	return float64(f.thread.Now-start) / float64(lookups)
}

// runHaloLockPass measures the share of HALO lookup time lost to hardware
// lock stalls under the same write mix.
func runHaloLockPass(cfg Config, lookups int, snap *stats.Snapshot) float64 {
	f := sharedFixture(cfg, 1<<14, 0.60)
	writer := newThreadOn(f.p)
	writer.Core = 1
	writeSeq := f.fill

	f.p.Hier.ResetStats()
	start := f.thread.Now
	var wb [testKeyLen]byte
	for i := 0; i < lookups; i++ {
		f.p.Unit.LookupBAt(f.thread, f.table.Base(), f.stageKeyDMA(uint64(i*13)))
		if i%16 == 0 {
			writer.WaitUntil(f.thread.Now)
			testKeyInto(writeSeq, wb[:])
			_ = f.table.TimedInsert(writer, wb[:], writeSeq)
			writeSeq++
		}
	}
	collectInto(snap, f.p, f.thread, writer)
	elapsed := float64(f.thread.Now - start)
	if elapsed == 0 {
		return 0
	}
	return float64(f.p.Hier.Stats().LockStallCycles) / elapsed
}
