package halo_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"testing"

	"halo"
	"halo/internal/experiments"
	"halo/internal/runner"
)

// Per-figure benchmarks: each regenerates one of the paper's artefacts (at
// quick scale) and reports its headline numbers as custom metrics. Wall-clock
// ns/op measures the simulator itself; the sim-* metrics are the simulated
// results that correspond to the paper's figures.

func BenchmarkFig3PacketBreakdown(b *testing.B) {
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig3(experiments.QuickConfig())
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.CyclesPerPacket, "sim-cyc/pkt")
	b.ReportMetric(100*last.ClassificationShare, "sim-classify-%")
}

func BenchmarkFig4HashTableCacheBehavior(b *testing.B) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig4(experiments.QuickConfig())
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.LLCMPKL, "sim-llc-mpkl")
}

func BenchmarkTable1InstructionProfile(b *testing.B) {
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable1(experiments.QuickConfig())
	}
	b.ReportMetric(res.InstructionsPerLookup, "sim-instr/lookup")
	b.ReportMetric(100*res.MemoryShare, "sim-memory-%")
}

func BenchmarkLockOverhead(b *testing.B) {
	var res *experiments.LockOverheadResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunLockOverhead(experiments.QuickConfig())
	}
	b.ReportMetric(100*res.LockSharePct, "sim-lock-%")
	b.ReportMetric(res.RemoteOverLLC, "sim-remote/llc")
}

func BenchmarkFig8FlowRegister(b *testing.B) {
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig8(experiments.QuickConfig())
	}
	// 32-bit register estimating 64 flows: the paper's design point.
	for _, pt := range res.Points {
		if pt.RegisterBits == 32 && pt.Flows == 64 {
			b.ReportMetric(100*pt.MeanRelErr, "sim-relerr-%")
		}
	}
}

func BenchmarkFig9SingleLookup(b *testing.B) {
	var res *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig9(experiments.QuickConfig())
	}
	if pt, ok := res.Point(experiments.ModeHaloB, 1<<17, 0.75); ok {
		b.ReportMetric(pt.Normalized, "sim-haloB-speedup")
	}
	if pt, ok := res.Point(experiments.ModeHaloNB, 1<<17, 0.75); ok {
		b.ReportMetric(pt.Normalized, "sim-haloNB-speedup")
	}
}

func BenchmarkFig10LatencyBreakdown(b *testing.B) {
	var res *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig10(experiments.QuickConfig())
	}
	sw, _ := res.Row("software", "llc")
	ha, _ := res.Row("halo", "llc")
	b.ReportMetric(sw.DataAcc/ha.DataAcc, "sim-dataaccess-gain")
	b.ReportMetric(sw.Compute/ha.Compute, "sim-compute-gain")
}

func BenchmarkFig11TupleSpaceSearch(b *testing.B) {
	var res *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig11(experiments.QuickConfig())
	}
	if pt, ok := res.Point(experiments.ModeHaloNB, 20); ok {
		b.ReportMetric(pt.NormalizedToSoft, "sim-NB20-speedup")
	}
}

func BenchmarkFig12Collocation(b *testing.B) {
	var res *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig12(experiments.QuickConfig())
	}
	if pt, ok := res.Point("snortlite", 100_000, "software"); ok {
		b.ReportMetric(100*pt.ThroughputDrop, "sim-swdrop-%")
	}
	if pt, ok := res.Point("snortlite", 100_000, "halo"); ok {
		b.ReportMetric(100*pt.ThroughputDrop, "sim-halodrop-%")
	}
}

func BenchmarkTable4PowerArea(b *testing.B) {
	var res *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable4(experiments.QuickConfig())
	}
	b.ReportMetric(res.EfficiencyVs1MB, "sim-efficiency-x")
}

func BenchmarkFig13NFSpeedup(b *testing.B) {
	var res *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig13(experiments.QuickConfig())
	}
	if pt, ok := res.Point("nat", 100_000); ok {
		b.ReportMetric(pt.Speedup, "sim-nat-speedup")
	}
}

func BenchmarkAblations(b *testing.B) {
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunAblations(experiments.QuickConfig())
	}
	b.ReportMetric(res.MetaCacheSpeedup, "sim-metacache-gain")
}

// Full-suite benchmarks: the serial path against the worker pool at
// several widths. On a multi-core box the pooled variants show the
// wall-clock win of sharding sweep points; on one core they bound the
// pool's overhead.

func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunAll(experiments.QuickConfig(), io.Discard)
	}
}

// BenchmarkLookupFixtureBuild is the un-timed preamble every raw-lookup
// experiment pays before its first simulated cycle: a fresh platform, a table
// populated to 75 % with the canonical synthetic keys, and the table walked
// into the LLC. It times the facade's sequential path — fill, then warm — not
// experiments.fixtureOn, which runs the warm-up beside the fill. The small
// size is the fixture most points build; the large one is fig10's DRAM
// placement.
func BenchmarkLookupFixtureBuild(b *testing.B) {
	for _, entries := range []uint64{1 << 14, 1 << 21} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			b.ReportAllocs()
			var key [16]byte
			for i := 0; i < b.N; i++ {
				sys := halo.New()
				table, err := sys.NewTable(halo.TableConfig{Entries: entries, KeyLen: len(key)})
				if err != nil {
					b.Fatal(err)
				}
				for k := uint64(0); k < entries*3/4; k++ {
					binary.LittleEndian.PutUint64(key[:], k)
					binary.LittleEndian.PutUint64(key[8:], k^0xabcdef)
					if err := table.Insert(key[:], k*2+1); err != nil {
						b.Fatal(err)
					}
				}
				sys.WarmTable(table)
			}
		})
	}
}

func benchRunAllPool(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := runner.Run(runner.Options{Workers: workers},
			experiments.QuickConfig(), experiments.Registry(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllPool1(b *testing.B) { benchRunAllPool(b, 1) }

func BenchmarkRunAllPool4(b *testing.B) { benchRunAllPool(b, 4) }

func BenchmarkRunAllPoolMax(b *testing.B) { benchRunAllPool(b, runtime.GOMAXPROCS(0)) }

// Primitive benchmarks: simulator throughput of the hot operations (how many
// simulated lookups per wall-clock second this reproduction achieves).

func benchTable(b *testing.B, sys *halo.System, entries uint64) *halo.Table {
	b.Helper()
	table, err := sys.NewTable(halo.TableConfig{Entries: entries, KeyLen: 16})
	if err != nil {
		b.Fatal(err)
	}
	fill := entries * 3 / 4
	for i := uint64(0); i < fill; i++ {
		if err := table.Insert(facadeKey(i), i); err != nil {
			b.Fatal(err)
		}
	}
	sys.WarmTable(table)
	return table
}

func BenchmarkSoftwareLookup(b *testing.B) {
	sys := halo.New()
	table := benchTable(b, sys, 1<<14)
	th := sys.Thread(0)
	opts := halo.SoftwareLookupDefaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.TimedLookup(th, facadeKey(uint64(i)%(3<<12)), opts)
	}
	b.ReportMetric(float64(th.Now)/float64(b.N), "sim-cyc/lookup")
}

func BenchmarkHaloLookupB(b *testing.B) {
	sys := halo.New()
	table := benchTable(b, sys, 1<<14)
	th := sys.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Unit().LookupB(th, table.Base(), facadeKey(uint64(i)%(3<<12)))
	}
	b.ReportMetric(float64(th.Now)/float64(b.N), "sim-cyc/lookup")
}

func BenchmarkHaloLookupNBBatch64(b *testing.B) {
	sys := halo.New()
	table := benchTable(b, sys, 1<<14)
	th := sys.Thread(0)
	queries := make([]halo.NBQuery, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range queries {
			queries[j] = halo.NBQuery{TableAddr: table.Base(), Key: facadeKey(uint64(i*64+j) % (3 << 12))}
		}
		sys.Unit().LookupManyNB(th, queries)
	}
	b.ReportMetric(float64(th.Now)/float64(b.N*64), "sim-cyc/lookup")
}

func BenchmarkCuckooInsert(b *testing.B) {
	sys := halo.New()
	table, err := sys.NewTable(halo.TableConfig{Entries: 1 << 22, KeyLen: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := table.Insert(facadeKey(uint64(i)), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwitchPacketSoftware(b *testing.B) {
	benchSwitch(b, halo.DefaultSwitchConfig())
}

func BenchmarkSwitchPacketHalo(b *testing.B) {
	benchSwitch(b, halo.HaloSwitchConfig())
}

func benchSwitch(b *testing.B, cfg halo.SwitchConfig) {
	b.Helper()
	sys := halo.New()
	sw, err := sys.NewSwitch(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mask := halo.Mask{SrcIPBits: 0, DstIPBits: 0, SrcPortWild: true}
	if err := sw.Mega.InsertRule(mask, halo.FiveTuple{DstPort: 80, Proto: 17},
		halo.Match{RuleID: 1}); err != nil {
		b.Fatal(err)
	}
	sw.Warm()
	th := sys.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := halo.Packet{SrcIP: uint32(i), DstIP: 2, SrcPort: uint16(i), DstPort: 80, Proto: 17}
		sw.ProcessPacket(th, &pkt)
	}
	b.ReportMetric(sw.CyclesPerPacket(), "sim-cyc/pkt")
}

func BenchmarkFlowRegisterObserve(b *testing.B) {
	r := halo.New().Unit().Accelerator(0).FlowRegister()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe(uint64(i) * 0x9e3779b97f4a7c15)
	}
}
