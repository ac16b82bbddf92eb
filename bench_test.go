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

// BenchmarkExperiment runs each registry experiment at quick scale, serially,
// as one sub-benchmark per ID. Wall-clock ns/op measures the simulator
// itself; the simulated results are pinned byte for byte by
// halobench_output.txt and the quick goldens, not reported here.
func BenchmarkExperiment(b *testing.B) {
	cfg := experiments.QuickConfig()
	for _, r := range experiments.Registry() {
		b.Run(r.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(cfg, io.Discard)
			}
		})
	}
}

// BenchmarkFig9SingleLookup runs Fig. 9's sweep point by point, as the
// runner does, and reports HALO's throughput over software's at 2^17
// entries, 75 % full: the paper's LLC-resident headline.
func BenchmarkFig9SingleLookup(b *testing.B) {
	r, ok := experiments.Find("fig9")
	if !ok {
		b.Fatal("fig9 is not in the registry")
	}
	cfg := experiments.QuickConfig()
	cycles := map[string]float64{} // cycles per lookup, by point label
	for i := 0; i < b.N; i++ {
		for _, p := range r.Sweep.Points(cfg) {
			row, _ := r.Sweep.RunPoint(cfg, p)
			cycles[p.Label] = row.(float64)
		}
	}
	at := func(mode experiments.Fig9Mode) float64 {
		label := string(mode) + "/131072-entries/75%"
		c, ok := cycles[label]
		if !ok {
			b.Fatalf("fig9 has no point %s", label)
		}
		return c
	}
	software := at(experiments.ModeSoftware)
	b.ReportMetric(software/at(experiments.ModeHaloB), "sim-haloB-speedup")
	b.ReportMetric(software/at(experiments.ModeHaloNB), "sim-haloNB-speedup")
}

// Full-suite benchmarks: the serial path against the worker pool at
// several widths. On a multi-core box the pooled variants show the
// wall-clock win of sharding sweep points; on one core they bound the
// pool's overhead.

func BenchmarkRunAllSerial(b *testing.B) {
	cfg := experiments.QuickConfig()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Registry() {
			r.Run(cfg, io.Discard)
		}
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
