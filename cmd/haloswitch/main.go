// Command haloswitch runs the simulated OVS-style virtual switch over a
// generated traffic workload and prints the per-stage breakdown and
// throughput, with either the software or the HALO classification engine.
//
// Usage:
//
//	haloswitch -flows 100000 -rules 10 -packets 20000 -engine halo
//	haloswitch -compare            # software and halo side by side
//
// -compare runs both engines concurrently on the worker pool, each on its
// own platform with its own identically-seeded traffic source, so the
// reports match what two separate single-engine runs would print.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"halo/internal/cpu"
	ihalo "halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/runner"
	"halo/internal/trafficgen"
	"halo/internal/vswitch"
)

func main() {
	var (
		flows    = flag.Int("flows", 100_000, "number of concurrent flows")
		rules    = flag.Int("rules", 10, "number of wildcard rules (tuples)")
		packets  = flag.Int("packets", 20_000, "packets to forward (after warm-up)")
		engine   = flag.String("engine", "software", "classification engine: software | halo")
		compare  = flag.Bool("compare", false, "run the software and halo engines concurrently and compare")
		openflow = flag.Bool("openflow", false, "enable the OpenFlow slow-path layer (rules install there; megaflows are learned)")
		zipf     = flag.Bool("zipf", false, "zipf flow popularity instead of uniform")
		seed     = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()
	if err := checkFlags(*engine, *flows, *rules, *packets); err != nil {
		fmt.Fprintln(os.Stderr, "haloswitch:", err)
		os.Exit(2)
	}

	pop := trafficgen.Uniform
	if *zipf {
		pop = trafficgen.Zipf
	}
	scn := trafficgen.Scenario{Name: "cli", Flows: *flows, Rules: *rules, Popularity: pop}

	if *compare {
		compareEngines(scn, *seed, *packets, *openflow)
		return
	}

	res := runEngine(*engine, scn, *seed, *packets, *openflow)
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "haloswitch:", res.err)
		os.Exit(1)
	}
	io.WriteString(os.Stdout, res.report)
}

// checkFlags rejects an unknown engine, the values trafficgen.Generate would
// panic on, and a run with no packets to average over, before any work starts.
func checkFlags(engine string, flows, rules, packets int) error {
	if engine != "software" && engine != "halo" {
		return fmt.Errorf("-engine %q: want software or halo", engine)
	}
	if err := (trafficgen.Scenario{Flows: flows, Rules: rules}).Validate(); err != nil {
		return err
	}
	if packets <= 0 {
		return fmt.Errorf("-packets %d: a run needs at least 1 packet", packets)
	}
	return nil
}

// compareEngines runs both engines on the pool and prints each report in
// fixed order plus a head-to-head summary.
func compareEngines(scn trafficgen.Scenario, seed uint64, packets int, openflow bool) {
	engines := []string{"software", "halo"}
	results := runner.Map(0, engines, func(i int, e string) engineResult {
		return runEngine(e, scn, seed, packets, openflow)
	})
	for i, res := range results {
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "haloswitch: %s engine: %v\n", engines[i], res.err)
			os.Exit(1)
		}
		io.WriteString(os.Stdout, res.report)
		fmt.Println()
	}
	sw := results[0].cpp
	tb := metrics.NewTable("engine comparison", "engine", "cycles/pkt", "Mpps @2.1GHz", "speedup vs software")
	for i, res := range results {
		tb.AddRow(engines[i], res.cpp, metrics.Mpps(res.cpp, 2.1), fmt.Sprintf("%.2fx", sw/res.cpp))
	}
	tb.Render(os.Stdout)
}

type engineResult struct {
	report string
	cpp    float64
	err    error
}

// runEngine executes one full switch simulation on its own platform and
// its own generated workload, and returns the rendered report. It is
// self-contained so the compare path can run engines on separate goroutines.
// engine is "software" or "halo" (checkFlags).
func runEngine(engine string, scn trafficgen.Scenario, seed uint64, packets int, openflow bool) engineResult {
	cfg := vswitch.DefaultConfig()
	if engine == "halo" {
		cfg.Engine = vswitch.EngineHalo
	}
	cfg.OpenFlow = openflow

	p := ihalo.NewPlatform(ihalo.DefaultPlatformConfig())
	sw, err := vswitch.New(p, cfg)
	if err != nil {
		return engineResult{err: err}
	}
	w := trafficgen.Generate(scn, seed)
	if err := w.InstallRules(sw.RuleLayer()); err != nil {
		return engineResult{err: err}
	}
	sw.Warm()
	th := cpu.NewThread(p.Hier, 0)

	for i := 0; i < packets/2; i++ { // warm-up pass
		pkt, _ := w.NextPacket()
		sw.ProcessPacket(th, &pkt)
	}
	sw.ResetStats()
	th.ResetCounts() // latency histograms cover the measured window only
	for i := 0; i < packets; i++ {
		pkt, _ := w.NextPacket()
		if _, ok := sw.ProcessPacket(th, &pkt); !ok {
			return engineResult{err: fmt.Errorf("unclassified packet (rule generation bug)")}
		}
	}

	var out strings.Builder
	b := sw.Breakdown()
	tb := metrics.NewTable(fmt.Sprintf("virtual switch, %s engine", engine),
		"stage", "cycles/pkt", "share")
	for s := vswitch.StagePacketIO; s <= vswitch.StageOther; s++ {
		tb.AddRow(s.String(), float64(b[s])/float64(sw.Packets()),
			metrics.Percent(float64(b[s])/float64(b.Total())))
	}
	tb.Render(&out)

	cpp := sw.CyclesPerPacket()
	hits, misses := sw.MegaStats()
	fmt.Fprintf(&out, "packets:             %d\n", sw.Packets())
	fmt.Fprintf(&out, "cycles/packet:       %.1f\n", cpp)
	fmt.Fprintf(&out, "throughput:          %.2f Mpps @ 2.1 GHz (single core)\n", metrics.Mpps(cpp, 2.1))
	fmt.Fprintf(&out, "classification:      %s of packet cost\n", metrics.Percent(b.ClassificationShare()))
	fmt.Fprintf(&out, "emc hit rate:        %s\n", metrics.Percent(sw.EMC.HitRate()))
	fmt.Fprintf(&out, "megaflow hits/miss:  %d/%d\n", hits, misses)
	if cfg.OpenFlow {
		fmt.Fprintf(&out, "openflow hits:       %d (megaflows learned: %d)\n", sw.OpenFlowHits(), sw.Mega.RuleCount())
	}
	if h := th.Hist("lat.packet"); h != nil {
		fmt.Fprintf(&out, "packet latency:      %s\n", metrics.Quantiles(h.Quantile))
	}
	// Per-engine lookup latency histograms.
	for _, lh := range []struct{ name, label string }{
		{"lat.lookup.software", "software lookups"},
		{"lat.lookup.accel", "accel lookups"},
	} {
		if h := th.Hist(lh.name); h != nil {
			fmt.Fprintf(&out, "%-21s%s (n=%d, mean %.1f)\n", lh.label+":", metrics.Quantiles(h.Quantile), h.Count(), h.Mean())
		}
	}
	if cfg.Engine == vswitch.EngineHalo {
		s := p.Unit.Stats()
		fmt.Fprintf(&out, "halo queries:        %d (hit rate %s, meta-cache hits %d)\n",
			s.Queries, metrics.Percent(float64(s.Hits)/float64(s.Queries)), s.MetaHits)
	}
	return engineResult{report: out.String(), cpp: cpp}
}
