package experiments

import (
	"fmt"
	"io"

	"halo/internal/cache"
	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/nf"
	"halo/internal/packet"
	"halo/internal/stats"
	"halo/internal/trafficgen"
	"halo/internal/vswitch"
)

// Fig12Point is one (NF, flow count, switch engine) collocation result.
type Fig12Point struct {
	NF             string
	SwitchFlows    int
	Engine         string // "software" or "halo"
	ThroughputDrop float64
	L1MissAlone    float64
	L1MissCoRun    float64
}

// Fig12Result reproduces Fig. 12: the throughput drop and L1D miss-rate
// increase network functions suffer when collocated (hyper-threaded) with
// the virtual switch, with and without HALO.
type Fig12Result struct {
	Points []Fig12Point
	Table  *metrics.Table
}

// fig12Cell is one (NF, switch flow count) coordinate; both engines run
// within the point so they share the NF-alone baseline measurement.
type fig12Cell struct {
	nf    string
	flows int
}

// fig12Pair is one point's result: the same cell measured with the
// software and the HALO switch engine.
type fig12Pair struct {
	Software Fig12Point
	Halo     Fig12Point
}

func fig12Cells(cfg Config) []fig12Cell {
	flowCounts := []int{1_000, 100_000, 1_000_000}
	if cfg.Quick {
		flowCounts = []int{1_000, 100_000}
	}
	var cells []fig12Cell
	for _, nfName := range []string{"acl", "snortlite", "mtcplite"} {
		for _, flows := range flowCounts {
			cells = append(cells, fig12Cell{nfName, flows})
		}
	}
	return cells
}

// fig12 is one cell per (NF, flow count).
var fig12 = experiment[fig12Cell, fig12Pair, *Fig12Result]{
	id:       "fig12",
	cells:    fig12Cells,
	label:    func(c fig12Cell) string { return fmt.Sprintf("%s/%d-flows", c.nf, c.flows) },
	run:      runFig12Cell,
	assemble: assembleFig12,
	render:   func(r *Fig12Result, w io.Writer) { r.Table.Render(w) },
}

// RunFig12 reproduces Fig. 12.
func RunFig12(cfg Config) *Fig12Result {
	return fig12.fromRows(cfg, runSerial(cfg, fig12.sweep()))
}

func runFig12Cell(cfg Config, _ int, c fig12Cell, snap *stats.Snapshot) fig12Pair {
	nfPackets := pickSize(cfg, 1200, 6000)
	aloneCPP, aloneMiss := runFig12Alone(c.nf, nfPackets, cfg.Seed)
	var pair fig12Pair
	for _, engine := range []vswitch.Engine{vswitch.EngineSoftware, vswitch.EngineHalo} {
		// Snapshot the HALO co-run — the configuration under study.
		var engineSnap *stats.Snapshot
		if engine == vswitch.EngineHalo {
			engineSnap = snap
		}
		coCPP, coMiss := runFig12CoRun(c.nf, engine, c.flows, nfPackets, cfg.Seed, engineSnap)
		drop := 1 - aloneCPP/coCPP
		if drop < 0 {
			drop = 0
		}
		pt := Fig12Point{
			NF: c.nf, SwitchFlows: c.flows,
			ThroughputDrop: drop,
			L1MissAlone:    aloneMiss,
			L1MissCoRun:    coMiss,
		}
		if engine == vswitch.EngineHalo {
			pt.Engine = "halo"
			pair.Halo = pt
		} else {
			pt.Engine = "software"
			pair.Software = pt
		}
	}
	return pair
}

func assembleFig12(_ Config, _ []fig12Cell, rows []fig12Pair) *Fig12Result {
	res := &Fig12Result{
		Table: metrics.NewTable("Figure 12: collocated NF interference (hyper-threaded core sharing)",
			"nf", "switch-flows", "engine", "throughput-drop", "L1D-miss alone", "L1D-miss co-run"),
	}
	res.Table.SetCaption("paper: NFs drop 17-26%% with the software switch, <=3.2%% with HALO")
	for _, pair := range rows {
		for _, pt := range []Fig12Point{pair.Software, pair.Halo} {
			res.Points = append(res.Points, pt)
			res.Table.AddRow(pt.NF, pt.SwitchFlows, pt.Engine, metrics.Percent(pt.ThroughputDrop),
				metrics.Percent(pt.L1MissAlone), metrics.Percent(pt.L1MissCoRun))
		}
	}
	return res
}

// Point fetches a collocation measurement.
func (r *Fig12Result) Point(nfName string, flows int, engine string) (Fig12Point, bool) {
	for _, pt := range r.Points {
		if pt.NF == nfName && pt.SwitchFlows == flows && pt.Engine == engine {
			return pt, true
		}
	}
	return Fig12Point{}, false
}

func buildFig12NF(p *halo.Platform, name string) nf.NF {
	switch name {
	case "acl":
		a, err := nf.NewACL(p, nf.DefaultRules(), 128)
		if err != nil {
			panic(err)
		}
		return a
	case "snortlite":
		s, err := nf.NewSnortLite(p, nf.DefaultPatterns())
		if err != nil {
			panic(err)
		}
		return s
	case "mtcplite":
		m, err := nf.NewMTCPLite(p, 1<<14)
		if err != nil {
			panic(err)
		}
		return m
	}
	panic(fmt.Sprintf("unknown NF %q", name))
}

// nfTraffic generates the NF-side packet stream (TCP flows with payloads,
// distinct from switch traffic).
func nfTraffic(seed uint64) *trafficgen.Workload {
	w := trafficgen.Generate(trafficgen.Scenario{
		Name: "nf-side", Flows: 4000, Rules: 1, Popularity: trafficgen.Zipf,
	}, seed+77)
	return w
}

func nfPacketFrom(w *trafficgen.Workload) packet.Packet {
	pkt, _ := w.NextPacket()
	pkt.Proto = packet.ProtoTCP // the NFs under test want TCP
	pkt.PayloadBytes = 128
	return pkt
}

func runFig12Alone(nfName string, packets int, seed uint64) (cpp, l1Miss float64) {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	n := buildFig12NF(p, nfName)
	w := nfTraffic(seed)
	th := cpu.NewThread(p.Hier, 0)
	for i := 0; i < packets/2; i++ { // warm
		pkt := nfPacketFrom(w)
		n.ProcessPacket(th, &pkt)
	}
	th.ResetCounts()
	start := th.Now
	for i := 0; i < packets; i++ {
		pkt := nfPacketFrom(w)
		n.ProcessPacket(th, &pkt)
	}
	return float64(th.Now-start) / float64(packets), th.MissRatio(cache.InL2)
}

func runFig12CoRun(nfName string, engine vswitch.Engine, flows, packets int, seed uint64, snap *stats.Snapshot) (cpp, l1Miss float64) {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	n := buildFig12NF(p, nfName)

	swCfg := vswitch.DefaultConfig()
	swCfg.Engine = engine
	sw, err := vswitch.New(p, swCfg)
	if err != nil {
		panic(err)
	}
	swWorkload := trafficgen.Generate(trafficgen.Scenario{
		Name: "switch-side", Flows: flows, Rules: 10, Popularity: trafficgen.Uniform,
	}, seed)
	if err := swWorkload.InstallRules(sw.Mega); err != nil {
		panic(err)
	}
	sw.Warm()

	w := nfTraffic(seed)
	// Both threads run on core 0 — the two hyper-threads share L1/L2.
	nfTh := cpu.NewThread(p.Hier, 0)
	swTh := cpu.NewThread(p.Hier, 0)

	// The hyper-threads run concurrently: the NF's cost is the sum of its
	// own per-packet processing times (inflated by the cache pollution the
	// sibling thread causes), NOT the union of both threads' time. Clocks
	// are re-synchronised between packets so the shared LLC ports and DRAM
	// banks see coherent timestamps from both threads.
	var nfCycles uint64
	step := func(measure bool) {
		// The NF packet runs first within each step so its LLC-port and
		// DRAM-bank claims are never queued behind timestamps the sibling
		// placed in this step (the threads are concurrent in reality; the
		// interference under study is cache-state pollution).
		pkt := nfPacketFrom(w)
		t0 := nfTh.Now
		n.ProcessPacket(nfTh, &pkt)
		if measure {
			nfCycles += uint64(nfTh.Now - t0)
		}
		// The switch forwards a small burst per NF packet, reflecting the
		// virtual switch's higher packet rate.
		for b := 0; b < 2; b++ {
			spkt, _ := swWorkload.NextPacket()
			sw.ProcessPacket(swTh, &spkt)
		}
		// Couple the sibling clocks (the jump is not NF processing time).
		if swTh.Now > nfTh.Now {
			nfTh.WaitUntil(swTh.Now)
		} else {
			swTh.WaitUntil(nfTh.Now)
		}
	}
	for i := 0; i < packets/2; i++ { // warm
		step(false)
	}
	nfTh.ResetCounts()
	for i := 0; i < packets; i++ {
		step(true)
	}
	collectInto(snap, p, sw, nfTh, swTh)
	return float64(nfCycles) / float64(packets), nfTh.MissRatio(cache.InL2)
}
