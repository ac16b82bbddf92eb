package experiments

import (
	"fmt"
	"io"

	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/nf"
	"halo/internal/packet"
	"halo/internal/sim"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

// Fig13Point is one (NF, table size) speedup measurement.
type Fig13Point struct {
	NF      string
	Entries uint64
	SWCpp   float64
	HaloCpp float64
	Speedup float64
}

// Fig13Result reproduces Fig. 13: the throughput improvement of hash-table
// network functions (NAT, prads, packet filter) with HALO lookups.
type Fig13Result struct {
	Points []Fig13Point
	Table  *metrics.Table
}

// fig13Cell is one (NF, table size) coordinate; both engines run within
// the point to produce its speedup row.
type fig13Cell struct {
	name string
	size uint64
}

func fig13Cells(cfg Config) []fig13Cell {
	sizes := []uint64{1_000, 10_000, 100_000}
	if cfg.Quick {
		sizes = []uint64{1_000, 100_000}
	}
	var cells []fig13Cell
	for _, name := range []string{"nat", "prads", "packet-filter"} {
		for _, size := range sizes {
			cells = append(cells, fig13Cell{name, size})
		}
	}
	return cells
}

// fig13 is one cell per (NF, table size).
var fig13 = experiment[fig13Cell, Fig13Point, *Fig13Result]{
	id:    "fig13",
	cells: fig13Cells,
	label: func(c fig13Cell) string { return fmt.Sprintf("%s/%d-entries", c.name, c.size) },
	run: func(cfg Config, _ int, c fig13Cell, snap *stats.Snapshot) Fig13Point {
		packets := pickSize(cfg, 1500, 8000)
		// The HALO run — the configuration under study — is snapshotted.
		sw := runFig13Point(cfg, c.name, nf.EngineSoftware, c.size, packets, nil)
		hw := runFig13Point(cfg, c.name, nf.EngineHalo, c.size, packets, snap)
		return Fig13Point{NF: c.name, Entries: c.size, SWCpp: sw, HaloCpp: hw, Speedup: sw / hw}
	},
	assemble: assembleFig13,
	render:   func(r *Fig13Result, w io.Writer) { r.Table.Render(w) },
}

func assembleFig13(_ Config, _ []fig13Cell, rows []Fig13Point) *Fig13Result {
	res := &Fig13Result{
		Table: metrics.NewTable("Figure 13: hash-table NF throughput with HALO",
			"nf", "entries", "software cyc/pkt", "halo cyc/pkt", "speedup"),
	}
	res.Table.SetCaption("paper: 2.3-2.7x across NAT, prads and the packet filter")
	res.Points = rows
	for _, pt := range rows {
		res.Table.AddRow(pt.NF, pt.Entries, pt.SWCpp, pt.HaloCpp, fmt.Sprintf("%.2fx", pt.Speedup))
	}
	return res
}

// Point fetches a measurement.
func (r *Fig13Result) Point(name string, entries uint64) (Fig13Point, bool) {
	for _, pt := range r.Points {
		if pt.NF == name && pt.Entries == entries {
			return pt, true
		}
	}
	return Fig13Point{}, false
}

// tableNF is a hash-table NF as Fig. 13 uses one: nf.NAT, nf.Prads or
// nf.Filter.
type tableNF interface {
	Table() *cuckoo.Table
	Clone(engine nf.Engine) (*halo.Platform, nf.NF)
}

// fig13NF is one NF with its table preloaded and warmed, on its own
// platform, and the flows it was loaded with: the set-up both engines of a
// cell share. Its NF was built for the software engine, but only its clones
// run.
type fig13NF struct {
	p     *halo.Platform
	nf    tableNF
	flows []packet.FiveTuple
}

func (s *fig13NF) platform() *halo.Platform { return s.p }

// fig13NFKey names a shared NF set-up.
type fig13NFKey struct {
	name    string
	entries uint64
	seed    uint64
}

// sharedFig13NF returns the run's prototype of the named NF preloaded with
// entries flows. The preload fills the table with its warm-up beside it
// (warmBeside).
func sharedFig13NF(cfg Config, name string, entries uint64) *fig13NF {
	return shared(cfg, fig13NFKey{name, entries, cfg.Seed}, func() *fig13NF {
		p := halo.NewPlatform(halo.DefaultPlatformConfig())
		// Capacity above the preloaded population so misses stay rare.
		capEntries := entries * 4 / 3
		flows := trafficgen.RandomTuples(int(entries), cfg.Seed)
		var (
			n       tableNF
			err     error
			preload func() error
		)
		switch name {
		case "nat":
			var nat *nf.NAT
			nat, err = nf.NewNAT(p, nf.EngineSoftware, capEntries)
			n, preload = nat, func() error { return nat.Preload(flows) }
		case "prads":
			var pr *nf.Prads
			pr, err = nf.NewPrads(p, nf.EngineSoftware, capEntries)
			hosts := make([]uint32, len(flows))
			for i, f := range flows {
				hosts[i] = f.SrcIP
			}
			n, preload = pr, func() error { return pr.Preload(hosts) }
		case "packet-filter":
			var f *nf.Filter
			f, err = nf.NewFilter(p, nf.EngineSoftware, capEntries)
			n, preload = f, func() error { return f.Preload(flows, func(i int) bool { return i%3 == 0 }) }
		default:
			panic("unknown NF " + name)
		}
		if err != nil {
			panic(err)
		}
		warmBeside(p, n.Table(), func() { err = preload() })
		if err != nil {
			panic(err)
		}
		return &fig13NF{p: p, nf: n, flows: flows}
	})
}

func runFig13Point(cfg Config, name string, engine nf.Engine, entries uint64, packets int, snap *stats.Snapshot) float64 {
	proto := sharedFig13NF(cfg, name, entries)
	p, theNF := proto.nf.Clone(engine)
	flows := proto.flows

	th := newThreadOn(p)
	rng := sim.NewRand(cfg.Seed ^ 0xf13)
	next := func() packet.Packet {
		f := flows[rng.Intn(len(flows))]
		return packet.Packet{
			SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort,
			Proto: f.Proto, PayloadBytes: 22,
		}
	}
	for i := 0; i < packets/2; i++ { // warm
		pkt := next()
		theNF.ProcessPacket(th, &pkt)
	}
	start := th.Now
	for i := 0; i < packets; i++ {
		pkt := next()
		theNF.ProcessPacket(th, &pkt)
	}
	collectInto(snap, p, th)
	return float64(th.Now-start) / float64(packets)
}
