package experiments

import (
	"io"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/metrics"
	"halo/internal/stats"
	"halo/internal/trafficgen"
	"halo/internal/vswitch"
)

// Fig3Row is one traffic configuration's packet-processing breakdown.
type Fig3Row struct {
	Scenario            string
	CyclesPerPacket     float64
	StageShare          [6]float64 // indexed by vswitch.Stage
	ClassificationShare float64
}

// Fig3Result is the reproduced Fig. 3: the per-stage cycle breakdown of
// software packet processing across the five traffic configurations.
type Fig3Result struct {
	Rows  []Fig3Row
	Table *metrics.Table
}

// fig3Scenarios returns the traffic configurations of the sweep under cfg.
func fig3Scenarios(cfg Config) []trafficgen.Scenario {
	scenarios := trafficgen.PaperScenarios()
	if cfg.Quick {
		for i := range scenarios {
			if scenarios[i].Flows > 200_000 {
				scenarios[i].Flows = 200_000
			}
		}
	}
	return scenarios
}

// fig3 is one cell per traffic configuration.
var fig3 = experiment[trafficgen.Scenario, Fig3Row, *Fig3Result]{
	id:       "fig3",
	cells:    fig3Scenarios,
	label:    func(s trafficgen.Scenario) string { return s.Name },
	run:      runFig3Scenario,
	assemble: assembleFig3,
	render:   func(r *Fig3Result, w io.Writer) { r.Table.Render(w) },
}

// runFig3Scenario measures one traffic configuration on a fresh platform.
func runFig3Scenario(cfg Config, _ int, scn trafficgen.Scenario, snap *stats.Snapshot) Fig3Row {
	packets := pickSize(cfg, 3000, 20000)
	warmup := pickSize(cfg, 1000, 10000) // §5.2: warm up before measuring

	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	// The OpenFlow layer is disabled here, as in the paper's analysis
	// ("seldom accessed in practice", §3.1): rules install directly as
	// megaflows.
	sw, err := vswitch.New(p, vswitch.DefaultConfig())
	if err != nil {
		panic(err)
	}
	w := trafficgen.Generate(scn, cfg.Seed)
	if err := w.InstallRules(sw.RuleLayer()); err != nil {
		panic(err)
	}
	sw.Warm()
	th := cpu.NewThread(p.Hier, 0)
	for i := 0; i < warmup; i++ {
		pkt, _ := w.NextPacket()
		sw.ProcessPacket(th, &pkt)
	}
	sw.ResetStats()
	for i := 0; i < packets; i++ {
		pkt, _ := w.NextPacket()
		sw.ProcessPacket(th, &pkt)
	}

	collectInto(snap, p, sw, th)

	b := sw.Breakdown()
	total := float64(b.Total())
	row := Fig3Row{
		Scenario:            scn.Name,
		CyclesPerPacket:     sw.CyclesPerPacket(),
		ClassificationShare: b.ClassificationShare(),
	}
	for s := 0; s < len(row.StageShare); s++ {
		row.StageShare[s] = float64(b[s]) / total
	}
	return row
}

func assembleFig3(_ Config, _ []trafficgen.Scenario, rows []Fig3Row) *Fig3Result {
	res := &Fig3Result{
		Table: metrics.NewTable("Figure 3: packet-processing breakdown (software OVS datapath)",
			"scenario", "cyc/pkt", "pkt-io", "preproc", "emc", "megaflow", "other", "classification"),
	}
	res.Table.SetCaption("paper: 340-993 cyc/pkt, classification 30.9%%-77.8%%")
	res.Rows = rows
	for _, row := range rows {
		res.Table.AddRow(row.Scenario, row.CyclesPerPacket,
			metrics.Percent(row.StageShare[vswitch.StagePacketIO]),
			metrics.Percent(row.StageShare[vswitch.StagePreProc]),
			metrics.Percent(row.StageShare[vswitch.StageEMC]),
			metrics.Percent(row.StageShare[vswitch.StageMegaFlow]),
			metrics.Percent(row.StageShare[vswitch.StageOther]),
			metrics.Percent(row.ClassificationShare))
	}
	return res
}
