package vswitch

import (
	"testing"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/trafficgen"
)

func newSwitch(t *testing.T, engine Engine, scn trafficgen.Scenario) (*Switch, *trafficgen.Workload, *cpu.Thread) {
	t.Helper()
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	cfg := DefaultConfig()
	cfg.Engine = engine
	sw, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := trafficgen.Generate(scn, 99)
	if err := w.InstallRules(sw.RuleLayer()); err != nil {
		t.Fatal(err)
	}
	sw.Warm()
	return sw, w, cpu.NewThread(p.Hier, 0)
}

var smallScenario = trafficgen.Scenario{
	Name: "test-small", Flows: 2000, Rules: 4, Popularity: trafficgen.Uniform,
}

func TestEveryPacketClassified(t *testing.T) {
	sw, w, th := newSwitch(t, EngineSoftware, smallScenario)
	for i := 0; i < 3000; i++ {
		pkt, fi := w.NextPacket()
		m, ok := sw.ProcessPacket(th, &pkt)
		if !ok {
			t.Fatalf("packet %d (flow %d) unclassified", i, fi)
		}
		if int(m.RuleID) != w.FlowRule[fi]+1 {
			t.Fatalf("packet %d matched rule %d, want %d", i, m.RuleID, w.FlowRule[fi]+1)
		}
	}
	if sw.Packets() != 3000 {
		t.Fatalf("packet count = %d", sw.Packets())
	}
}

func TestHaloEngineClassifiesIdentically(t *testing.T) {
	swS, wS, thS := newSwitch(t, EngineSoftware, smallScenario)
	swH, wH, thH := newSwitch(t, EngineHalo, smallScenario)
	for i := 0; i < 2000; i++ {
		pktS, _ := wS.NextPacket()
		pktH, _ := wH.NextPacket()
		mS, okS := swS.ProcessPacket(thS, &pktS)
		mH, okH := swH.ProcessPacket(thH, &pktH)
		if okS != okH || mS != mH {
			t.Fatalf("engines diverged on packet %d: (%+v,%v) vs (%+v,%v)", i, mS, okS, mH, okH)
		}
	}
}

func TestEMCConvergesOnSmallFlowCount(t *testing.T) {
	// 200 flows fit the 8K EMC; at OVS's 1-in-100 learning the EMC absorbs
	// the working set within the first pass of packets and the MegaFlow
	// layer goes quiet.
	scn := trafficgen.Scenario{Name: "test-tiny", Flows: 200, Rules: 4, Popularity: trafficgen.Uniform}
	sw, w, th := newSwitch(t, EngineSoftware, scn)
	const converge, window = 100_000, 20_000
	for i := 0; i < converge; i++ {
		pkt, _ := w.NextPacket()
		sw.ProcessPacket(th, &pkt)
	}
	hits0, misses0 := sw.MegaStats()
	for i := 0; i < window; i++ {
		pkt, _ := w.NextPacket()
		sw.ProcessPacket(th, &pkt)
	}
	if sw.EMC.HitRate() < 0.7 {
		t.Fatalf("EMC hit rate %.2f after convergence window", sw.EMC.HitRate())
	}
	hits, misses := sw.MegaStats()
	if hits == 0 {
		t.Fatalf("megaflow never consulted (hits=%d misses=%d)", hits, misses)
	}
	if consults := hits + misses - hits0 - misses0; consults > window/100 {
		t.Fatalf("megaflow consulted %d times in the last %d packets; the EMC did not absorb %d flows",
			consults, window, scn.Flows)
	}
}

func TestBreakdownStagesAllPresent(t *testing.T) {
	sw, w, th := newSwitch(t, EngineSoftware, smallScenario)
	for i := 0; i < 2000; i++ {
		pkt, _ := w.NextPacket()
		sw.ProcessPacket(th, &pkt)
	}
	b := sw.Breakdown()
	for s := StagePacketIO; s <= StageOther; s++ {
		if s == StageOpenFlow {
			continue // disabled in the default configuration
		}
		if b[s] == 0 {
			t.Fatalf("stage %v charged no cycles: %+v", s, b)
		}
	}
	if b.Total() == 0 || sw.CyclesPerPacket() < 100 {
		t.Fatalf("implausible per-packet cost %.0f", sw.CyclesPerPacket())
	}
}

func TestClassificationShareGrowsWithFlows(t *testing.T) {
	// The §3.2 observation: more flows and rules → classification
	// dominates. Compare a small scenario against a large one.
	run := func(scn trafficgen.Scenario) float64 {
		sw, w, th := newSwitch(t, EngineSoftware, scn)
		for i := 0; i < 4000; i++ {
			pkt, _ := w.NextPacket()
			sw.ProcessPacket(th, &pkt)
		}
		return sw.Breakdown().ClassificationShare()
	}
	small := run(trafficgen.Scenario{Name: "s", Flows: 3000, Rules: 1, Popularity: trafficgen.Zipf})
	large := run(trafficgen.Scenario{Name: "l", Flows: 200_000, Rules: 20, Popularity: trafficgen.Uniform})
	if large <= small {
		t.Fatalf("classification share small=%.2f large=%.2f; must grow", small, large)
	}
	if large < 0.4 {
		t.Fatalf("large-scenario classification share %.2f; paper sees up to 0.78", large)
	}
}

func TestHaloEngineFasterUnderMegaFlowLoad(t *testing.T) {
	scn := trafficgen.Scenario{Name: "l", Flows: 150_000, Rules: 15, Popularity: trafficgen.Uniform}
	run := func(engine Engine) float64 {
		sw, w, th := newSwitch(t, engine, scn)
		for i := 0; i < 1500; i++ { // warm
			pkt, _ := w.NextPacket()
			sw.ProcessPacket(th, &pkt)
		}
		sw.ResetStats()
		for i := 0; i < 3000; i++ {
			pkt, _ := w.NextPacket()
			sw.ProcessPacket(th, &pkt)
		}
		return sw.CyclesPerPacket()
	}
	sw := run(EngineSoftware)
	hw := run(EngineHalo)
	if hw >= sw {
		t.Fatalf("HALO engine (%.0f cyc/pkt) not faster than software (%.0f)", hw, sw)
	}
}

func TestResetStats(t *testing.T) {
	sw, w, th := newSwitch(t, EngineSoftware, smallScenario)
	pkt, _ := w.NextPacket()
	sw.ProcessPacket(th, &pkt)
	sw.ResetStats()
	if sw.Packets() != 0 || sw.Breakdown().Total() != 0 {
		t.Fatal("ResetStats left state")
	}
}

func TestMegaFlowMissCounted(t *testing.T) {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	sw, err := New(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	th := cpu.NewThread(p.Hier, 0)
	// No rules installed: every packet misses both layers.
	w := trafficgen.Generate(smallScenario, 1)
	pkt, _ := w.NextPacket()
	if _, ok := sw.ProcessPacket(th, &pkt); ok {
		t.Fatal("packet classified with no rules installed")
	}
	if _, misses := sw.MegaStats(); misses != 1 {
		t.Fatalf("megaflow misses = %d", misses)
	}
}
