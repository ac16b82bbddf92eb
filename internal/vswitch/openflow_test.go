package vswitch

import (
	"testing"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/trafficgen"
)

func newOpenFlowSwitch(t *testing.T, scn trafficgen.Scenario) (*Switch, *trafficgen.Workload, *cpu.Thread) {
	t.Helper()
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	cfg := DefaultConfig()
	cfg.OpenFlow = true
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

func TestOpenFlowRulesInstallIntoSlowPath(t *testing.T) {
	sw, _, _ := newOpenFlowSwitch(t, smallScenario)
	if sw.Open == nil {
		t.Fatal("OpenFlow layer missing")
	}
	if sw.Open.RuleCount() == 0 {
		t.Fatal("rules did not install into the OpenFlow layer")
	}
	if sw.Mega.RuleCount() != 0 {
		t.Fatal("MegaFlow layer must start empty and learn")
	}
}

func TestOpenFlowClassifiesAndLearnsMegaflows(t *testing.T) {
	sw, w, th := newOpenFlowSwitch(t, smallScenario)
	// Every packet still classifies correctly, via the slow path at first.
	for i := 0; i < 2000; i++ {
		pkt, fi := w.NextPacket()
		m, ok := sw.ProcessPacket(th, &pkt)
		if !ok {
			t.Fatalf("packet %d unclassified", i)
		}
		if int(m.RuleID) != w.FlowRule[fi]+1 {
			t.Fatalf("packet %d matched rule %d, want %d", i, m.RuleID, w.FlowRule[fi]+1)
		}
	}
	if sw.OpenFlowHits() == 0 {
		t.Fatal("slow path never consulted")
	}
	// Megaflows were generated: the fast layer now holds learned rules and
	// absorbs most traffic.
	if sw.Mega.RuleCount() == 0 {
		t.Fatal("no megaflows learned from OpenFlow results")
	}
	hits, _ := sw.MegaStats()
	if hits == 0 {
		t.Fatal("learned megaflows never hit")
	}
	// Steady state: the slow path goes quiet ("seldom accessed", §3.1).
	before := sw.OpenFlowHits()
	for i := 0; i < 2000; i++ {
		pkt, _ := w.NextPacket()
		sw.ProcessPacket(th, &pkt)
	}
	after := sw.OpenFlowHits()
	if float64(after-before) > 100 {
		t.Fatalf("slow path still hot in steady state: %d hits in 2000 packets", after-before)
	}
	if sw.Breakdown()[StageOpenFlow] == 0 {
		t.Fatal("OpenFlow stage charged no cycles")
	}
}
