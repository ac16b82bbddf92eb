package vswitch

import (
	"testing"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/trafficgen"
)

func TestHybridEngineClassifiesIdentically(t *testing.T) {
	swS, wS, thS := newSwitch(t, EngineSoftware, smallScenario)
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	cfg := DefaultConfig()
	cfg.Engine = EngineHybrid
	swH, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wH := trafficgen.Generate(smallScenario, 99)
	if err := wH.InstallRules(swH.RuleLayer()); err != nil {
		t.Fatal(err)
	}
	swH.Warm()
	thH := cpu.NewThread(p.Hier, 0)
	for i := 0; i < 1500; i++ {
		pktS, _ := wS.NextPacket()
		pktH, _ := wH.NextPacket()
		mS, okS := swS.ProcessPacket(thS, &pktS)
		mH, okH := swH.ProcessPacket(thH, &pktH)
		if okS != okH || mS != mH {
			t.Fatalf("hybrid diverged from software on packet %d", i)
		}
	}
	if _, ok := swH.HybridMode(); !ok {
		t.Fatal("hybrid switch does not report a mode")
	}
	if _, ok := swS.HybridMode(); ok {
		t.Fatal("software switch reports a hybrid mode")
	}
}

func TestHybridEngineSwitchesToSoftwareOnTinyFlowSet(t *testing.T) {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	cfg := DefaultConfig()
	cfg.Engine = EngineHybrid
	cfg.EMCInsertProb = 1 // learn eagerly so the EMC absorbs the tiny set
	sw, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scn := trafficgen.Scenario{Name: "tiny", Flows: 8, Rules: 1, Popularity: trafficgen.Uniform}
	w := trafficgen.Generate(scn, 5)
	if err := w.InstallRules(sw.RuleLayer()); err != nil {
		t.Fatal(err)
	}
	sw.Warm()
	th := cpu.NewThread(p.Hier, 0)
	for i := 0; i < 60000; i++ {
		pkt, _ := w.NextPacket()
		if _, ok := sw.ProcessPacket(th, &pkt); !ok {
			t.Fatalf("packet %d unclassified", i)
		}
	}
	if mode, _ := sw.HybridMode(); mode != halo.ModeSoftware {
		t.Fatalf("hybrid mode = %v with 8 active flows; paper switches to software below 64", mode)
	}
}
