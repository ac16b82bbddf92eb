package experiments

import (
	"strings"
	"testing"
)

// The experiment tests assert the paper's qualitative results — who wins, in
// which regime, and roughly by how much — at quick scale, on each
// experiment's first QuickConfig pass (quickResult), which the determinism
// test shares. Absolute paper numbers are recorded in EXPERIMENTS.md.

func TestFig3BreakdownShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig3)
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows, want 5 traffic configurations", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	// Paper: 340-993 cyc/pkt, growing with flows and rules.
	if first.CyclesPerPacket < 200 || first.CyclesPerPacket > 500 {
		t.Errorf("smallest scenario = %.0f cyc/pkt, paper ~340", first.CyclesPerPacket)
	}
	if last.CyclesPerPacket < 700 || last.CyclesPerPacket > 1400 {
		t.Errorf("largest scenario = %.0f cyc/pkt, paper ~993", last.CyclesPerPacket)
	}
	if last.CyclesPerPacket <= first.CyclesPerPacket {
		t.Error("per-packet cost must grow with flows and rules")
	}
	// Paper: classification share 30.9% → 77.8%.
	if first.ClassificationShare < 0.2 || first.ClassificationShare > 0.55 {
		t.Errorf("small-scenario classification share = %.2f, paper ~0.31-0.40", first.ClassificationShare)
	}
	if last.ClassificationShare < 0.6 || last.ClassificationShare > 0.9 {
		t.Errorf("large-scenario classification share = %.2f, paper ~0.78", last.ClassificationShare)
	}
	// The growth is monotone across scenarios.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ClassificationShare < r.Rows[i-1].ClassificationShare-0.05 {
			t.Errorf("classification share regressed at %s", r.Rows[i].Scenario)
		}
	}
}

func TestFig4CacheBehaviourShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig4)
	byKind := map[string][]Fig4Row{}
	for _, row := range r.Rows {
		byKind[row.Kind] = append(byKind[row.Kind], row)
	}
	cuckooRows, sfhRows := byKind["cuckoo"], byKind["sfh"]
	if len(cuckooRows) == 0 || len(sfhRows) == 0 {
		t.Fatal("missing rows")
	}
	// Paper: cuckoo ~95% utilisation; SFH ~20%.
	lastCk := cuckooRows[len(cuckooRows)-1]
	lastSf := sfhRows[len(sfhRows)-1]
	if lastCk.Utilisation < 0.6 {
		t.Errorf("cuckoo utilisation %.2f, paper ~0.95", lastCk.Utilisation)
	}
	if lastSf.Utilisation > 0.3 {
		t.Errorf("SFH utilisation %.2f, paper ~0.2", lastSf.Utilisation)
	}
	// Paper: at large flow counts SFH suffers more LLC misses than cuckoo.
	if lastSf.LLCMPKL <= lastCk.LLCMPKL {
		t.Errorf("SFH LLC MPKL %.3f <= cuckoo %.3f at %d flows; SFH must miss more",
			lastSf.LLCMPKL, lastCk.LLCMPKL, lastSf.Flows)
	}
	// Small tables barely miss the LLC for either layout.
	if cuckooRows[0].LLCMPKL > 1 {
		t.Errorf("1K-flow cuckoo LLC MPKL %.3f; should be ~0", cuckooRows[0].LLCMPKL)
	}
}

func TestTable1InstructionProfile(t *testing.T) {
	t.Parallel()
	r := quickResult(table1)
	if r.InstructionsPerLookup < 150 || r.InstructionsPerLookup > 280 {
		t.Errorf("instructions per lookup = %.0f, paper 210", r.InstructionsPerLookup)
	}
	if r.MemoryShare < 0.38 || r.MemoryShare > 0.58 {
		t.Errorf("memory share = %.2f, paper 0.481", r.MemoryShare)
	}
	if r.ArithShare < 0.12 || r.ArithShare > 0.32 {
		t.Errorf("arith share = %.2f, paper 0.210", r.ArithShare)
	}
	if r.OtherShare < 0.2 || r.OtherShare > 0.42 {
		t.Errorf("other share = %.2f, paper 0.309", r.OtherShare)
	}
}

func TestLockOverheadShape(t *testing.T) {
	t.Parallel()
	r := quickResult(lockoverhead)
	// Paper: ~13.1% of lookup time in locking. Accept a broad band.
	if r.LockSharePct < 0.01 || r.LockSharePct > 0.30 {
		t.Errorf("lock share = %.3f, paper ~0.131", r.LockSharePct)
	}
	// Paper: remote private-cache access ~2x an LLC hit, >100 cycles.
	if r.RemoteOverLLC < 1.5 || r.RemoteOverLLC > 3.5 {
		t.Errorf("remote/LLC ratio = %.2f, paper ~2", r.RemoteOverLLC)
	}
	if r.RemoteHitCycles < 100 {
		t.Errorf("remote access = %.0f cycles, paper >100", r.RemoteHitCycles)
	}
	// HALO's hardware lock costs less than software locking.
	if r.HaloLockStallPct >= r.LockSharePct {
		t.Errorf("halo lock stalls %.3f not below software lock share %.3f",
			r.HaloLockStallPct, r.LockSharePct)
	}
}

func TestFig8FlowRegisterShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig8)
	// Paper Fig. 8b: a register estimates ~2x its bit count accurately.
	for _, pt := range r.Points {
		if pt.Flows <= 2*int(pt.RegisterBits) && pt.RegisterBits >= 16 {
			if pt.MeanRelErr > 0.40 {
				t.Errorf("bits=%d flows=%d rel-err=%.2f; should be accurate to ~2m",
					pt.RegisterBits, pt.Flows, pt.MeanRelErr)
			}
		}
	}
	// Estimates grow monotonically with true flow count per register size.
	byBits := map[uint][]Fig8Point{}
	for _, pt := range r.Points {
		byBits[pt.RegisterBits] = append(byBits[pt.RegisterBits], pt)
	}
	for bits, pts := range byBits {
		for i := 1; i < len(pts); i++ {
			if pts[i].MeanEstimate < pts[i-1].MeanEstimate {
				t.Errorf("bits=%d: estimate not monotone in flows", bits)
			}
		}
	}
}

func TestFig9SingleLookupShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig9)
	// LLC regime (2^14, 2^17): HALO beats software clearly.
	for _, size := range []uint64{1 << 14, 1 << 17} {
		pt, ok := r.Point(ModeHaloB, size, 0.75)
		if !ok {
			t.Fatalf("missing halo-B point at %d", size)
		}
		if pt.Normalized < 1.5 {
			t.Errorf("halo-B at %d entries = %.2fx, paper up to 3.3x", size, pt.Normalized)
		}
	}
	// Tiny-table regime: software wins (paper's leftmost Fig. 9 points).
	tiny, _ := r.Point(ModeHaloB, 1<<3, 0.75)
	if tiny.Normalized >= 1.0 {
		t.Errorf("halo-B at 8 entries = %.2fx; software should win for L1-resident tables", tiny.Normalized)
	}
	// TCAM is the fastest solution everywhere beyond tiny tables.
	for _, size := range []uint64{1 << 10, 1 << 14, 1 << 17} {
		tc, _ := r.Point(ModeTCAM, size, 0.75)
		hb, _ := r.Point(ModeHaloB, size, 0.75)
		if tc.Normalized < hb.Normalized {
			t.Errorf("TCAM (%.2fx) slower than halo-B (%.2fx) at %d entries", tc.Normalized, hb.Normalized, size)
		}
	}
	// SRAM-TCAM trails TCAM slightly.
	tc, _ := r.Point(ModeTCAM, 1<<14, 0.75)
	st, _ := r.Point(ModeSRAMTCAM, 1<<14, 0.75)
	if st.Normalized > tc.Normalized {
		t.Error("SRAM-TCAM should not beat TCAM")
	}
}

func TestFig10BreakdownShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig10)
	swLLC, ok1 := r.Row("software", "llc")
	haloLLC, ok2 := r.Row("halo", "llc")
	swDRAM, ok3 := r.Row("software", "dram")
	haloDRAM, ok4 := r.Row("halo", "dram")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("missing rows")
	}
	// Paper: HALO reduces compute by ~48%.
	if haloLLC.Compute >= swLLC.Compute*0.8 {
		t.Errorf("halo compute %.0f vs software %.0f; paper cuts ~48%%", haloLLC.Compute, swLLC.Compute)
	}
	// Paper: CHA-side data access is much faster in the LLC regime...
	if haloLLC.DataAcc >= swLLC.DataAcc*0.7 {
		t.Errorf("halo LLC data access %.0f vs software %.0f; paper ~4.1x faster", haloLLC.DataAcc, swLLC.DataAcc)
	}
	// ...and still ahead, but by less, in the DRAM regime.
	if haloDRAM.DataAcc >= swDRAM.DataAcc {
		t.Errorf("halo DRAM data access %.0f vs software %.0f; paper ~1.6x faster", haloDRAM.DataAcc, swDRAM.DataAcc)
	}
	llcGain := swLLC.DataAcc / haloLLC.DataAcc
	dramGain := swDRAM.DataAcc / haloDRAM.DataAcc
	if dramGain >= llcGain {
		t.Errorf("DRAM data-access gain %.2f >= LLC gain %.2f; LLC should benefit more", dramGain, llcGain)
	}
	// HALO pays no locking time.
	if haloLLC.Locking != 0 {
		t.Error("halo locking cost must be zero")
	}
}

func TestFig11TupleSpaceShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig11)
	nb5, _ := r.Point(ModeHaloNB, 5)
	nb20, _ := r.Point(ModeHaloNB, 20)
	b5, _ := r.Point(ModeHaloB, 5)
	b20, _ := r.Point(ModeHaloB, 20)
	sw5, _ := r.Point(ModeSoftware, 5)
	sw20, _ := r.Point(ModeSoftware, 20)

	// Software cost grows ~linearly with tuples.
	if sw20.CyclesPerClassify < 2.5*sw5.CyclesPerClassify {
		t.Errorf("software TSS growth 5→20 tuples = %.2f, want ~4x",
			sw20.CyclesPerClassify/sw5.CyclesPerClassify)
	}
	// Non-blocking scales: its advantage grows with tuple count and beats
	// blocking mode (paper: up to 23.4x NB vs flattening B).
	if nb20.NormalizedToSoft <= nb5.NormalizedToSoft {
		t.Errorf("NB advantage shrank with tuples: %.2fx → %.2fx",
			nb5.NormalizedToSoft, nb20.NormalizedToSoft)
	}
	if nb20.NormalizedToSoft <= b20.NormalizedToSoft {
		t.Errorf("NB (%.2fx) not ahead of blocking (%.2fx) at 20 tuples",
			nb20.NormalizedToSoft, b20.NormalizedToSoft)
	}
	if nb20.NormalizedToSoft < 2.5 {
		t.Errorf("NB at 20 tuples only %.2fx", nb20.NormalizedToSoft)
	}
	// Blocking mode stays comparatively flat.
	if b20.NormalizedToSoft > b5.NormalizedToSoft*1.8 {
		t.Errorf("blocking mode scaled %.2fx → %.2fx; paper says it flattens",
			b5.NormalizedToSoft, b20.NormalizedToSoft)
	}
	// TCAM needs one search regardless of tuples: fastest by far.
	tc20, _ := r.Point(ModeTCAM, 20)
	if tc20.NormalizedToSoft < nb20.NormalizedToSoft {
		t.Error("TCAM should top tuple space search")
	}
}

func TestFig12CollocationShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig12)
	for _, nfName := range []string{"acl", "snortlite", "mtcplite"} {
		for _, flows := range []int{1_000, 100_000} {
			sw, ok1 := r.Point(nfName, flows, "software")
			ha, ok2 := r.Point(nfName, flows, "halo")
			if !ok1 || !ok2 {
				t.Fatalf("missing points for %s/%d", nfName, flows)
			}
			// Paper: software switch costs NFs 17-26%; HALO <=3.2%.
			if ha.ThroughputDrop >= sw.ThroughputDrop {
				t.Errorf("%s/%d: halo drop %.3f >= software drop %.3f",
					nfName, flows, ha.ThroughputDrop, sw.ThroughputDrop)
			}
			if ha.ThroughputDrop > 0.10 {
				t.Errorf("%s/%d: halo drop %.3f, paper <=0.032", nfName, flows, ha.ThroughputDrop)
			}
			// L1D pollution: the software switch inflates the NF's miss
			// ratio more than HALO does.
			if ha.L1MissCoRun > sw.L1MissCoRun {
				t.Errorf("%s/%d: halo L1 pollution above software's", nfName, flows)
			}
		}
		sw, _ := r.Point(nfName, 100_000, "software")
		if sw.ThroughputDrop < 0.03 {
			t.Errorf("%s: software-switch drop %.3f implausibly low", nfName, sw.ThroughputDrop)
		}
	}
}

func TestTable4PowerShape(t *testing.T) {
	t.Parallel()
	r := quickResult(table4)
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Paper headline: up to 48.2x more energy-efficient than TCAM.
	if r.EfficiencyVs1MB < 47 || r.EfficiencyVs1MB > 50 {
		t.Errorf("efficiency vs 1MB TCAM = %.1f, paper 48.2", r.EfficiencyVs1MB)
	}
	if r.HaloAreaPercent != 1.2 {
		t.Errorf("area percent = %v", r.HaloAreaPercent)
	}
}

func TestFig13NFSpeedupShape(t *testing.T) {
	t.Parallel()
	r := quickResult(fig13)
	for _, name := range []string{"nat", "prads", "packet-filter"} {
		pt, ok := r.Point(name, 100_000)
		if !ok {
			t.Fatalf("missing %s at 100K", name)
		}
		// Paper: 2.3-2.7x; accept 1.2-4x (prads dilutes with its
		// engine-independent record update in this model).
		if pt.Speedup < 1.15 || pt.Speedup > 4 {
			t.Errorf("%s at 100K entries: speedup %.2fx, paper 2.3-2.7x", name, pt.Speedup)
		}
	}
	// Larger tables benefit at least as much as small ones.
	for _, name := range []string{"nat", "packet-filter"} {
		small, _ := r.Point(name, 1_000)
		large, _ := r.Point(name, 100_000)
		if large.Speedup < small.Speedup {
			t.Errorf("%s: speedup shrank with table size (%.2f → %.2f)",
				name, small.Speedup, large.Speedup)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	t.Parallel()
	r := quickResult(ablations)
	if r.MetaCacheSpeedup < 1.02 {
		t.Errorf("metadata cache speedup %.2f; should matter", r.MetaCacheSpeedup)
	}
	// Deeper scoreboards absorb bursts better.
	if r.DepthCycles[10] >= r.DepthCycles[1] {
		t.Errorf("scoreboard depth 10 (%f) not better than depth 1 (%f) under bursts",
			r.DepthCycles[10], r.DepthCycles[1])
	}
	// By-table dispatch (metadata locality) beats round-robin.
	if r.DispatchCycles["by-table"] >= r.DispatchCycles["round-robin"] {
		t.Errorf("by-table dispatch (%f) not ahead of round-robin (%f)",
			r.DispatchCycles["by-table"], r.DispatchCycles["round-robin"])
	}
}

func TestScalingShape(t *testing.T) {
	t.Parallel()
	r := quickResult(scaling)
	for _, mode := range []Fig9Mode{ModeSoftware, ModeHaloNB} {
		one, ok1 := r.Point(mode, 1)
		many, ok2 := r.Point(mode, 15)
		if !ok1 || !ok2 {
			t.Fatalf("missing %v points", mode)
		}
		if many.LookupsPerK <= one.LookupsPerK*4 {
			t.Errorf("%v: 15 cores only %.1fx one core", mode, many.LookupsPerK/one.LookupsPerK)
		}
		if many.Efficiency < 0.4 {
			t.Errorf("%v: 15-core efficiency %.2f", mode, many.Efficiency)
		}
	}
	sw, _ := r.Point(ModeSoftware, 15)
	nb, _ := r.Point(ModeHaloNB, 15)
	if nb.LookupsPerK <= sw.LookupsPerK*2 {
		t.Errorf("HALO NB aggregate (%.0f/kcyc) not well ahead of software (%.0f/kcyc)",
			nb.LookupsPerK, sw.LookupsPerK)
	}
}

func TestUpdatesShape(t *testing.T) {
	t.Parallel()
	r := quickResult(updates)
	for _, size := range []int{1_000, 10_000} {
		ck, ok1 := r.Point("cuckoo", size)
		tc, ok2 := r.Point("tcam", size)
		if !ok1 || !ok2 {
			t.Fatalf("missing points at %d", size)
		}
		if ck.CyclesPerOp >= tc.CyclesPerOp {
			t.Errorf("%d entries: cuckoo update (%.0f) not cheaper than TCAM (%.0f)",
				size, ck.CyclesPerOp, tc.CyclesPerOp)
		}
	}
	// The TCAM update cost grows ~linearly with capacity; cuckoo is
	// near-constant.
	ckSmall, _ := r.Point("cuckoo", 1_000)
	ckBig, _ := r.Point("cuckoo", 10_000)
	tcSmall, _ := r.Point("tcam", 1_000)
	tcBig, _ := r.Point("tcam", 10_000)
	if tcBig.CyclesPerOp < 5*tcSmall.CyclesPerOp {
		t.Errorf("TCAM update cost grew only %.1fx for 10x entries",
			tcBig.CyclesPerOp/tcSmall.CyclesPerOp)
	}
	if ckBig.CyclesPerOp > 5*ckSmall.CyclesPerOp {
		t.Errorf("cuckoo update cost grew %.1fx for 10x entries; should be near-constant",
			ckBig.CyclesPerOp/ckSmall.CyclesPerOp)
	}
}

func TestHybridShape(t *testing.T) {
	t.Parallel()
	r := quickResult(hybrid)
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows, want 3 traffic phases", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SwLookups+row.HwLookups != uint64(row.Lookups) {
			t.Errorf("%s: %d software + %d halo lookups, %d issued",
				row.Phase, row.SwLookups, row.HwLookups, row.Lookups)
		}
		if row.Scans == 0 {
			t.Errorf("%s: the controller closed no scan window", row.Phase)
		}
	}
	// Many flows: stays on the accelerators throughout.
	many, _ := r.Row("many-flows")
	if many.FinalMode != "halo" || many.Switches != 0 || many.SwLookups != 0 {
		t.Errorf("many-flows ended on %s after %d switches with %d software lookups; must stay on halo",
			many.FinalMode, many.Switches, many.SwLookups)
	}
	// Few flows: settles into software once, early.
	few, _ := r.Row("few-flows")
	if few.FinalMode != "software" || few.Switches != 1 {
		t.Errorf("few-flows ended on %s after %d switches; must settle into software in one switch",
			few.FinalMode, few.Switches)
	}
	if few.SwLookups < 3*few.HwLookups {
		t.Errorf("few-flows served %d lookups in software and %d on halo; software must be the large majority",
			few.SwLookups, few.HwLookups)
	}
	// Phase shift: into software, then back.
	shift, _ := r.Row("phase-shift")
	if shift.FinalMode != "halo" || shift.Switches < 2 {
		t.Errorf("phase-shift ended on %s after %d switches; must switch to software and back to halo",
			shift.FinalMode, shift.Switches)
	}
	if shift.SwLookups == 0 || shift.HwLookups == 0 {
		t.Errorf("phase-shift served %d software and %d halo lookups; both paths must run",
			shift.SwLookups, shift.HwLookups)
	}
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	want := []string{"fig3", "fig4", "table1", "lockoverhead", "fig8", "fig9",
		"fig10", "fig11", "fig12", "table4", "fig13", "ablations", "scaling", "updates", "hybrid"}
	ids := IDs()
	for _, w := range want {
		found := false
		for _, id := range ids {
			if id == w {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	if _, ok := Find("fig9"); !ok {
		t.Error("Find(fig9) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

func TestRunnersRenderNonEmpty(t *testing.T) {
	t.Parallel()
	// Cheap runners render actual tables (expensive ones are covered by
	// the shape tests above).
	for _, id := range []string{"table4", "fig8"} {
		if !strings.Contains(quick[id].pass1().render, "==") {
			t.Errorf("%s rendered no table", id)
		}
	}
}
