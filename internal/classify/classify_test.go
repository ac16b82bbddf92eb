package classify

import (
	"testing"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

func flow(i uint32) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   0x0a000000 | i,
		DstIP:   0xc0a80000 | (i % 256),
		SrcPort: uint16(1024 + i%5000),
		DstPort: 443,
		Proto:   packet.ProtoTCP,
	}
}

func TestMaskApply(t *testing.T) {
	tup := packet.FiveTuple{SrcIP: 0x0a0b0c0d, DstIP: 0x01020304, SrcPort: 7, DstPort: 9, Proto: 6}
	m := Mask{SrcIPBits: 24, DstIPBits: 0, SrcPortWild: true}
	got := m.Apply(tup)
	if got.SrcIP != 0x0a0b0c00 {
		t.Fatalf("src prefix masking: %#x", got.SrcIP)
	}
	if got.DstIP != 0 || got.SrcPort != 0 {
		t.Fatalf("wildcards not applied: %+v", got)
	}
	if got.DstPort != 9 || got.Proto != 6 {
		t.Fatalf("non-wildcarded fields changed: %+v", got)
	}
	if (Mask{SrcIPBits: 32, DstIPBits: 32}).Apply(tup) != tup {
		t.Fatal("exact mask changed the tuple")
	}
}

func TestMaskValidity(t *testing.T) {
	if !(Mask{SrcIPBits: 32, DstIPBits: 32}).Valid() {
		t.Fatal("exact mask rejected")
	}
	if (Mask{SrcIPBits: 40}).Valid() {
		t.Fatal("overlong prefix accepted")
	}
}

func TestRuleEncodingRoundTrip(t *testing.T) {
	m := Match{Priority: 1234, RuleID: 0x00abcdef, Action: Action{Kind: 0xF, Port: 40000}}
	if got := DecodeRuleValue(encodeRule(m)); got != m {
		t.Fatalf("rule round trip: %+v vs %+v", got, m)
	}
	// Values must fit the HALO result-word payload.
	if encodeRule(m)&^halo.ResultValueMask != 0 {
		t.Fatal("encoded rule overflows the result-word value bits")
	}
}

func newTSS(t *testing.T, mode SearchMode) *TupleSpace {
	t.Helper()
	space := mem.NewMemory()
	alloc := mem.NewAllocator(0x1000, 1<<30)
	return NewTupleSpace(space, alloc, mode, 1024)
}

func TestTupleSpaceFirstMatch(t *testing.T) {
	ts := newTSS(t, FirstMatch)
	m1 := Mask{SrcIPBits: 32, DstIPBits: 32}
	m2 := Mask{SrcIPBits: 24, DstIPBits: 0, SrcPortWild: true, DstPortWild: true}
	f := flow(5)
	if err := ts.InsertRule(m1, f, Match{RuleID: 1, Action: Action{Kind: ActionOutput, Port: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := ts.InsertRule(m2, f, Match{RuleID: 2}); err != nil {
		t.Fatal(err)
	}
	got, ok := ts.Classify(f)
	if !ok || got.RuleID != 1 {
		t.Fatalf("first-match = %+v, want rule 1", got)
	}
	// A flow matching only the coarse mask falls through to it.
	other := flow(6) // same /24, different host bits
	got, ok = ts.Classify(other)
	if !ok || got.RuleID != 2 {
		t.Fatalf("coarse match = %+v (%v), want rule 2", got, ok)
	}
	// A flow outside both masks misses.
	if _, ok := ts.Classify(packet.FiveTuple{SrcIP: 0x01010101}); ok {
		t.Fatal("unmatched flow classified")
	}
}

func TestTupleSpaceHighestPriority(t *testing.T) {
	ts := newTSS(t, HighestPriority)
	f := flow(9)
	low := Mask{SrcIPBits: 16, SrcPortWild: true, DstPortWild: true, ProtoWild: true}
	high := Mask{SrcIPBits: 32, DstIPBits: 32}
	if err := ts.InsertRule(low, f, Match{Priority: 10, RuleID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ts.InsertRule(high, f, Match{Priority: 99, RuleID: 2}); err != nil {
		t.Fatal(err)
	}
	got, ok := ts.Classify(f)
	if !ok || got.RuleID != 2 || got.Priority != 99 {
		t.Fatalf("priority match = %+v", got)
	}
}

func TestTupleSpaceSharedMaskSharesTuple(t *testing.T) {
	ts := newTSS(t, FirstMatch)
	m := Mask{SrcIPBits: 24, SrcPortWild: true, DstPortWild: true, ProtoWild: true}
	for i := uint32(0); i < 50; i++ {
		f := packet.FiveTuple{SrcIP: i << 8} // distinct /24s
		if err := ts.InsertRule(m, f, Match{RuleID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ts.Tuples()) != 1 {
		t.Fatalf("%d tuples for one mask, want 1", len(ts.Tuples()))
	}
	if ts.RuleCount() != 50 {
		t.Fatalf("rule count = %d", ts.RuleCount())
	}
}

func timedPlatform(t *testing.T) (*halo.Platform, *TupleSpace, *cpu.Thread) {
	t.Helper()
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	ts := NewTupleSpace(p.Space, p.Alloc, FirstMatch, 1024)
	th := cpu.NewThread(p.Hier, 0)
	return p, ts, th
}

func installTestRules(t *testing.T, ts *TupleSpace, nTuples int) {
	t.Helper()
	for ti := 0; ti < nTuples; ti++ {
		m := Mask{SrcIPBits: uint8(32 - ti), DstIPBits: 32, SrcPortWild: ti%2 == 0}
		for r := uint32(0); r < 100; r++ {
			f := flow(r*37 + uint32(ti))
			if err := ts.InsertRule(m, f, Match{RuleID: uint32(ti)<<16 | r, Priority: uint16(ti)}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestClassifyTimedMatchesFunctional(t *testing.T) {
	_, ts, th := timedPlatform(t)
	installTestRules(t, ts, 5)
	for i := uint32(0); i < 500; i++ {
		f := flow(i)
		fm, fok := ts.Classify(f)
		tm, tok := ts.ClassifyTimed(th, f, cuckoo.DefaultLookupOptions())
		if fok != tok || fm != tm {
			t.Fatalf("timed classify diverged on flow %d: (%+v,%v) vs (%+v,%v)", i, tm, tok, fm, fok)
		}
	}
	if th.Now == 0 {
		t.Fatal("timed classification charged no cycles")
	}
}

func TestClassifyHaloMatchesFunctional(t *testing.T) {
	p, ts, th := timedPlatform(t)
	installTestRules(t, ts, 5)
	for i := uint32(0); i < 300; i++ {
		f := flow(i)
		fm, fok := ts.Classify(f)
		nm, nok := ts.ClassifyHaloNB(th, p.Unit, f)
		if fok != nok || fm != nm {
			t.Fatalf("HALO NB classify diverged on flow %d", i)
		}
		bm, bok := ts.ClassifyHaloB(th, p.Unit, f)
		if fok != bok || fm != bm {
			t.Fatalf("HALO B classify diverged on flow %d", i)
		}
	}
}

func TestClassifyHaloNBScalesWithTuples(t *testing.T) {
	// The core Fig.11 effect: software TSS cost grows ~linearly with tuple
	// count; HALO-NB cost grows far slower (parallel dispatch).
	costOf := func(nTuples int, f func(*halo.Platform, *TupleSpace, *cpu.Thread) uint64) uint64 {
		p := halo.NewPlatform(halo.DefaultPlatformConfig())
		ts := NewTupleSpace(p.Space, p.Alloc, FirstMatch, 1024)
		installTestRules(t, ts, nTuples)
		for _, tp := range ts.Tuples() {
			p.WarmTable(tp.Table)
		}
		th := cpu.NewThread(p.Hier, 0)
		return f(p, ts, th)
	}
	missFlow := packet.FiveTuple{SrcIP: 0xdeadbeef, DstIP: 0xdeadbeef} // misses all tuples
	swCost := func(p *halo.Platform, ts *TupleSpace, th *cpu.Thread) uint64 {
		start := th.Now
		for i := 0; i < 50; i++ {
			ts.ClassifyTimed(th, missFlow, cuckoo.DefaultLookupOptions())
		}
		return uint64(th.Now - start)
	}
	nbCost := func(p *halo.Platform, ts *TupleSpace, th *cpu.Thread) uint64 {
		start := th.Now
		for i := 0; i < 50; i++ {
			ts.ClassifyHaloNB(th, p.Unit, missFlow)
		}
		return uint64(th.Now - start)
	}
	sw5, sw20 := costOf(5, swCost), costOf(20, swCost)
	nb5, nb20 := costOf(5, nbCost), costOf(20, nbCost)
	swGrowth := float64(sw20) / float64(sw5)
	nbGrowth := float64(nb20) / float64(nb5)
	if swGrowth < 2.5 {
		t.Fatalf("software TSS growth 5→20 tuples = %.2f, want ~4", swGrowth)
	}
	if nbGrowth >= swGrowth {
		t.Fatalf("HALO NB growth %.2f not better than software %.2f", nbGrowth, swGrowth)
	}
}

// newEMC builds an EMC keyed on packed five-tuples, and a thread to look
// flows up from.
func newEMC(t *testing.T, entries uint64) (*EMC, *cpu.Thread) {
	t.Helper()
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	e, err := NewEMCKeyLen(p.Space, p.Alloc, entries, packet.KeyBytes)
	if err != nil {
		t.Fatal(err)
	}
	return e, cpu.NewThread(p.Hier, 0)
}

func lookupEMC(e *EMC, th *cpu.Thread, f packet.FiveTuple) (Match, bool) {
	return e.LookupTimedRaw(th, f.Packed(), cuckoo.DefaultLookupOptions())
}

func TestEMCLearnAndHit(t *testing.T) {
	e, th := newEMC(t, 1024)
	f := flow(3)
	if _, ok := lookupEMC(e, th, f); ok {
		t.Fatal("empty EMC hit")
	}
	e.LearnRaw(f.Packed(), Match{RuleID: 42, Action: Action{Kind: ActionOutput, Port: 1}})
	m, ok := lookupEMC(e, th, f)
	if !ok || m.RuleID != 42 {
		t.Fatalf("EMC lookup after learn = %+v, %v", m, ok)
	}
	hits, misses, inserts := e.Stats()
	if hits != 1 || misses != 1 || inserts != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, inserts)
	}
}

func TestEMCLearnUpdatesExisting(t *testing.T) {
	e, th := newEMC(t, 64)
	f := flow(1)
	e.LearnRaw(f.Packed(), Match{RuleID: 1})
	e.LearnRaw(f.Packed(), Match{RuleID: 2})
	m, _ := lookupEMC(e, th, f)
	if m.RuleID != 2 {
		t.Fatalf("re-learn did not update: %+v", m)
	}
	if e.Table().Size() != 1 {
		t.Fatalf("duplicate entries after re-learn: %d", e.Table().Size())
	}
}

func TestEMCEvictsWhenFull(t *testing.T) {
	e, th := newEMC(t, 64)
	for i := uint32(0); i < 500; i++ {
		e.LearnRaw(flow(i).Packed(), Match{RuleID: i})
	}
	if e.Table().Size() > 64 {
		t.Fatalf("EMC grew beyond capacity: %d", e.Table().Size())
	}
	// Recent flows should be present; ancient ones evicted.
	if _, ok := lookupEMC(e, th, flow(499)); !ok {
		t.Fatal("most recent flow evicted")
	}
	if _, ok := lookupEMC(e, th, flow(0)); ok {
		t.Fatal("oldest flow survived 500 learns into a 64-entry EMC")
	}
}
