package dtree

import (
	"testing"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
	"halo/internal/sim"
)

// linearClassify is the reference: scan all rules, highest priority wins.
func linearClassify(rules []Rule, t packet.FiveTuple) (uint64, bool) {
	best := -1
	for i, r := range rules {
		if r.MatchesTuple(t) && (best < 0 || r.Priority > rules[best].Priority) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return rules[best].Value, true
}

// prefixRule matches a source prefix and destination-port range.
func prefixRule(srcIP uint32, srcBits uint8, dpLo, dpHi uint16, prio uint16, value uint64) Rule {
	r := AnyRule(prio, value)
	maskBits := uint64(0xFFFFFFFF) << (32 - srcBits) & 0xFFFFFFFF
	if srcBits == 0 {
		maskBits = 0
	}
	r.Lo[0] = uint64(srcIP) & maskBits
	r.Hi[0] = r.Lo[0] | (^maskBits & 0xFFFFFFFF)
	r.Lo[3], r.Hi[3] = uint64(dpLo), uint64(dpHi)
	return r
}

func testRules() []Rule {
	return []Rule{
		prefixRule(0x0a000000, 8, 22, 22, 100, 1),   // 10/8 ssh
		prefixRule(0x0a010000, 16, 0, 65535, 50, 2), // 10.1/16 anything
		prefixRule(0xc0a80000, 16, 80, 443, 60, 3),  // 192.168/16 web
		prefixRule(0, 0, 53, 53, 40, 4),             // any dns
	}
}

func buildTestTree(t *testing.T, rules []Rule) (*Tree, *halo.Platform) {
	t.Helper()
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	tree, err := Build(p.Space, p.Alloc, rules)
	if err != nil {
		t.Fatal(err)
	}
	return tree, p
}

func randomTuple(rng *sim.Rand) packet.FiveTuple {
	// Bias into interesting subspaces half the time.
	t := packet.FiveTuple{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Uint32()),
		DstPort: uint16(rng.Intn(500)),
		Proto:   6,
	}
	switch rng.Intn(4) {
	case 0:
		t.SrcIP = 0x0a000000 | rng.Uint32()&0xFFFFFF
	case 1:
		t.SrcIP = 0x0a010000 | rng.Uint32()&0xFFFF
	case 2:
		t.SrcIP = 0xc0a80000 | rng.Uint32()&0xFFFF
	}
	switch rng.Intn(4) {
	case 0:
		t.DstPort = 22
	case 1:
		t.DstPort = 53
	case 2:
		t.DstPort = uint16(80 + rng.Intn(400))
	}
	return t
}

func TestTreeMatchesLinearScan(t *testing.T) {
	rules := testRules()
	tree, _ := buildTestTree(t, rules)
	rng := sim.NewRand(42)
	for i := 0; i < 20000; i++ {
		tp := randomTuple(rng)
		want, wantOK := linearClassify(rules, tp)
		got, gotOK := tree.Classify(tp)
		if want != got || wantOK != gotOK {
			t.Fatalf("tuple %v: tree=(%d,%v) linear=(%d,%v)", tp, got, gotOK, want, wantOK)
		}
	}
	if tree.Nodes() < 3 {
		t.Fatalf("suspiciously small tree: %d nodes", tree.Nodes())
	}
}

func TestTimedWalkMatchesFunctional(t *testing.T) {
	rules := testRules()
	tree, p := buildTestTree(t, rules)
	th := cpu.NewThread(p.Hier, 0)
	rng := sim.NewRand(7)
	for i := 0; i < 2000; i++ {
		tp := randomTuple(rng)
		fv, fok := tree.Classify(tp)
		tv, tok := tree.ClassifyTimed(th, tp)
		if fv != tv || fok != tok {
			t.Fatalf("timed walk diverged on %v", tp)
		}
	}
	if th.Now == 0 {
		t.Fatal("timed walk charged nothing")
	}
}

func TestHaloWalkMatchesFunctional(t *testing.T) {
	rules := testRules()
	tree, p := buildTestTree(t, rules)
	th := cpu.NewThread(p.Hier, 0)
	keyBuf := p.Alloc.AllocLines(1)
	rng := sim.NewRand(9)
	for i := 0; i < 2000; i++ {
		tp := randomTuple(rng)
		p.Space.WriteAt(keyBuf, Key(tp))
		p.Hier.DMAWrite(keyBuf)
		fv, fok := tree.Classify(tp)
		hv, hok := tree.ClassifyHalo(th, p.Unit, keyBuf)
		if fok != hok || (fok && fv != hv) {
			t.Fatalf("halo walk diverged on %v: (%d,%v) vs (%d,%v)", tp, hv, hok, fv, fok)
		}
	}
}

func TestHaloWalkFasterThanSoftwareWhenLLCResident(t *testing.T) {
	// A rule set large enough that the node array outgrows the private
	// caches: near-cache walks only pay off once the software walk misses
	// its L2 (the same LLC-residency condition as Fig. 9).
	var rules []Rule
	for i := 0; i < 4500; i++ {
		rules = append(rules, prefixRule(uint32(i*2654435761), 24,
			uint16(i*37%60000), uint16(i*37%60000)+50, uint16(i%1000+1), uint64(i+1)))
	}
	tree, p := buildTestTree(t, rules)
	if tree.Nodes()*mem.LineSize < 2<<20 {
		t.Fatalf("tree too small for the LLC-resident regime: %d nodes", tree.Nodes())
	}
	// Warm the tree into the LLC (nodes are laid out contiguously from the
	// root by the build's DFS allocation order).
	for n := 0; n < tree.Nodes(); n++ {
		p.Hier.WarmLLC(tree.Root() + mem.Addr(n)*mem.LineSize)
	}
	// As in the Fig. 11 methodology, per-packet IO churn keeps the tree out
	// of the walking core's private caches (the tree lives in the LLC); the
	// churn is identical across modes and excluded from the measured time.
	// Uniform tuples: paths share only the top levels, so the lower levels
	// of the 2+ MB node array behave like the LLC-resident hash buckets of
	// Fig. 9 rather than a hot L1-resident subtree.
	rng := sim.NewRand(3)
	tuples := make([]packet.FiveTuple, 2048)
	for i := range tuples {
		tuples[i] = packet.FiveTuple{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: 6,
		}
	}
	pressureBase := p.Alloc.AllocLines(1 << 15)
	measure := func(core int, classify func(th *cpu.Thread, tp packet.FiveTuple)) float64 {
		th := cpu.NewThread(p.Hier, core)
		cursor := 0
		pressure := func() {
			for j := 0; j < 64; j++ {
				th.Load(pressureBase + mem.Addr(cursor)*mem.LineSize)
				cursor = (cursor + 1) % (1 << 15)
			}
		}
		var walkCycles uint64
		run := func(count bool) {
			for _, tp := range tuples {
				t0 := th.Now
				classify(th, tp)
				if count {
					walkCycles += uint64(th.Now - t0)
				}
				pressure()
			}
		}
		run(false)
		run(true)
		return float64(walkCycles)
	}

	software := measure(0, func(th *cpu.Thread, tp packet.FiveTuple) {
		tree.ClassifyTimed(th, tp)
	})
	keyBuf := p.Alloc.AllocLines(1)
	accelerated := measure(1, func(th *cpu.Thread, tp packet.FiveTuple) {
		p.Space.WriteAt(keyBuf, Key(tp))
		p.Hier.DMAWrite(keyBuf)
		tree.ClassifyHalo(th, p.Unit, keyBuf)
	})

	if accelerated >= software {
		t.Fatalf("halo tree walk (%.0f) not faster than software (%.0f)", accelerated, software)
	}
}

func TestWalkFaultOnCorruptNode(t *testing.T) {
	tree, p := buildTestTree(t, testRules())
	// Corrupt the root's magic.
	p.Space.Store32(tree.Root(), 0xdeadbeef)
	th := cpu.NewThread(p.Hier, 0)
	keyBuf := p.Alloc.AllocLines(1)
	p.Space.WriteAt(keyBuf, Key(packet.FiveTuple{}))
	r := p.Unit.WalkB(th, tree.Root(), keyBuf, KeyBytes)
	if !r.Fault {
		t.Fatal("corrupt node did not fault")
	}
}

func TestBuildErrors(t *testing.T) {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	if _, err := Build(p.Space, p.Alloc, nil); err != ErrNoRules {
		t.Fatalf("empty build err = %v", err)
	}
	// Two identical full-space rules with different priorities are fine
	// (higher priority wins everywhere)...
	if _, err := Build(p.Space, p.Alloc, []Rule{AnyRule(1, 1), AnyRule(2, 2)}); err != nil {
		t.Fatalf("overlapping any-rules: %v", err)
	}
	// ...and a single rule builds a one-leaf tree.
	tree, err := Build(p.Space, p.Alloc, []Rule{AnyRule(1, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Classify(packet.FiveTuple{SrcIP: 123}); !ok || v != 9 {
		t.Fatal("single-rule tree broken")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	tp := packet.FiveTuple{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 0x1122, DstPort: 0x3344, Proto: 6}
	k := Key(tp)
	if len(k) != KeyBytes {
		t.Fatalf("key length %d", len(k))
	}
	if fieldVal(k, 0, 4) != 0x01020304 || fieldVal(k, 10, 2) != 0x3344 || fieldVal(k, 12, 1) != 6 {
		t.Fatal("field extraction wrong")
	}
}
