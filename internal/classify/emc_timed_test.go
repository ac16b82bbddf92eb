package classify

import (
	"strings"
	"testing"

	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

func TestEMCTimedAndHaloLookupsAgree(t *testing.T) {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	e, err := NewEMCKeyLen(p.Space, p.Alloc, 1024, packet.KeyBytes)
	if err != nil {
		t.Fatal(err)
	}
	th := cpu.NewThread(p.Hier, 0)
	for i := uint32(0); i < 500; i++ {
		e.LearnRaw(flow(i).Packed(), Match{RuleID: i + 1})
	}
	keyAddr := p.Alloc.AllocLines(1)
	for i := uint32(0); i < 500; i++ {
		key := flow(i).Packed()
		v, fok := e.Table().Lookup(key) // the functional reference
		fm := DecodeRuleValue(v)
		tm, tok := e.LookupTimedRaw(th, key, cuckoo.DefaultLookupOptions())
		p.Space.WriteAt(keyAddr, key)
		p.Hier.DMAWrite(keyAddr)
		hm, hok := e.LookupHaloBAt(th, p.Unit, keyAddr)
		if !fok || fm.RuleID != i+1 {
			t.Fatalf("learned flow %d reads back as %+v, %v", i, fm, fok)
		}
		if fm != tm || fok != tok {
			t.Fatalf("timed EMC lookup diverged on flow %d", i)
		}
		if fm != hm || fok != hok {
			t.Fatalf("HALO EMC lookup diverged on flow %d", i)
		}
	}
	if e.HitRate() < 0.7 {
		t.Fatalf("hit rate %.2f after all-hit lookups", e.HitRate())
	}
	if _, ok := e.LookupTimedRaw(th, flow(9999).Packed(), cuckoo.DefaultLookupOptions()); ok {
		t.Fatal("timed lookup found an absent flow")
	}
}

func TestEMCLookupTimedRawAndHaloBAt(t *testing.T) {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	e, err := NewEMCKeyLen(p.Space, p.Alloc, 256, packet.HeaderKeyLen)
	if err != nil {
		t.Fatal(err)
	}
	th := cpu.NewThread(p.Hier, 0)
	f := flow(7)
	key := f.HeaderKey()
	e.LearnRaw(key, Match{RuleID: 77})

	m, ok := e.LookupTimedRaw(th, key, cuckoo.DefaultLookupOptions())
	if !ok || m.RuleID != 77 {
		t.Fatalf("raw timed lookup = %+v, %v", m, ok)
	}
	// Deliver the key into a packet-buffer line and look up in place.
	buf := p.Alloc.AllocLines(1)
	p.Space.WriteAt(buf, key)
	p.Hier.DMAWrite(buf)
	m, ok = e.LookupHaloBAt(th, p.Unit, buf)
	if !ok || m.RuleID != 77 {
		t.Fatalf("in-place HALO lookup = %+v, %v", m, ok)
	}
}

func TestRuleSource(t *testing.T) {
	space := mem.NewMemory()
	alloc := mem.NewAllocator(0x1000, 1<<30)
	ts := NewTupleSpace(space, alloc, HighestPriority, 1024)
	if ts.Mode() != HighestPriority {
		t.Fatal("mode accessor broken")
	}
	f := flow(3)
	coarse := Mask{SrcIPBits: 16, SrcPortWild: true, DstPortWild: true, ProtoWild: true}
	fine := Mask{SrcIPBits: 32, DstIPBits: 32}
	if err := ts.InsertRule(coarse, f, Match{Priority: 1, RuleID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ts.InsertRule(fine, f, Match{Priority: 9, RuleID: 2}); err != nil {
		t.Fatal(err)
	}
	m, ok := ts.Classify(f)
	if !ok || m.RuleID != 2 {
		t.Fatalf("classify = %+v", m)
	}
	mask, pattern, found := ts.RuleSource(f, m)
	if !found || mask != fine {
		t.Fatalf("RuleSource mask = %v, want the fine mask", mask)
	}
	if pattern != fine.Apply(f) {
		t.Fatalf("RuleSource pattern = %v", pattern)
	}
	// An unrelated match finds no source.
	if _, _, found := ts.RuleSource(f, Match{RuleID: 42}); found {
		t.Fatal("RuleSource invented a rule")
	}
}

func TestEncodeDecodeRuleValueExported(t *testing.T) {
	m := Match{Priority: 7, RuleID: 1234, Action: Action{Kind: ActionOutput, Port: 3}}
	if DecodeRuleValue(encodeRule(m)) != m {
		t.Fatal("exported rule decoder round trip failed")
	}
}

func TestMaskString(t *testing.T) {
	s := Mask{SrcIPBits: 24, SrcPortWild: true}.String()
	if !strings.Contains(s, "src/24") || !strings.Contains(s, "sp=false") {
		t.Fatalf("Mask.String() = %q", s)
	}
}

func TestInsertRuleRejectsInvalidMask(t *testing.T) {
	space := mem.NewMemory()
	alloc := mem.NewAllocator(0x1000, 1<<30)
	ts := NewTupleSpace(space, alloc, FirstMatch, 64)
	if err := ts.InsertRule(Mask{SrcIPBits: 99}, flow(1), Match{}); err == nil {
		t.Fatal("invalid mask accepted")
	}
}
