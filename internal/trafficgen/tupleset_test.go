package trafficgen

import (
	"fmt"
	"testing"

	"halo/internal/packet"
	"halo/internal/sim"
)

// referenceFlows is Generate's flow loop with the Go map it used before the
// tuple set: the same draws and the same retry rule, so any difference in
// Flows, FlowRule or Retries is the set's.
func referenceFlows(scn Scenario, seed uint64) (flows []packet.FiveTuple, flowRule []int, retries uint64) {
	rng := sim.NewRand(seed)
	seen := make(map[packet.FiveTuple]bool, scn.Flows)
	for i := 0; i < scn.Flows; i++ {
		r := i % scn.Rules
		shift := 0
		if r > 8 {
			shift = r - 8
		}
		hostMask := uint32(0x00FFFFFF) >> uint(shift)
		for {
			f := packet.FiveTuple{
				SrcIP:   baseSrcIP | (rng.Uint32() & hostMask),
				DstIP:   0xc0a80000 | rng.Uint32()&0xFFFF,
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: uint16(baseDstPort + r),
				Proto:   packet.ProtoUDP,
			}
			if !seen[f] {
				seen[f] = true
				flows = append(flows, f)
				flowRule = append(flowRule, r)
				break
			}
			retries++
		}
	}
	return flows, flowRule, retries
}

// referenceRandomTuples is RandomTuples with a Go map.
func referenceRandomTuples(n int, seed uint64) []packet.FiveTuple {
	rng := sim.NewRand(seed)
	out := make([]packet.FiveTuple, 0, n)
	seen := make(map[packet.FiveTuple]bool, n)
	for len(out) < n {
		f := packet.FiveTuple{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Uint32()),
			DstPort: uint16(rng.Uint32()),
			Proto:   packet.ProtoTCP,
		}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

func TestGenerateMatchesMapReference(t *testing.T) {
	for _, scn := range PaperScenarios() {
		if scn.Flows > 200_000 { // fig3's quick cap
			scn.Flows = 200_000
		}
		w := Generate(scn, 0x48414c4f)
		flows, rules, retries := referenceFlows(scn, 0x48414c4f)
		if w.Retries != retries {
			t.Errorf("%s: %d retries, reference %d", scn.Name, w.Retries, retries)
		}
		for i := range flows {
			if w.Flows[i] != flows[i] || w.FlowRule[i] != rules[i] {
				t.Fatalf("%s: flow %d is %v (rule %d), reference %v (rule %d)",
					scn.Name, i, w.Flows[i], w.FlowRule[i], flows[i], rules[i])
			}
		}
	}
	for _, c := range []struct {
		n    int
		seed uint64
	}{{1, 1}, {5_000, 23}, {100_000, 0xfeed}} {
		got, want := RandomTuples(c.n, c.seed), referenceRandomTuples(c.n, c.seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("RandomTuples(%d, %d)[%d] = %v, reference %v", c.n, c.seed, i, got[i], want[i])
			}
		}
	}
}

// Real scenarios almost never retry, so this drives the set itself through
// a sequence full of repeats and near misses.
func TestTupleSetAgreesWithMap(t *testing.T) {
	base := packet.FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 1024, DstPort: 2000, Proto: packet.ProtoUDP}
	pool := []packet.FiveTuple{{}, base, {Proto: 1}, {SrcIP: 1}, {DstIP: 1}, {SrcPort: 1}, {DstPort: 1}}
	for bit := 0; bit < 32; bit++ { // one field or one bit away from base
		f := base
		f.SrcIP ^= 1 << bit
		pool = append(pool, f)
		f = base
		f.DstIP ^= 1 << bit
		pool = append(pool, f)
		if bit < 16 {
			f = base
			f.SrcPort ^= 1 << bit
			pool = append(pool, f)
			f = base
			f.DstPort ^= 1 << bit
			pool = append(pool, f)
		}
		if bit < 8 {
			f = base
			f.Proto ^= 1 << bit
			pool = append(pool, f)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRand(seed)
		set := newTupleSet(len(pool))
		ref := make(map[packet.FiveTuple]bool)
		for i := 0; i < 20*len(pool); i++ {
			f := pool[rng.Intn(len(pool))]
			want := !ref[f]
			ref[f] = true
			if got := set.add(f); got != want {
				t.Fatalf("seed %d, add #%d of %v: got %v, map says %v", seed, i, f, got, want)
			}
		}
		if len(ref) != len(pool) {
			t.Fatalf("seed %d drew %d of %d pool tuples", seed, len(ref), len(pool))
		}
	}
}

// BenchmarkGenerate times a whole population build, dominated at 1M flows by
// the uniqueness check; ns/flow is the figure to compare. The Zipf arm adds
// the CDF, its guide table and the rank permutation.
func BenchmarkGenerate(b *testing.B) {
	for _, pop := range []struct {
		name string
		pop  Popularity
	}{{"uniform", Uniform}, {"zipf", Zipf}} {
		for _, flows := range []int{100_000, 1_050_000} {
			b.Run(fmt.Sprintf("%s/flows=%d", pop.name, flows), func(b *testing.B) {
				scn := Scenario{Name: "bench", Flows: flows, Rules: 1, Popularity: pop.pop}
				for i := 0; i < b.N; i++ {
					Generate(scn, uint64(i))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flows), "ns/flow")
			})
		}
	}
}

// BenchmarkStreamNextFlow times one draw from a stream: an Intn for uniform
// traffic; for Zipf a Float64, a binary search of the draw's guide bucket
// (a few ranks) and the check that it found the full search's rank.
func BenchmarkStreamNextFlow(b *testing.B) {
	for _, pop := range []struct {
		name string
		pop  Popularity
	}{{"uniform", Uniform}, {"zipf", Zipf}} {
		for _, flows := range []int{100_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/flows=%d", pop.name, flows), func(b *testing.B) {
				s := Generate(Scenario{Name: "bench", Flows: flows, Rules: 1, Popularity: pop.pop}, 1).NewStream(2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkFlow = s.NextFlow()
				}
			})
		}
	}
}

var sinkFlow int
