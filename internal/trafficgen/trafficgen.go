// Package trafficgen generates the deterministic network workloads the
// paper evaluates with: flow populations, wildcard rule sets, and packet
// streams for the three data-center scenarios of §3.2 (overlay networks,
// many-container routing, gateway/top-of-rack routing).
package trafficgen

import (
	"fmt"
	"math"

	"halo/internal/classify"
	"halo/internal/packet"
	"halo/internal/sim"
)

// Popularity selects the flow-popularity distribution of a packet stream.
type Popularity int

const (
	// Uniform traffic spreads packets evenly over flows.
	Uniform Popularity = iota
	// Zipf traffic concentrates on hot flows (s≈0.9), as measured in
	// data-center traces.
	Zipf
)

// Scenario describes one traffic configuration.
type Scenario struct {
	Name       string
	Flows      int
	Rules      int
	Popularity Popularity
}

// PaperScenarios returns the five configurations of paper §3.2 / Fig. 3:
// two "small number of flows" overlay points, two "many flows" container
// points, and the "many flows and rules" gateway point.
func PaperScenarios() []Scenario {
	return []Scenario{
		{Name: "overlay-10k", Flows: 10_000, Rules: 1, Popularity: Zipf},
		{Name: "overlay-50k", Flows: 50_000, Rules: 1, Popularity: Zipf},
		{Name: "container-100k", Flows: 100_000, Rules: 5, Popularity: Uniform},
		{Name: "container-1m", Flows: 1_000_000, Rules: 10, Popularity: Uniform},
		{Name: "gateway-1m", Flows: 1_000_000, Rules: 20, Popularity: Uniform},
	}
}

// RuleSpec is one generated wildcard rule.
type RuleSpec struct {
	Mask    classify.Mask
	Pattern packet.FiveTuple
	Match   classify.Match
}

// Workload is a generated flow population, rule set and packet stream.
type Workload struct {
	Scenario Scenario
	Flows    []packet.FiveTuple
	FlowRule []int // index of the rule each flow matches
	Rules    []RuleSpec
	// Retries counts uniqueness-check collisions during generation — a
	// regression guard: over-restricting the free source-IP bits clusters
	// flows and sends this climbing.
	Retries uint64

	draws Stream    // the workload's own draws, over the RNG that built it
	cdf   []float64 // Zipf CDF over flows (nil for uniform)
	guide []int32   // Zipf guide table: guide[k] is the first rank whose CDF is in bucket k or later
	perm  []int     // popularity-rank → flow index
}

const baseSrcIP = 0x0a000000 // 10.0.0.0/8 source space
const baseDstPort = 2000

// maxRules is the most rules a scenario may ask for: rule r owns an r-bit
// source prefix, so a 32-bit source address has room for 32 of them.
const maxRules = 32

// Validate reports whether Generate can build the scenario: it needs at least
// one flow and 1..32 rules.
func (scn Scenario) Validate() error {
	switch {
	case scn.Flows <= 0:
		return fmt.Errorf("%d flows: a scenario needs at least 1", scn.Flows)
	case scn.Rules < 1 || scn.Rules > maxRules:
		return fmt.Errorf("%d rules: a scenario needs 1..%d", scn.Rules, maxRules)
	}
	return nil
}

// Generate builds a deterministic workload for a scenario. It panics if the
// scenario fails Validate.
func Generate(scn Scenario, seed uint64) *Workload {
	if err := scn.Validate(); err != nil {
		panic(fmt.Sprintf("trafficgen: bad scenario %+v: %v", scn, err))
	}
	w := &Workload{Scenario: scn}
	rng := sim.NewRand(seed)

	// Rules: rule r owns destination port baseDstPort+r and a source
	// prefix of r bits, giving every rule a distinct mask (and therefore
	// its own tuple in the tuple space search).
	w.Rules = make([]RuleSpec, scn.Rules)
	for r := 0; r < scn.Rules; r++ {
		mask := classify.Mask{
			SrcIPBits:   uint8(r),
			DstIPBits:   0,
			SrcPortWild: true,
			DstPortWild: false,
			ProtoWild:   false,
		}
		pattern := packet.FiveTuple{
			SrcIP:   baseSrcIP,
			DstPort: uint16(baseDstPort + r),
			Proto:   packet.ProtoUDP,
		}
		w.Rules[r] = RuleSpec{
			Mask:    mask,
			Pattern: mask.Apply(pattern),
			Match: classify.Match{
				RuleID:   uint32(r + 1),
				Priority: uint16(scn.Rules - r),
				Action:   classify.Action{Kind: classify.ActionOutput, Port: r % 16},
			},
		}
	}

	// Flows: each flow is assigned a rule round-robin and constructed to
	// match exactly that rule (unique destination port per rule; source IP
	// inside the rule's prefix).
	w.Flows = make([]packet.FiveTuple, scn.Flows)
	w.FlowRule = make([]int, scn.Flows)
	seen := newTupleSet(scn.Flows)
	for i := 0; i < scn.Flows; i++ {
		r := i % scn.Rules
		// Free host bits: an r-bit prefix with r <= 8 is already covered by
		// the 10.0.0.0/8 base, so only prefixes longer than 8 bits eat into
		// the 24-bit host space.
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
			if seen.add(f) {
				w.Flows[i] = f
				w.FlowRule[i] = r
				break
			}
			w.Retries++
		}
	}

	if scn.Popularity == Zipf {
		w.buildZipf(0.9, rng)
	}
	w.draws = Stream{w: w, rng: rng}
	return w
}

// buildZipf precomputes the popularity CDF (rank r has weight 1/r^s), its
// guide table, and a random rank→flow permutation so hot flows are spread
// across rules.
func (w *Workload) buildZipf(s float64, rng *sim.Rand) {
	n := len(w.Flows)
	w.cdf = make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		w.cdf[i] = sum
	}
	for i := range w.cdf {
		w.cdf[i] /= sum
	}
	// One merge-like pass: guide[k] is the first rank whose CDF falls in
	// bucket k or later (the last rank if none does), so a draw in bucket k
	// has its rank in guide[k]..guide[k+1].
	w.guide = make([]int32, n+1)
	r := 0
	for k := range w.guide {
		for r < n-1 && bucket(w.cdf[r], n) < k {
			r++
		}
		w.guide[k] = int32(r)
	}
	w.perm = rng.Perm(n)
}

// bucket is y's guide bucket, ⌊y·n⌋ clamped to n−1. The guide and the draws
// share it, and it never decreases in y, so a CDF value in an earlier bucket
// than x is below x and one in a later bucket is above it.
func bucket(y float64, n int) int {
	return min(int(y*float64(n)), n-1)
}

// rank returns the first rank whose CDF reaches x, or the last rank if none
// does: exactly what a binary search of the whole CDF returns, found by
// searching only x's guide bucket.
func (w *Workload) rank(x float64) int {
	k := bucket(x, len(w.cdf))
	return searchCDF(w.cdf, x, int(w.guide[k]), int(w.guide[k+1]))
}

// searchCDF returns the first index in [lo, hi] whose CDF value reaches x,
// or hi if none does.
func searchCDF(cdf []float64, x float64, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NextFlow draws the next packet's flow index from the popularity
// distribution.
func (w *Workload) NextFlow() int { return w.draws.NextFlow() }

// NextPacket materialises the next packet of the workload's own stream.
func (w *Workload) NextPacket() (packet.Packet, int) { return w.draws.NextPacket() }

// Stream draws flows from a workload's popularity distribution with its own
// RNG. The workload's flow population, CDF, guide and permutation are
// immutable after Generate, so any number of streams can draw from one
// workload concurrently — one stream per load-generator goroutine.
type Stream struct {
	w   *Workload
	rng *sim.Rand
}

// NewStream returns an independent, deterministic draw stream over the
// workload (distinct seeds give distinct packet interleavings).
func (w *Workload) NewStream(seed uint64) *Stream {
	return &Stream{w: w, rng: sim.NewRand(seed)}
}

// NextFlow draws the stream's next flow index.
func (s *Stream) NextFlow() int {
	if s.w.cdf == nil {
		return s.rng.Intn(len(s.w.Flows))
	}
	return s.w.perm[s.w.rank(s.rng.Float64())]
}

// NextPacket materialises the stream's next packet.
func (s *Stream) NextPacket() (packet.Packet, int) {
	fi := s.NextFlow()
	f := s.w.Flows[fi]
	return packet.Packet{
		SrcIP: f.SrcIP, DstIP: f.DstIP,
		SrcPort: f.SrcPort, DstPort: f.DstPort,
		Proto:        f.Proto,
		PayloadBytes: 22, // 64 B frames, the paper's traffic generator setting
	}, fi
}

// InstallRules loads the workload's rule set into a tuple space.
func (w *Workload) InstallRules(ts *classify.TupleSpace) error {
	for _, r := range w.Rules {
		if err := ts.InsertRule(r.Mask, r.Pattern, r.Match); err != nil {
			return err
		}
	}
	return nil
}

// RandomTuples generates n distinct random five-tuples, for experiments
// that need raw keys rather than rule-structured flows.
func RandomTuples(n int, seed uint64) []packet.FiveTuple {
	rng := sim.NewRand(seed)
	out := make([]packet.FiveTuple, 0, n)
	seen := newTupleSet(n)
	for len(out) < n {
		f := packet.FiveTuple{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Uint32()),
			DstPort: uint16(rng.Uint32()),
			Proto:   packet.ProtoTCP,
		}
		if seen.add(f) {
			out = append(out, f)
		}
	}
	return out
}
